//! Liveness pass: exhaustive exploration of the *contention-managed*
//! state graph under the shipped `flextm::cm` managers, and detection
//! of fair abort/retry cycles (livelocks). The pass is this module's
//! unit tests; `cargo test -p flextm-check --lib liveness --
//! --nocapture` prints every graph and witness.
//!
//! # What is being checked
//!
//! Safety exploration ([`crate::explore`]) schedules ops adversarially
//! and proves invariants; it cannot say anything about progress,
//! because in its alphabet a core may simply never be scheduled to
//! commit. This pass closes that gap for the *eager* (CMPC) runtime:
//! each core runs a fixed looping program — transactionally write
//! `lines` distinct lines, then commit, forever — with per-core line
//! *orders rotated by core id* (core `c` writes line `(i + c) % lines`
//! at step `i`), the canonical shape that makes conflict resolution
//! order-dependent. Every state has exactly one outgoing edge per core
//! (that core taking its next program step), labeled:
//!
//! * `Run`   — a transactional write completed unopposed,
//! * `Kill`  — the write's conflicts were resolved by aborting at
//!   least one enemy (the `AbortEnemy` arm),
//! * `Stall` — the contention manager told the writer to wait,
//! * `Abort` — a doomed core observed its flipped TSW and restarted,
//!   or the manager told the writer to abort itself (`AbortSelf`),
//! * `Grant` — a core committed (system-wide progress).
//!
//! A **fair abort cycle** is a cycle in this graph containing an
//! `Abort` edge but no `Grant` edge: a fair scheduler can drive the
//! system around it forever, aborting and retrying without anyone ever
//! committing — a contention-manager livelock. Detection is by SCC
//! (iterative Tarjan) on the subgraph with `Grant` edges deleted: a
//! fair abort cycle exists iff some SCC of that subgraph contains both
//! endpoints of an `Abort` edge.
//!
//! # The stepper
//!
//! The stepper drives the *real* [`Driver`] (TMI fills, CST reports,
//! TSW CASes, AOU alerts — the full sim) and keeps one clone of the
//! shipped manager per core. It calls the [`ContentionManager`] hooks
//! where `flextm::runtime` calls them: `on_begin` at each attempt,
//! `on_open` per new open, `on_commit` and `on_abort` after each
//! commit and abort. Between open and commit it is the eager handler
//! of `resolve_conflicts`: the write physically completes (TMI) and
//! reports its conflicts, then each enemy is examined in id order —
//! dead enemies are retired (their CST bits cleared), and each live
//! one goes to `on_conflict` once, with machine core ids and
//! `stalls_so_far = 0`. `AbortEnemy` CASes the enemy's TSW and retires
//! it; `AbortSelf` aborts the writer's attempt; `Stall` leaves the
//! enemy pending, to be re-examined when the writer is next scheduled.
//! A stalled writer's speculative W-W write stands, so when the holder
//! commits, its commit CAS kills the stalled loser — kills routed
//! through the winner's commit are what makes stalling livelock-free.
//!
//! A state is the machine's canonical hash plus, per core, the program
//! counter, the pending enemies and the manager's `priority()` clipped
//! at `lines + 1`. The clipped value is also what `on_conflict` sees on
//! both sides. A manager's other state (backoff streams, abort counts)
//! only sizes stalls, which the graph does not time.
//!
//! # What it proves
//!
//! Polka has no fair abort cycle at 2 × 2, 3 × 2 and on the wide 2 × 2
//! machine; neither has Aggressive at 2 × 2. The old `>=` arbitration
//! (a test manager that wraps Polka) has one, and so has Timid at
//! 2 × 2: without its backoff jitter, two Timid transactions re-collide
//! forever.
//!
//! Why Polka is clean: in a `Grant`-free cycle every priority is
//! constant (Polka's karma only decreases at commit), so every core
//! that opens a line in the cycle is at the clip, and every kill is an
//! equal-priority tie resolved by the lower-id rule. The lowest-id
//! clipped core can therefore never be killed and never stalls, so its
//! writes monotonically advance its program counter — which only
//! `Grant` resets — so no edge of it can appear in the cycle; induction
//! up the id order empties the cycle of kills, hence of aborts. The
//! `>=` rule has no such asymmetry: two clipped cores kill each other in
//! alternation and the cycle closes. The companion guarantee — no stall
//! deadlock — holds because "stalls on" is a strict order on
//! (priority, id); the graph build asserts every state keeps at least
//! one non-`Stall` edge.
//!
//! Polite is left out: with `stalls_so_far = 0` it stalls on every
//! conflict, so two cores that conflict stall on each other and the
//! graph build's total-stall-deadlock assert fires. Modelling it needs
//! bounded patience.
//!
//! # What it does not yet prove
//!
//! The stepper still differs from `flextm::runtime` in four ways:
//!
//! * **Live priorities.** The stepper reads the enemy manager's live
//!   priority; the runtime reads the priority the enemy published at
//!   BEGIN.
//! * **Lazy commit.** A commit goes through the driver's
//!   copy-and-clear and enemy CAS sweep; the runtime's eager
//!   `commit_inner` instead hands a CAS-Commit's `ConflictsPending` to
//!   the manager.
//! * **Unbounded patience.** `stalls_so_far` is always 0, so Polka's
//!   `max_stalls` escalation never fires; the proof assumes patience
//!   outlasts the enemy's critical section.
//! * **Clipped priorities.** Two priorities above `lines + 1` compare
//!   as a tie.
//!
//! The driver's TSWs are also untagged, so a re-examining handler
//! cannot tell a restarted enemy from the incarnation it first met
//! (the runtime's sequence tags can). That admits spurious kills and
//! stalls against the new incarnation, and does not weaken a
//! no-livelock result, which holds even with them.

use crate::canon::canon;
use crate::config::CheckConfig;
use crate::driver::{Driver, Snapshot, TSW_ACTIVE};
use crate::op::Op;
use flextm::cm::{CmContext, CmDecision, ContentionManager, Polka};
use flextm_sim::CstKind;
use std::collections::HashMap;

/// Edge labels of the contention-managed state graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    /// Write completed with no live conflict.
    Run,
    /// Write resolved conflicts by killing at least one enemy.
    Kill,
    /// Contention manager ordered the writer to wait.
    Stall,
    /// A core aborted (killed, or by its own manager) and restarted.
    Abort,
    /// A commit: system-wide progress.
    Grant,
}

/// One core's program position: with the clipped priorities, the part
/// of the state key that lives outside the [`Driver`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Prog {
    /// Lines opened in the current attempt (== next program index).
    pc: u8,
    /// Unresolved enemies (checker ids, ascending) of the in-flight
    /// open; non-empty exactly while the core is stalled.
    pending: Vec<u8>,
}

/// A state's identity: the machine's canonical hash, each core's
/// program position, and each core's clipped priority.
type Key = (u128, Vec<Prog>, Vec<u64>);

/// One edge of the built graph.
struct Edge {
    to: usize,
    kind: EdgeKind,
    desc: String,
}

/// One state: the real machine's record, the program positions, and
/// each core's manager.
struct Node<M> {
    snap: Snapshot,
    prog: Vec<Prog>,
    cms: Vec<M>,
}

/// A detected fair abort cycle, rendered as a schedule.
#[derive(Debug)]
struct Livelock {
    /// Steps from the initial state to the cycle.
    prefix: Vec<String>,
    /// The cycle itself; starts with an `Abort` step and contains no
    /// commit. The shortest such cycle, so it may step one core only.
    cycle: Vec<String>,
    /// Every core with an `Abort` edge inside the cycle's grant-free
    /// SCC. One cycle passes through all of those edges, so each of
    /// these cores can abort and retry forever while nothing commits.
    aborting: Vec<usize>,
}

impl Livelock {
    /// Renders the witness one step per line, regression-test ready.
    fn render(&self) -> String {
        let mut s = format!(
            "livelock: fair abort/retry cycle with no commit\n\
             reachable prefix ({} steps):\n",
            self.prefix.len()
        );
        for step in &self.prefix {
            s.push_str(&format!("  {step}\n"));
        }
        s.push_str(&format!(
            "cycle ({} steps, repeats forever):\n",
            self.cycle.len()
        ));
        for step in &self.cycle {
            s.push_str(&format!("  {step}\n"));
        }
        s.push_str(&format!(
            "cores aborting inside the cycle's SCC: {}\n",
            render_cores(&self.aborting)
        ));
        s
    }
}

/// Result of a liveness run.
#[derive(Debug)]
struct LivenessOutcome {
    /// Distinct (machine, program) states reached.
    states: u64,
    /// Total edges (== states × cores).
    edges: u64,
    /// `Abort`-labeled edges.
    aborts: u64,
    /// `Grant`-labeled edges.
    grants: u64,
    /// The fair abort cycle, if one exists.
    livelock: Option<Livelock>,
}

impl LivenessOutcome {
    /// Prints the graph and its verdict (`--nocapture` shows it).
    fn report(&self, name: &str) {
        println!(
            "{name}: {} states / {} edges / {} Abort / {} Grant edges, {}",
            self.states,
            self.edges,
            self.aborts,
            self.grants,
            match &self.livelock {
                Some(l) => format!("fair abort cycle\n{}", l.render()),
                None => "no fair abort cycle".to_string(),
            }
        );
    }
}

/// A manager's priority as the stepper uses it, in the state key and in
/// every `CmContext`: clipped at `lines + 1`, so the graph is finite.
fn clipped(cm: &impl ContentionManager, cfg: &CheckConfig) -> u64 {
    cm.priority().min(cfg.lines as u64 + 1)
}

/// Aborts core `c`'s attempt (servicing the enemy's alert first if one
/// doomed it), tells its manager, and restarts its program.
fn restart(d: &mut Driver, c: usize, prog: &mut Prog, cm: &mut impl ContentionManager) {
    d.apply(Op::Abort(c));
    cm.on_abort();
    *prog = Prog::default();
}

/// The line core `c` opens at program index `i`: rotated by core id so
/// acquisition orders differ across cores.
fn line_order(c: usize, i: usize, lines: usize) -> usize {
    (i + c) % lines
}

/// The eager handler's conflict retirement (`clear_enemy_bits`): once
/// a conflict with `enemy` is settled — they died, committed, or we
/// killed them — core `c`'s CST bits for them are cleared so a later
/// CAS-Commit is not blocked by the stale conflict. Clears hardware and
/// shadow in lockstep (the CST-exactness sweep compares them after
/// every step).
fn resolve_enemy(d: &mut Driver, c: usize, enemy: usize) {
    let mc = d.config().machine_core(c);
    let me = d.config().machine_core(enemy);
    for kind in [CstKind::RW, CstKind::WR, CstKind::WW] {
        d.st.cores[mc].csts.clear_bit(kind, me);
    }
    d.shadow[c].rw.remove(me);
    d.shadow[c].wr.remove(me);
    d.shadow[c].ww.remove(me);
}

/// Executes core `c`'s next program step from `node`: restores the
/// node's machine into `d` and leaves the successor's there, returning
/// the successor's program positions and managers, the edge label, and
/// a human-readable description.
fn step<M: ContentionManager + Clone>(
    cfg: &CheckConfig,
    node: &Node<M>,
    c: usize,
    d: &mut Driver,
) -> (Vec<Prog>, Vec<M>, EdgeKind, String) {
    d.restore(&node.snap);
    let mut prog = node.prog.clone();
    let mut cms = node.cms.clone();
    let mc = cfg.machine_core(c);

    // A pending alert on an undoomed core can only be the spurious
    // AOU re-arm case; service it as the runtime's handler would and
    // fall through to the program step.
    if d.st.cores[mc].alert_pending.is_some() && !d.shadow[c].doomed {
        d.service_alert(c);
    }

    if d.shadow[c].doomed {
        // The enemy CAS flipped our TSW; the alert handler aborts the
        // hardware state and the program restarts.
        restart(d, c, &mut prog[c], &mut cms[c]);
        let desc = format!(
            "c{c}: killed — aborts and retries (priority {})",
            clipped(&cms[c], cfg)
        );
        return (prog, cms, EdgeKind::Abort, desc);
    }

    if prog[c].pending.is_empty() && prog[c].pc as usize == cfg.lines {
        // All lines opened: the commit critical section. Its enemy
        // CAS sweep kills any still-stalled W-W losers.
        let committed = d.commit(c);
        assert!(
            committed,
            "liveness: sequential commit of a live core must succeed"
        );
        d.post_op_checks();
        cms[c].on_commit();
        prog[c].pc = 0;
        let desc = format!("c{c}: commits (priority {})", clipped(&cms[c], cfg));
        return (prog, cms, EdgeKind::Grant, desc);
    }

    let l = line_order(c, prog[c].pc as usize, cfg.lines);
    if prog[c].pending.is_empty() {
        // New open: the TStore physically completes (TMI) and reports
        // its conflicts; the manager counts the open even if we then
        // stall (the line is speculatively held either way).
        if !d.shadow[c].active {
            cms[c].on_begin();
        }
        let enemies = d.tx_write(c, l);
        d.post_op_checks();
        cms[c].on_open();
        prog[c].pending = enemies.iter().map(|m| cfg.checker_core(m) as u8).collect();
        prog[c].pending.sort_unstable();
    }

    // The eager handler: examine pending enemies in id order.
    let mut killed: Vec<usize> = Vec::new();
    let mut stalled_on: Option<usize> = None;
    while let Some(&e) = prog[c].pending.first() {
        let e = e as usize;
        if d.shadow[e].tsw != TSW_ACTIVE {
            // Enemy already dead (or committed, which would have
            // killed us first): retire the conflict and move on.
            resolve_enemy(d, c, e);
            d.post_op_checks();
            prog[c].pending.remove(0);
            continue;
        }
        let ctx = CmContext {
            my_priority: clipped(&cms[c], cfg),
            enemy_priority: clipped(&cms[e], cfg),
            my_id: mc,
            enemy_id: cfg.machine_core(e),
            stalls_so_far: 0,
        };
        match cms[c].on_conflict(ctx) {
            CmDecision::Stall(_) => {
                stalled_on = Some(e);
                break;
            }
            CmDecision::AbortEnemy => {
                d.kill_enemy(c, e);
                resolve_enemy(d, c, e);
                d.post_op_checks();
                prog[c].pending.remove(0);
                killed.push(e);
            }
            CmDecision::AbortSelf => {
                restart(d, c, &mut prog[c], &mut cms[c]);
                let desc = format!("c{c}: TWrite(L{l}) meets c{e} — aborts itself and retries");
                return (prog, cms, EdgeKind::Abort, desc);
            }
        }
    }

    let prio = clipped(&cms[c], cfg);
    let (kind, desc) = match (stalled_on, killed.as_slice()) {
        (Some(e), []) => (
            EdgeKind::Stall,
            format!(
                "c{c}: TWrite(L{l}) stalls on c{e} (priority {prio} vs {})",
                clipped(&cms[e], cfg)
            ),
        ),
        (Some(e), ks) => (
            EdgeKind::Kill,
            format!(
                "c{c}: TWrite(L{l}) kills {} then stalls on c{e}",
                render_cores(ks)
            ),
        ),
        (None, []) => {
            prog[c].pc += 1;
            (
                EdgeKind::Run,
                format!("c{c}: TWrite(L{l}) completes (priority {prio})"),
            )
        }
        (None, ks) => {
            prog[c].pc += 1;
            (
                EdgeKind::Kill,
                format!(
                    "c{c}: TWrite(L{l}) kills {} and completes (priority {prio})",
                    render_cores(ks)
                ),
            )
        }
    };
    (prog, cms, kind, desc)
}

fn render_cores(cores: &[usize]) -> String {
    cores
        .iter()
        .map(|e| format!("c{e}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Iterative Tarjan SCC over `adj`; returns a component id per node.
fn tarjan(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let unvisited = u32::MAX;
    let mut index = vec![unvisited; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    let mut next = 0u32;
    let mut ncomp = 0usize;

    for root in 0..n {
        if index[root] != unvisited {
            continue;
        }
        call.push((root, 0));
        while let Some(&(v, i)) = call.last() {
            if i == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if i < adj[v].len() {
                call.last_mut().expect("frame").1 += 1;
                let w = adj[v][i];
                if index[w] == unvisited {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("scc stack");
                        on_stack[w] = false;
                        comp[w] = ncomp;
                        if w == v {
                            break;
                        }
                    }
                    ncomp += 1;
                }
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    comp
}

/// Builds the reachable contention-managed state graph for `cfg`, with
/// `manager(id)` building the manager of the core with machine id `id`
/// as `CmKind::build` does, and looks for a fair abort cycle.
fn check_liveness<M: ContentionManager + Clone>(
    cfg: &CheckConfig,
    manager: impl Fn(usize) -> M,
) -> LivenessOutcome {
    // Every step restores its node into this one driver; a node keeps
    // only its record.
    let mut scratch = Driver::new(cfg.clone());
    let key = |d: &Driver, prog: &[Prog], cms: &[M]| -> Key {
        let prios = cms.iter().map(|cm| clipped(cm, cfg)).collect();
        (canon(d), prog.to_vec(), prios)
    };
    let root = Node {
        snap: scratch.save(),
        prog: vec![Prog::default(); cfg.cores],
        cms: cfg.core_ids.iter().map(|&id| manager(id)).collect(),
    };

    let mut seen: HashMap<Key, usize> = HashMap::new();
    seen.insert(key(&scratch, &root.prog, &root.cms), 0);
    let mut nodes: Vec<Node<M>> = vec![root];
    let mut edges: Vec<Vec<Edge>> = Vec::new();
    // Discovery parent (node, core) of each node, for witness prefixes.
    let mut parent: Vec<Option<(usize, usize)>> = vec![None];

    let mut at = 0usize;
    while at < nodes.len() {
        let mut out = Vec::with_capacity(cfg.cores);
        for c in 0..cfg.cores {
            let (prog, cms, kind, desc) = step(cfg, &nodes[at], c, &mut scratch);
            let k = key(&scratch, &prog, &cms);
            let to = match seen.get(&k) {
                Some(&i) => i,
                None => {
                    let i = nodes.len();
                    nodes.push(Node {
                        snap: scratch.save(),
                        prog,
                        cms,
                    });
                    seen.insert(k, i);
                    parent.push(Some((at, c)));
                    i
                }
            };
            // Quiescing consumes the successor; the next step restores
            // over it.
            scratch.quiesce();
            out.push(Edge { to, kind, desc });
        }
        assert!(
            out.iter().any(|e| e.kind != EdgeKind::Stall),
            "liveness: state {at} is a total stall deadlock"
        );
        edges.push(out);
        at += 1;
    }

    let n = nodes.len();
    let count = |kind| edges.iter().flatten().filter(|e| e.kind == kind).count() as u64;
    let (aborts, grants) = (count(EdgeKind::Abort), count(EdgeKind::Grant));

    // SCCs of the Grant-deleted subgraph.
    let adj: Vec<Vec<usize>> = edges
        .iter()
        .map(|es| {
            es.iter()
                .filter(|e| e.kind != EdgeKind::Grant)
                .map(|e| e.to)
                .collect()
        })
        .collect();
    let comp = tarjan(&adj);

    // A fair abort cycle exists iff an Abort edge stays inside one
    // grant-free SCC. The witness is the first such edge in (node,
    // core) order among the SCCs in which the most cores abort, so it
    // is deterministic and shows the widest livelock.
    let inside: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (0..cfg.cores).map(move |c| (u, c)))
        .filter(|&(u, c)| edges[u][c].kind == EdgeKind::Abort && comp[u] == comp[edges[u][c].to])
        .collect();
    let mut aborting = vec![0u32; n];
    for &(u, c) in &inside {
        aborting[comp[u]] |= 1 << c;
    }
    let witness = inside
        .iter()
        .rev()
        .max_by_key(|&&(u, _)| aborting[comp[u]].count_ones())
        .map(|&(u, c)| (u, edges[u][c].to, edges[u][c].desc.clone()));

    let livelock = witness.map(|(u, v, abort_desc)| {
        // Prefix: discovery path from the root to u.
        let mut prefix = Vec::new();
        let mut x = u;
        while let Some((p, c)) = parent[x] {
            prefix.push(edges[p][c].desc.clone());
            x = p;
        }
        prefix.reverse();
        // Cycle: the abort edge u→v, then a path v→…→u inside the
        // same grant-free SCC (BFS over its edges).
        let mut cycle = vec![abort_desc];
        let mut back: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut queue = std::collections::VecDeque::from([v]);
        let mut found = v == u;
        while let Some(x) = queue.pop_front() {
            if found {
                break;
            }
            for (c, e) in edges[x].iter().enumerate() {
                if e.kind == EdgeKind::Grant || comp[e.to] != comp[u] || back[e.to].is_some() {
                    continue;
                }
                back[e.to] = Some((x, c));
                if e.to == u {
                    found = true;
                    break;
                }
                queue.push_back(e.to);
            }
        }
        assert!(found, "liveness: SCC member unreachable inside its SCC");
        let mut tail = Vec::new();
        let mut x = u;
        while x != v {
            let (p, c) = back[x].expect("cycle backtrack");
            tail.push(edges[p][c].desc.clone());
            x = p;
        }
        tail.reverse();
        cycle.extend(tail);
        Livelock {
            prefix,
            cycle,
            aborting: (0..cfg.cores)
                .filter(|&c| aborting[comp[u]] >> c & 1 == 1)
                .collect(),
        }
    });

    LivenessOutcome {
        states: n as u64,
        edges: (n * cfg.cores) as u64,
        aborts,
        grants,
        livelock,
    }
}

/// The old `>=` arbitration: both sides of an equal-priority conflict
/// choose `AbortEnemy`. Everything else is the shipped Polka.
#[derive(Clone)]
struct GreaterOrEqual(Polka);

impl ContentionManager for GreaterOrEqual {
    fn name(&self) -> &'static str {
        "Polka (>=)"
    }
    fn on_begin(&mut self) {
        self.0.on_begin();
    }
    fn on_open(&mut self) {
        self.0.on_open();
    }
    fn on_conflict(&mut self, ctx: CmContext) -> CmDecision {
        if ctx.priority_tie() {
            CmDecision::AbortEnemy
        } else {
            self.0.on_conflict(ctx)
        }
    }
    fn on_commit(&mut self) {
        self.0.on_commit();
    }
    fn on_abort(&mut self) -> u64 {
        self.0.on_abort()
    }
    fn priority(&self) -> u64 {
        self.0.priority()
    }
}

mod tests {
    use super::*;
    use flextm::cm::{Aggressive, Timid};

    /// `(states, edges, Abort edges, Grant edges)`.
    fn graph(out: &LivenessOutcome) -> (u64, u64, u64, u64) {
        (out.states, out.edges, out.aborts, out.grants)
    }

    fn assert_live(out: &LivenessOutcome) {
        if let Some(l) = &out.livelock {
            panic!("{}", l.render());
        }
    }

    /// The shipped lower-id tie-break: priority clipping resolves into
    /// a stable winner, so no fair abort cycle exists.
    #[test]
    fn shipped_tie_break_has_no_fair_cycle() {
        let out = check_liveness(&CheckConfig::new(2, 2), Polka::new);
        out.report("Polka 2x2");
        assert_live(&out);
        assert_eq!(graph(&out), (229, 458, 90, 105));
    }

    /// Wrapping Polka in the old `>=` arbitration must rediscover the
    /// Polka mutual-abort livelock — statically, as an abort cycle
    /// with no commit.
    #[test]
    fn reverted_tie_break_rediscovers_polka_mutual_abort() {
        let out = check_liveness(&CheckConfig::new(2, 2), |id| GreaterOrEqual(Polka::new(id)));
        out.report("Polka (>=) 2x2");
        assert_eq!((out.states, out.edges), (284, 568));
        let lock = out.livelock.expect("`>=` arbitration must livelock");
        let r = lock.render();
        assert!(
            r.contains("kills") && r.contains("aborts and retries"),
            "witness must show the mutual kill/abort alternation:\n{r}"
        );
        assert!(
            !lock.cycle.iter().any(|s| s.contains("commits")),
            "cycle must be commit-free:\n{r}"
        );
    }

    /// Three cores, shipped policy: the id-order induction still
    /// holds.
    #[test]
    fn three_core_shipped_policy_is_clean() {
        let out = check_liveness(&CheckConfig::new(3, 2), Polka::new);
        out.report("Polka 3x2");
        assert_live(&out);
        assert_eq!(graph(&out), (31_836, 95_508, 32_212, 13_362));
    }

    /// The liveness graph is machine-width independent: the wide
    /// (word-seam) mapping reaches the same graph shape.
    #[test]
    fn wide_mapping_matches_narrow_graph() {
        let narrow = check_liveness(&CheckConfig::new(2, 2), Polka::new);
        let wide = check_liveness(&CheckConfig::wide(2, 2), Polka::new);
        wide.report("Polka 2x2 wide");
        assert_live(&wide);
        assert_eq!(graph(&wide), graph(&narrow));
    }

    /// Aggressive publishes no priority, so every conflict is a tie:
    /// the lower id kills and the higher id stalls until the winner's
    /// commit kills it.
    #[test]
    fn aggressive_has_no_fair_cycle() {
        let out = check_liveness(&CheckConfig::new(2, 2), |_| Aggressive);
        out.report("Aggressive 2x2");
        assert_live(&out);
        assert!(out.grants > 0, "no commit edge anywhere");
        assert!(out.aborts > 0, "contention never caused an abort");
    }

    /// Timid aborts itself on every conflict. Only its backoff jitter,
    /// which the graph does not time, keeps two Timid transactions
    /// from re-colliding, so the graph has a commit-free cycle in which
    /// both cores abort and retry.
    #[test]
    fn timid_livelocks_without_jitter() {
        let out = check_liveness(&CheckConfig::new(2, 2), Timid::new);
        out.report("Timid 2x2");
        let lock = out.livelock.expect("Timid without jitter must livelock");
        let r = lock.render();
        assert!(
            r.contains("aborts itself and retries"),
            "witness must go through the AbortSelf arm:\n{r}"
        );
        assert_eq!(lock.aborting, [0, 1], "both cores must re-collide:\n{r}");
        assert!(
            !lock.cycle.iter().any(|s| s.contains("commits")),
            "cycle must be commit-free:\n{r}"
        );
    }
}
