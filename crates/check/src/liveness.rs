//! Liveness pass: exhaustive exploration of the *contention-managed*
//! state graph and detection of fair abort/retry cycles (livelocks).
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
//!   least one enemy (the CMPC `AbortEnemy` arm),
//! * `Stall` — the contention manager told the writer to wait,
//! * `Abort` — a doomed core observed its flipped TSW and restarted,
//! * `Grant` — a core committed (system-wide progress).
//!
//! A **fair abort cycle** is a cycle in this graph containing an
//! `Abort` edge but no `Grant` edge: a fair scheduler can drive the
//! system around it forever, aborting and retrying without anyone ever
//! committing — a contention-manager livelock. Detection is by SCC
//! (iterative Tarjan) on the subgraph with `Grant` edges deleted: a
//! fair abort cycle exists iff some SCC of that subgraph contains both
//! endpoints of an `Abort` edge. PR 3's Polka mutual-abort livelock is
//! exactly such a cycle, and [`CheckConfig::cm_tie_break`]` = false`
//! reverts the arbitration to the pre-PR-3 `>=` rule so the detector
//! can rediscover it (see the tests).
//!
//! # The contention-manager model
//!
//! The stepper drives the *real* [`Driver`] (TMI fills, CST reports,
//! TSW CASes, AOU alerts — the full sim), and mirrors the eager
//! handler of `flextm::runtime::resolve_conflicts` on top of it: the
//! write physically completes (TMI) and reports its conflicts, then
//! the handler examines each enemy in id order — dead enemies are
//! resolved (`clear_enemy_bits`), live ones go to the Polka decision:
//! higher karma kills, lower karma stalls, ties break by
//! [`CheckConfig::cm_tie_break`]. A stalled writer keeps its pending
//! enemy list and re-examines it when next scheduled; a stalled
//! writer's speculative W-W write stands, so when the holder commits,
//! its commit CAS kills the stalled loser — kills routed through the
//! winner's commit are what makes stalling livelock-free.
//!
//! Karma is Polka's: incremented (saturating at [`KARMA_CAP`]) per
//! line-open *attempt*, retained across aborts, reset on commit. Two
//! deliberate modeling choices, both documented assumptions of the
//! proof:
//!
//! * **Unbounded patience**: the runtime's `max_stalls` escalation
//!   (stall bound fires → kill) is untimed impatience and would make
//!   *any* policy mutually abort under an adversarial scheduler; the
//!   model proves the policy itself, i.e. progress under the
//!   assumption that patience outlasts the enemy's critical section.
//! * **Untagged TSWs**: the driver's TSWs are attempt-free, so a
//!   re-examining handler cannot distinguish a restarted enemy from
//!   the incarnation it originally conflicted with (the production
//!   runtime's sequence tags can). This is conservative — it admits
//!   spurious kills/stalls against the new incarnation — and does not
//!   weaken the no-livelock result, which holds even with them.
//!
//! # Why the shipped policy has no fair abort cycle
//!
//! In a `Grant`-free cycle every karma value is constant (karma only
//! decreases at commit), so every core that opens a line in the cycle
//! is karma-saturated, and every kill is an equal-karma tie resolved
//! by the lower-id rule. The lowest-id saturated core can therefore
//! never be killed and never stalls, so its writes monotonically
//! advance its program counter — which only `Grant` resets — so no
//! edge of it can appear in the cycle; induction up the id order
//! empties the cycle of kills, hence of aborts. The `>=` rule has no
//! such asymmetry: two saturated cores kill each other in alternation
//! and the cycle closes. The companion guarantee — no stall deadlock —
//! holds because "stalls on" is a strict order on (karma, id); the
//! builder asserts every state keeps at least one non-`Stall` edge.

use crate::canon::canon;
use crate::config::CheckConfig;
use crate::driver::{Driver, Snapshot, TSW_ACTIVE};
use crate::explore::QuietPanics;
use crate::op::Op;
use std::collections::HashMap;

/// Polka karma saturates here. Must be at least `lines` so a full
/// attempt's opens fit below the cap, and small so the saturated
/// region (where livelocks live) is reachable within a few retries.
pub const KARMA_CAP: u8 = 3;

/// Edge labels of the contention-managed state graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Write completed with no live conflict.
    Run,
    /// Write resolved conflicts by killing at least one enemy.
    Kill,
    /// Contention manager ordered the writer to wait.
    Stall,
    /// A doomed core serviced its alert and restarted its program.
    Abort,
    /// A commit: system-wide progress.
    Grant,
}

/// The per-core contention-manager bookkeeping (the part of the model
/// state that lives outside the [`Driver`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CmCore {
    /// Lines opened in the current attempt (== next program index).
    pc: u8,
    /// Polka karma: saturating opens, kept across aborts.
    karma: u8,
    /// Unresolved enemies (checker ids, ascending) of the in-flight
    /// open; non-empty exactly while the core is stalled.
    pending: Vec<u8>,
}

/// One edge of the built graph.
struct Edge {
    to: usize,
    kind: EdgeKind,
    desc: String,
}

/// One state: the real machine's record plus CM bookkeeping.
struct Node {
    snap: Snapshot,
    cm: Vec<CmCore>,
}

/// A detected fair abort cycle, rendered as a schedule.
#[derive(Debug, Clone)]
pub struct Livelock {
    /// Steps from the initial state to the cycle.
    pub prefix: Vec<String>,
    /// The cycle itself; starts with an `Abort` step and contains no
    /// commit.
    pub cycle: Vec<String>,
}

impl Livelock {
    /// Renders the witness one step per line, regression-test ready.
    pub fn render(&self) -> String {
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
        s
    }
}

/// Result of a liveness run.
#[derive(Debug)]
pub struct LivenessOutcome {
    /// Distinct (machine, CM) states reached.
    pub states: u64,
    /// Total edges (== states × cores).
    pub edges: u64,
    /// `Abort`-labeled edges.
    pub aborts: u64,
    /// `Grant`-labeled edges.
    pub grants: u64,
    /// The fair abort cycle, if one exists.
    pub livelock: Option<Livelock>,
}

/// The line core `c` opens at program index `i`: rotated by core id so
/// acquisition orders differ across cores.
fn line_order(c: usize, i: usize, lines: usize) -> usize {
    (i + c) % lines
}

/// The Polka decision for `attacker` (karma `ka`) meeting live
/// `holder` (karma `kh`): `true` = AbortEnemy, `false` = Stall.
fn polka_kills(ka: u8, attacker: usize, kh: u8, holder: usize, tie_break: bool) -> bool {
    if ka != kh {
        return ka > kh;
    }
    if tie_break {
        attacker < holder // shipped: lower id wins the tie
    } else {
        let _ = holder;
        true // pre-PR-3 `>=`: both sides of a tie choose AbortEnemy
    }
}

/// Executes core `c`'s next program step from `node`: restores the
/// node's machine into `d` and leaves the successor's there, returning
/// the successor's CM bookkeeping, the edge label, and a human-readable
/// description.
fn step(
    cfg: &CheckConfig,
    node: &Node,
    c: usize,
    d: &mut Driver,
) -> (Vec<CmCore>, EdgeKind, String) {
    d.restore(&node.snap);
    let mut cm = node.cm.clone();
    let mc = cfg.machine_core(c);

    // A pending alert on an undoomed core can only be the spurious
    // AOU re-arm case; service it as the runtime's handler would and
    // fall through to the program step.
    if d.st.cores[mc].alert_pending.is_some() && !d.shadow[c].doomed {
        d.service_alert(c);
    }

    if d.shadow[c].doomed {
        // The enemy CAS flipped our TSW; the alert handler aborts the
        // hardware state and the program restarts (karma retained).
        d.apply(Op::Abort(c));
        cm[c].pc = 0;
        cm[c].pending.clear();
        let desc = format!(
            "c{c}: killed — aborts and retries (karma {} kept)",
            cm[c].karma
        );
        return (cm, EdgeKind::Abort, desc);
    }

    if cm[c].pending.is_empty() && cm[c].pc as usize == cfg.lines {
        // All lines opened: the commit critical section. Its enemy
        // CAS sweep kills any still-stalled W-W losers.
        let committed = d.commit(c);
        assert!(
            committed,
            "liveness: sequential commit of a live core must succeed"
        );
        d.post_op_checks();
        cm[c].pc = 0;
        cm[c].karma = 0;
        return (cm, EdgeKind::Grant, format!("c{c}: commits (karma resets)"));
    }

    let l = line_order(c, cm[c].pc as usize, cfg.lines);
    if cm[c].pending.is_empty() {
        // New open: the TStore physically completes (TMI) and reports
        // its conflicts; karma counts the attempt even if we then
        // stall (the line is speculatively held either way).
        let enemies = d.tx_write(c, l);
        d.post_op_checks();
        cm[c].karma = (cm[c].karma + 1).min(KARMA_CAP);
        cm[c].pending = enemies.iter().map(|m| cfg.checker_core(m) as u8).collect();
        cm[c].pending.sort_unstable();
    }

    // The eager handler: examine pending enemies in id order.
    let mut killed: Vec<usize> = Vec::new();
    let mut stalled_on: Option<usize> = None;
    while let Some(&e) = cm[c].pending.first() {
        let e = e as usize;
        if d.shadow[e].tsw != TSW_ACTIVE {
            // Enemy already dead (or committed, which would have
            // killed us first): retire the conflict and move on.
            d.resolve_enemy(c, e);
            d.post_op_checks();
            cm[c].pending.remove(0);
            continue;
        }
        if polka_kills(cm[c].karma, c, cm[e].karma, e, cfg.cm_tie_break) {
            d.kill_enemy(c, e);
            d.resolve_enemy(c, e);
            d.post_op_checks();
            cm[c].pending.remove(0);
            killed.push(e);
        } else {
            stalled_on = Some(e);
            break;
        }
    }

    let (kind, desc) = match (stalled_on, killed.as_slice()) {
        (Some(e), []) => (
            EdgeKind::Stall,
            format!(
                "c{c}: TWrite(L{l}) stalls on c{e} (karma {} vs {})",
                cm[c].karma, cm[e].karma
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
            cm[c].pc += 1;
            (
                EdgeKind::Run,
                format!("c{c}: TWrite(L{l}) completes (karma {})", cm[c].karma),
            )
        }
        (None, ks) => {
            cm[c].pc += 1;
            (
                EdgeKind::Kill,
                format!(
                    "c{c}: TWrite(L{l}) kills {} and completes (karma {})",
                    render_cores(ks),
                    cm[c].karma
                ),
            )
        }
    };
    (cm, kind, desc)
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

/// Builds the reachable contention-managed state graph for `cfg` and
/// looks for a fair abort cycle. `cfg.cores`/`cfg.lines` size the
/// per-core programs; `cfg.cm_tie_break` selects the arbitration.
pub fn check_liveness(cfg: &CheckConfig) -> LivenessOutcome {
    let _quiet = QuietPanics::install();

    // Every step restores its node into this one driver; a node keeps
    // only its record.
    let mut scratch = Driver::new(cfg.clone());
    let root = Node {
        snap: scratch.save(),
        cm: vec![
            CmCore {
                pc: 0,
                karma: 0,
                pending: Vec::new(),
            };
            cfg.cores
        ],
    };
    let root_key = (canon(&scratch), root.cm.clone());

    let mut nodes: Vec<Node> = vec![root];
    let mut edges: Vec<Vec<Edge>> = Vec::new();
    let mut seen: HashMap<(u128, Vec<CmCore>), usize> = HashMap::new();
    seen.insert(root_key, 0);
    // Discovery parent (node, core) of each node, for witness prefixes.
    let mut parent: Vec<Option<(usize, usize)>> = vec![None];

    let mut at = 0usize;
    while at < nodes.len() {
        let mut out = Vec::with_capacity(cfg.cores);
        for c in 0..cfg.cores {
            let (cm, kind, desc) = step(cfg, &nodes[at], c, &mut scratch);
            let key = (canon(&scratch), cm);
            let to = match seen.get(&key) {
                Some(&i) => i,
                None => {
                    let i = nodes.len();
                    nodes.push(Node {
                        snap: scratch.save(),
                        cm: key.1.clone(),
                    });
                    seen.insert(key, i);
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
    let aborts = edges
        .iter()
        .flatten()
        .filter(|e| e.kind == EdgeKind::Abort)
        .count() as u64;
    let grants = edges
        .iter()
        .flatten()
        .filter(|e| e.kind == EdgeKind::Grant)
        .count() as u64;

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
    // grant-free SCC. Pick the first in (node, core) order so the
    // witness is deterministic.
    let mut witness = None;
    'outer: for (u, es) in edges.iter().enumerate() {
        for e in es {
            if e.kind == EdgeKind::Abort && comp[u] == comp[e.to] {
                witness = Some((u, e.to, e.desc.clone()));
                break 'outer;
            }
        }
    }

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
        Livelock { prefix, cycle }
    });

    LivenessOutcome {
        states: n as u64,
        edges: (n * cfg.cores) as u64,
        aborts,
        grants,
        livelock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shipped lower-id tie-break: karma saturation resolves into
    /// a stable winner, so no fair abort cycle exists.
    #[test]
    fn shipped_tie_break_has_no_fair_cycle() {
        let cfg = CheckConfig::new(2, 2);
        let out = check_liveness(&cfg);
        assert!(
            out.livelock.is_none(),
            "{}",
            out.livelock
                .as_ref()
                .map(|l| l.render())
                .unwrap_or_default()
        );
        assert!(out.states > 10, "suspiciously small graph: {}", out.states);
        assert!(out.grants > 0, "no commit edge anywhere");
        assert!(out.aborts > 0, "contention never caused an abort");
    }

    /// Reverting to the pre-PR-3 `>=` arbitration must rediscover the
    /// Polka mutual-abort livelock — statically, as an abort cycle
    /// with no commit.
    #[test]
    fn reverted_tie_break_rediscovers_polka_mutual_abort() {
        let cfg = CheckConfig {
            cm_tie_break: false,
            ..CheckConfig::new(2, 2)
        };
        let out = check_liveness(&cfg);
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
        let cfg = CheckConfig::new(3, 2);
        let out = check_liveness(&cfg);
        assert!(
            out.livelock.is_none(),
            "{}",
            out.livelock
                .as_ref()
                .map(|l| l.render())
                .unwrap_or_default()
        );
    }

    /// The liveness graph is machine-width independent: the wide
    /// (word-seam) mapping reaches the same graph shape.
    #[test]
    fn wide_mapping_matches_narrow_graph() {
        let narrow = check_liveness(&CheckConfig::new(2, 2));
        let wide = check_liveness(&CheckConfig::wide(2, 2));
        assert_eq!(
            (wide.states, wide.edges, wide.aborts, wide.grants),
            (narrow.states, narrow.edges, narrow.aborts, narrow.grants)
        );
    }
}
