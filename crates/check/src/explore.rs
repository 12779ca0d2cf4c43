//! The explorers — level-synchronized parallel BFS over canonical state
//! hashes ([`explore_jobs`]) and the long random walk ([`random_walk`])
//! — and the outcome types they report.
//!
//! # Why level-synchronized
//!
//! The serial explorer's counts are definitionally simple: `states` is
//! the number of distinct canonical hashes ever inserted, `transitions`
//! is the sum of `|enabled_ops|` over every expanded state, and both
//! are independent of the order states happen to be expanded in —
//! *provided* each state is expanded exactly once and depth truncation
//! cuts at the same frontier. A free-running work-stealing BFS breaks
//! the last property: a worker racing ahead can expand a state at depth
//! d+1 before another worker has generated its depth-d duplicate,
//! changing which node "owns" the state and, under a depth bound, how
//! many nodes get truncated. Expanding one full depth level at a time
//! (a barrier between levels) restores it: the set of states first
//! reached at each depth is a deterministic function of the graph, so
//! `states`/`transitions`/`max_depth`/`depth_truncated` are bit-equal
//! for every worker count — the property the verify gate pins.
//!
//! # Visited-set sharding
//!
//! The only cross-worker contention is the visited set. It is split
//! into [`SHARDS`] shards selected by the top bits of the canonical
//! hash (the hash is a two-lane FNV mix, so its high bits are already
//! uniform); each shard is an independent `Mutex<HashSet<u128>>` held
//! for a single insert, and hashes its keys by passing their low lane
//! through ([`LowLane`]) — the shard index used the other lane's top
//! bits, so the two stay independent. Membership *is* ownership: the
//! worker whose insert returns `true` enqueues the child, so a state
//! first reached along two same-depth paths is expanded exactly once
//! no matter how the race resolves.
//!
//! # Records instead of replay
//!
//! Every frontier node carries an `Arc` to a [`Snapshot`] — a record of
//! its nearest ancestor at a depth multiple of [`SNAPSHOT_STRIDE`] —
//! plus the (< stride) op suffix from it, so a rebuild is one restore
//! plus at most `SNAPSHOT_STRIDE - 1` applies, independent of depth
//! (replaying the full path would make the whole run O(depth²)). The
//! suffix ops succeeded under `catch_unwind` when the node was
//! generated and `Driver::apply` is deterministic, so replaying them
//! cannot panic: a panic surfaces only at child generation.
//!
//! A kept state is a record, not a machine, because the frontier is
//! what bounds a run: every node of a snapshot level owns one (3 661 at
//! level 8 of the 2×1 fixpoint, 61 761 at level 12 of the 3×1 tx one),
//! and a record holds only what its state holds — about 3.5 KiB at 2×1,
//! the same on a 65-core machine. Records die with their level;
//! [`ExploreOutcome::peak_frontier_bytes`] reports the most two levels
//! pinned at once.
//!
//! # One restore per transition
//!
//! A transition restores the child from the node's record — the node's
//! snapshot when its suffix is empty, else the rebuilt node written
//! once into the worker's own record — applies the op, hashes and
//! claims the child, then quiesces it in place (abort everything,
//! assert the machine clean), claimed or not. Each worker's [`Scratch`]
//! is overwritten, not reallocated. A claimed child at a snapshot level
//! is recorded before it is quiesced and kept as an exact-size clone.
//! Claiming before quiescing is sound: a violation ends the run after
//! its level, and every same-level duplicate is quiesced and reported
//! too, so the least violating path is still the one chosen. A child
//! whose op or quiescence panicked is dropped, not restored over.

use crate::canon::canon;
use crate::config::CheckConfig;
use crate::driver::{Driver, Snapshot};
use crate::op::Op;
use crate::shrink::{panic_message, shrink, QuietPanics};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A found invariant violation: the op schedule from the initial state
/// and the panic message of the assert that fired.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Minimal (greedily shrunk) op path reproducing the violation.
    pub path: Vec<Op>,
    /// The failed assertion's message.
    pub message: String,
}

impl Violation {
    /// Renders the schedule one op per line, ready for a regression
    /// test.
    pub fn render(&self) -> String {
        let mut s = format!(
            "violation: {}\nschedule ({} ops):\n",
            self.message,
            self.path.len()
        );
        for op in &self.path {
            s.push_str(&format!("  {op}\n"));
        }
        s
    }
}

/// Periodic progress snapshot handed to the caller's callback.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Distinct canonical states visited so far.
    pub states: u64,
    /// Transitions (op applications) executed.
    pub transitions: u64,
    /// Nodes awaiting expansion.
    pub frontier: usize,
    /// Depth of the node currently being expanded.
    pub depth: usize,
}

/// Result of an exhaustive / bounded-depth run.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Distinct canonical states reached.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Invariant sweeps the exploration ran
    /// ([`flextm_sim::SimState::sweeps`], summed over every state the
    /// explorer applied an op to or quiesced). Exact for one worker;
    /// with more, which same-level path first claims a state decides
    /// which ops its expansion replays, so the count can move slightly.
    pub sweeps: u64,
    /// Deepest node expanded.
    pub max_depth: usize,
    /// Nodes left unexpanded because of the depth bound (0 means the
    /// run reached a true fixpoint).
    pub depth_truncated: u64,
    /// The first violation found, if any (exploration stops on it).
    pub violation: Option<Violation>,
    /// The most frontier memory live at any level barrier: every
    /// distinct kept state's [`crate::Snapshot::heap_bytes`] plus each
    /// node's path and suffix, over the level just expanded and the
    /// one it produced. Accounting, not an allocator reading: exact
    /// for one worker; with more, which same-level path first claims a
    /// state can move it slightly.
    pub peak_frontier_bytes: u64,
}

/// Result of a random walk.
#[derive(Debug)]
pub struct WalkOutcome {
    /// Steps actually executed.
    pub steps: u64,
    /// The violation that ended the walk early, if any.
    pub violation: Option<Violation>,
}

/// Visited-set shard count. 64 keeps insert contention negligible for
/// any plausible worker count while costing only 64 mutexes + sets.
const SHARDS: usize = 64;

/// A [`Snapshot`] is kept every this-many levels; nodes in between
/// carry an op suffix from their snapshot ancestor. 4 bounds the
/// rebuild at one restore and ≤ 3 applies, and keeps a record only on
/// every fourth level's nodes.
const SNAPSHOT_STRIDE: usize = 4;

/// Pass-through hasher for canonical hashes: a key is already two
/// decorrelated 64-bit lanes, so the table takes the low one as is.
#[derive(Default)]
struct LowLane(u64);

impl Hasher for LowLane {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("the visited set hashes u128 keys only");
    }
    fn write_u128(&mut self, h: u128) {
        self.0 = h as u64;
    }
}

/// The visited set: canonical hashes sharded by their top bits.
struct Visited {
    shards: Vec<Mutex<HashSet<u128, BuildHasherDefault<LowLane>>>>,
}

impl Visited {
    fn new() -> Self {
        Visited {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Inserts `h`, returning `true` if it was new. The returning-true
    /// caller owns the state (enqueues it for expansion).
    fn insert(&self, h: u128) -> bool {
        let shard = (h >> (128 - SHARDS.trailing_zeros())) as usize;
        self.shards[shard].lock().unwrap().insert(h)
    }

    fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().len() as u64)
            .sum()
    }
}

/// One frontier node: a snapshot ancestor, the ops from it to this
/// state, and the full path for violation reporting.
struct Node {
    /// The kept state at the nearest stride-aligned ancestor (possibly
    /// this node itself, with an empty suffix).
    snap: Arc<Snapshot>,
    /// Ops from `snap` to this node; length < [`SNAPSHOT_STRIDE`].
    suffix: Vec<Op>,
    /// Full op path from the initial state.
    path: Vec<Op>,
}

/// What one worker accumulated over one level: merged single-threaded
/// after the level barrier.
#[derive(Default)]
struct WorkerOut {
    next: Vec<Node>,
    transitions: u64,
    sweeps: u64,
    violations: Vec<(Vec<Op>, String)>,
}

/// What a worker overwrites instead of allocating: nearly every state
/// the explorer builds is dead a transition later.
#[derive(Default)]
struct Scratch {
    /// The node being expanded, restored from its snapshot.
    base: Option<Driver>,
    /// The child of the transition being taken.
    child: Option<Driver>,
    /// The node's record, when it is not its own snapshot.
    base_rec: Option<Snapshot>,
    /// A claimed child at a snapshot level, before a clone is kept.
    kept_rec: Option<Snapshot>,
}

impl Scratch {
    /// The invariant sweeps the scratch drivers have run.
    fn sweeps(&self) -> u64 {
        [&self.base, &self.child]
            .into_iter()
            .flatten()
            .map(|d| d.st.sweeps())
            .sum()
    }
}

/// Makes `slot` hold the state `rec` records: in place when it holds a
/// driver, in a fresh one when it is empty (a worker's first use, or
/// after a panic left the last occupant in an unknown state).
fn restored<'a>(slot: &'a mut Option<Driver>, rec: &Snapshot) -> &'a mut Driver {
    match slot {
        Some(d) => {
            d.restore(rec);
            d
        }
        None => slot.insert(rec.to_driver()),
    }
}

/// Makes `slot` hold a record of `d`: in place when it holds one.
fn recorded<'a>(slot: &'a mut Option<Snapshot>, d: &Driver) -> &'a Snapshot {
    match slot {
        Some(rec) => {
            d.record(rec);
            rec
        }
        None => slot.insert(d.save()),
    }
}

/// `prefix` with `op` appended, allocated to fit: a frontier holds a
/// path and a suffix per node.
fn extended(prefix: &[Op], op: Op) -> Vec<Op> {
    let mut v = Vec::with_capacity(prefix.len() + 1);
    v.extend_from_slice(prefix);
    v.push(op);
    v
}

/// Expands one node: rebuilds its driver from the snapshot, restores
/// a child from the node's record for every enabled op, claims
/// unvisited children, and quiesces every child.
fn expand(
    cfg_depth: usize,
    node: &Node,
    visited: &Visited,
    scratch: &mut Scratch,
    out: &mut WorkerOut,
) {
    let Scratch {
        base,
        child: child_slot,
        base_rec,
        kept_rec,
    } = scratch;
    // Rebuild. The suffix replay cannot panic (see module docs).
    let base = restored(base, &node.snap);
    for &op in &node.suffix {
        base.apply(op);
    }
    let rec = if node.suffix.is_empty() {
        &*node.snap
    } else {
        recorded(base_rec, base)
    };
    let snapshot_level = (cfg_depth + 1).is_multiple_of(SNAPSHOT_STRIDE);

    for op in base.enabled_ops() {
        out.transitions += 1;
        let child = restored(child_slot, rec);
        let res = catch_unwind(AssertUnwindSafe(|| {
            child.apply(op);
            let claimed = visited.insert(canon(child));
            // Quiescing consumes the child, so the one state that is
            // kept is recorded first.
            let snap =
                (claimed && snapshot_level).then(|| Arc::new(recorded(kept_rec, child).clone()));
            child.quiesce();
            (claimed, snap)
        }));
        match res {
            Ok((false, _)) => {}
            Ok((true, snap)) => {
                let path = extended(&node.path, op);
                let node = match snap {
                    Some(snap) => Node {
                        snap,
                        suffix: Vec::new(),
                        path,
                    },
                    None => Node {
                        snap: Arc::clone(&node.snap),
                        suffix: extended(&node.suffix, op),
                        path,
                    },
                };
                out.next.push(node);
            }
            Err(e) => {
                out.sweeps += child_slot.take().map_or(0, |d| d.st.sweeps());
                out.violations
                    .push((extended(&node.path, op), panic_message(e)));
            }
        }
    }
}

/// The frontier memory `levels` pin: each distinct snapshot's
/// [`Snapshot::heap_bytes`], plus every node's path and suffix.
fn frontier_bytes(levels: [&[Node]; 2]) -> u64 {
    let mut seen = HashSet::new();
    let mut bytes = 0;
    for node in levels.into_iter().flatten() {
        if seen.insert(Arc::as_ptr(&node.snap)) {
            bytes += node.snap.heap_bytes();
        }
        bytes += (node.path.capacity() + node.suffix.capacity()) * std::mem::size_of::<Op>();
    }
    bytes as u64
}

/// Parallel breadth-first exploration to a fixpoint or `depth` bound,
/// expanding each level across `jobs` scoped worker threads.
///
/// Reports bit-identical `states` / `transitions` / `max_depth` /
/// `depth_truncated` for every `jobs` value (see module docs). On a
/// violation the level is still completed, the lexicographically least
/// violating path is chosen (so even the failure report is stable
/// across worker counts up to same-level path aliasing), shrunk, and
/// returned. `progress` fires once per completed level.
pub fn explore_jobs(
    cfg: &CheckConfig,
    depth: Option<usize>,
    jobs: usize,
    mut progress: Option<&mut dyn FnMut(&Progress)>,
) -> ExploreOutcome {
    let jobs = jobs.max(1);
    let _quiet = QuietPanics::install();

    let visited = Visited::new();
    let root = Driver::new(cfg.clone());
    visited.insert(canon(&root));
    let mut level: Vec<Node> = vec![Node {
        snap: Arc::new(root.save()),
        suffix: Vec::new(),
        path: Vec::new(),
    }];
    let mut level_depth = 0usize;

    let mut transitions = 0u64;
    let mut sweeps = root.st.sweeps();
    let mut max_depth = 0usize;
    let mut peak_frontier_bytes = frontier_bytes([&level, &[]]);

    while !level.is_empty() {
        if depth.is_some_and(|d| level_depth >= d) {
            // Every remaining node sits exactly at the bound (BFS), so
            // the whole level is truncated unexpanded — the same cut
            // the serial engine made node by node.
            return ExploreOutcome {
                states: visited.len(),
                transitions,
                sweeps,
                max_depth,
                depth_truncated: level.len() as u64,
                violation: None,
                peak_frontier_bytes,
            };
        }
        max_depth = max_depth.max(level_depth);

        let cursor = AtomicUsize::new(0);
        let outs: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = WorkerOut::default();
                        let mut scratch = Scratch::default();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(node) = level.get(i) else { break };
                            expand(level_depth, node, &visited, &mut scratch, &mut out);
                        }
                        out.sweeps += scratch.sweeps();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("checker worker panicked outside catch_unwind")
                })
                .collect()
        });

        let mut next = Vec::new();
        let mut violations: Vec<(Vec<Op>, String)> = Vec::new();
        for mut out in outs {
            transitions += out.transitions;
            sweeps += out.sweeps;
            next.append(&mut out.next);
            violations.append(&mut out.violations);
        }
        peak_frontier_bytes = peak_frontier_bytes.max(frontier_bytes([&level, &next]));

        if let Some((path, message)) = violations.into_iter().min() {
            let path = shrink(cfg, path);
            return ExploreOutcome {
                states: visited.len(),
                transitions,
                sweeps,
                max_depth,
                depth_truncated: 0,
                violation: Some(Violation { path, message }),
                peak_frontier_bytes,
            };
        }

        level = next;
        level_depth += 1;
        if let Some(cb) = progress.as_deref_mut() {
            cb(&Progress {
                states: visited.len(),
                transitions,
                frontier: level.len(),
                depth: level_depth,
            });
        }
    }

    ExploreOutcome {
        states: visited.len(),
        transitions,
        sweeps,
        max_depth,
        depth_truncated: 0,
        violation: None,
        peak_frontier_bytes,
    }
}

/// Drives one long random schedule: at each step an enabled op is
/// chosen by `pick` (a closure over the caller's RNG, e.g. the
/// workloads crate's `WlRng`). Quiescence is spot-checked every 64
/// steps. Returns the first violation (shrunk when short enough).
pub fn random_walk(
    cfg: &CheckConfig,
    steps: u64,
    pick: &mut dyn FnMut(usize) -> usize,
    mut progress: Option<&mut dyn FnMut(u64)>,
) -> WalkOutcome {
    let _quiet = QuietPanics::install();
    let mut d = Driver::new(cfg.clone());
    let mut history: Vec<Op> = Vec::new();

    for step in 0..steps {
        let ops = d.enabled_ops();
        assert!(
            !ops.is_empty(),
            "stuck state: no enabled ops at step {step}"
        );
        let op = ops[pick(ops.len()) % ops.len()];
        history.push(op);
        let res = catch_unwind(AssertUnwindSafe(|| {
            d.apply(op);
            if step % 64 == 63 {
                d.check_quiescence();
            }
        }));
        if let Err(e) = res {
            let message = panic_message(e);
            let path = shrink(cfg, history);
            return WalkOutcome {
                steps: step + 1,
                violation: Some(Violation { path, message }),
            };
        }
        if step % 4096 == 4095 {
            if let Some(cb) = progress.as_deref_mut() {
                cb(step + 1);
            }
        }
    }

    WalkOutcome {
        steps,
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Alphabet, InjectedFault};

    /// The determinism contract, on the full 2×1 fixpoint: a parallel
    /// run reports the numbers the serial engine reports. One worker
    /// count here keeps the debug suite affordable; verify.sh repeats
    /// the same equality in release, and
    /// `truncated_bounded_runs_match_across_jobs` covers jobs=4.
    #[test]
    fn jobs_report_bit_identical_counts() {
        let cfg = CheckConfig::new(2, 1);
        let serial = explore_jobs(&cfg, None, 1, None);
        assert!(serial.violation.is_none());
        // Every transition ends in at least the quiescence sweep.
        assert!(serial.sweeps >= serial.transitions);
        let par = explore_jobs(&cfg, None, 3, None);
        assert!(par.violation.is_none());
        assert_eq!(
            (
                par.states,
                par.transitions,
                par.max_depth,
                par.depth_truncated
            ),
            (
                serial.states,
                serial.transitions,
                serial.max_depth,
                serial.depth_truncated
            ),
            "jobs=3 diverged from serial"
        );
    }

    /// Depth truncation must also be jobs-invariant (the subtle case —
    /// it depends on which node first owns each state).
    #[test]
    fn truncated_bounded_runs_match_across_jobs() {
        let cfg = CheckConfig {
            alphabet: Alphabet::TxOnly,
            ..CheckConfig::new(2, 1)
        };
        let serial = explore_jobs(&cfg, Some(5), 1, None);
        assert!(serial.depth_truncated > 0, "bound must actually truncate");
        let par = explore_jobs(&cfg, Some(5), 4, None);
        assert_eq!(
            (
                par.states,
                par.transitions,
                par.max_depth,
                par.depth_truncated
            ),
            (
                serial.states,
                serial.transitions,
                serial.max_depth,
                serial.depth_truncated
            ),
        );
    }

    /// An injected violation is found, reported with the fault's
    /// message, and shrunk to a locally minimal path — in parallel.
    #[test]
    fn parallel_violation_is_found_and_shrunk() {
        let cfg = CheckConfig {
            alphabet: Alphabet::TxOnly,
            injected_fault: Some(InjectedFault {
                core: 0,
                min_writes: 1,
            }),
            ..CheckConfig::new(2, 1)
        };
        let out = explore_jobs(&cfg, None, 2, None);
        let v = out.violation.expect("injected fault must be found");
        assert!(
            v.message.contains("injected fault"),
            "shrinking lost the message: {}",
            v.message
        );
        // Minimal reproducer: one write then the faulting commit.
        assert_eq!(v.path, vec![Op::TWrite(0, 0), Op::Commit(0)]);
    }

    /// A violation reports the same path whatever the worker count, on
    /// the full alphabet — where the faulting `Commit(0)` has later
    /// siblings (`Abort(0)`, all of core 1's ops) that are expanded
    /// after the panic cost the worker its scratch child, and must not
    /// turn into violations of their own — and the reported path
    /// replays to the reported panic.
    #[test]
    fn violation_report_is_jobs_invariant_and_replays() {
        let cfg = CheckConfig {
            injected_fault: Some(InjectedFault {
                core: 0,
                min_writes: 1,
            }),
            ..CheckConfig::new(2, 1)
        };
        let report = |jobs| {
            let v = explore_jobs(&cfg, None, jobs, None)
                .violation
                .expect("injected fault must be found");
            (v.path, v.message)
        };
        let (path, message) = report(1);
        assert_eq!(report(3), (path.clone(), message.clone()));
        assert_eq!(path, vec![Op::TWrite(0, 0), Op::Commit(0)]);

        let _quiet = QuietPanics::install();
        let mut d = Driver::new(cfg.clone());
        let mut replayed = None;
        for &op in &path {
            assert!(replayed.is_none(), "the path panics before its last op");
            replayed = catch_unwind(AssertUnwindSafe(|| {
                d.apply(op);
                d.check_quiescence();
            }))
            .err()
            .map(panic_message);
        }
        assert_eq!(replayed, Some(message));
    }

    #[test]
    fn exhaustive_2x1_reaches_fixpoint_clean() {
        let cfg = CheckConfig::new(2, 1);
        let out = explore_jobs(&cfg, None, 1, None);
        assert!(
            out.violation.is_none(),
            "{}",
            out.violation
                .as_ref()
                .map(|v| v.render())
                .unwrap_or_default()
        );
        assert_eq!(out.depth_truncated, 0, "2x1 must reach a true fixpoint");
        assert!(
            out.states > 100,
            "suspiciously small state space: {}",
            out.states
        );
    }

    #[test]
    fn wide_2x1_explores_a_graph_isomorphic_to_the_narrow_one() {
        // Same alphabet as the 2x1 run, but the two checker cores are
        // machine cores 0 and 64 of a 65-core machine — every CST,
        // directory sharer/owner set, and activity mask crosses the
        // ProcSet word seam. Core ids must be protocol-irrelevant: the
        // wide run's state graph is the narrow one with bits relabeled,
        // so state and transition counts match exactly. (A transition's
        // restore and sweeps, and each kept state's record, cover the two
        // touched cores only, but the debug build checks the 63 idle
        // ones pristine on every sweep: bounded depth keeps that out of
        // the unit suite; verify.sh runs the wide config to a true
        // fixpoint in release mode.)
        let depth = Some(6);
        let narrow = explore_jobs(
            &CheckConfig {
                alphabet: Alphabet::TxOnly,
                ..CheckConfig::new(2, 1)
            },
            depth,
            1,
            None,
        );
        let wide_cfg = CheckConfig {
            alphabet: Alphabet::TxOnly,
            ..CheckConfig::wide(2, 1)
        };
        assert_eq!(wide_cfg.machine_cores(), 65);
        let wide = explore_jobs(&wide_cfg, depth, 1, None);
        assert!(
            wide.violation.is_none(),
            "{}",
            wide.violation
                .as_ref()
                .map(|v| v.render())
                .unwrap_or_default()
        );
        assert_eq!(
            (wide.states, wide.transitions),
            (narrow.states, narrow.transitions),
            "relocating checker cores across the word seam changed the state graph"
        );
    }

    #[test]
    fn word_seam_conflict_lands_in_the_second_cst_word() {
        // Checker-derived regression for the multi-word ProcSet
        // plumbing: a W-W conflict between machine cores 0 and 64 must
        // set bit 64 — the first bit of the second CST word — on core
        // 0, and bit 0 on core 64. Before ProcSet, this entire
        // configuration was unbuildable (`assert!(proc < 64)`).
        let cfg = CheckConfig::wide(2, 1);
        let mut d = Driver::new(cfg.clone());
        d.apply(Op::TWrite(0, 0));
        d.apply(Op::TWrite(1, 0));
        let (_, _, ww0) = d.st.cores[0].csts.snapshot();
        let (_, _, ww64) = d.st.cores[64].csts.snapshot();
        assert!(
            ww0.contains(64),
            "core 0 W-W missed machine core 64: {ww0:?}"
        );
        assert_ne!(ww0.words()[1], 0, "conflict bit not in the second word");
        assert!(
            ww64.contains(0),
            "core 64 W-W missed machine core 0: {ww64:?}"
        );
        // The schedule must still commit cleanly from here.
        d.apply(Op::Commit(1));
        d.apply(Op::Abort(0));
        d.check_quiescence();
    }

    #[test]
    fn canon_converges_on_commuting_schedules() {
        let cfg = CheckConfig::new(2, 2);
        let mut a = Driver::new(cfg.clone());
        a.apply(Op::TRead(0, 0));
        a.apply(Op::TRead(1, 1));
        let mut b = Driver::new(cfg.clone());
        b.apply(Op::TRead(1, 1));
        b.apply(Op::TRead(0, 0));
        assert_eq!(crate::canon::canon(&a), crate::canon::canon(&b));
    }

    #[test]
    fn explore_is_deterministic() {
        let cfg = CheckConfig {
            alphabet: Alphabet::TxOnly,
            ..CheckConfig::new(2, 1)
        };
        let a = explore_jobs(&cfg, Some(6), 1, None);
        let b = explore_jobs(&cfg, Some(6), 1, None);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn random_walk_smoke_clean() {
        let cfg = CheckConfig::new(3, 2);
        let mut x = 0x1234_5678_u64;
        let mut pick = |n: usize| {
            // xorshift64 — any deterministic stream works here.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let out = random_walk(&cfg, 3_000, &mut pick, None);
        assert!(
            out.violation.is_none(),
            "{}",
            out.violation
                .as_ref()
                .map(|v| v.render())
                .unwrap_or_default()
        );
    }
}
