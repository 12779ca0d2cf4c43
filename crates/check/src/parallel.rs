//! Level-synchronized parallel BFS over canonical state hashes.
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
//! The serial explorer rebuilt every node by replaying its full op path
//! from the initial state, so expansion cost grew linearly with depth —
//! O(depth²) work overall, and the reason 3-core runs were impractical.
//! Here every frontier node carries an `Arc` to a [`Snapshot`] — a
//! record of the state at the nearest ancestor whose depth is a
//! multiple of [`SNAPSHOT_STRIDE`] — plus the (< stride) op suffix from
//! that ancestor. Rebuilding a node is one restore into the worker's
//! base scratch plus at most `SNAPSHOT_STRIDE - 1` op applications,
//! independent of depth. Soundness is inherited from replay
//! determinism — the suffix ops were applied successfully (under
//! `catch_unwind`) when the node was first generated, and
//! `Driver::apply` is deterministic, so re-applying them to a restore
//! of the same record reproduces the same state; a panic can
//! therefore only surface at child-generation time, exactly as in the
//! serial engine.
//!
//! A kept state is a record, not a machine, because the frontier is
//! what bounds a run. Every node of a snapshot level owns one — all
//! 3 661 nodes of the 2×1 fixpoint's level 8, 61 761 at level 12 of
//! the 3×1 tx fixpoint — so a record holds only what its state holds:
//! the touched cores with their resident L1 ways, the occupied L2
//! slots, the live directory entries and memory's non-zero words,
//! about 3 KiB at 2×1 against the 19 KiB of a forked driver, and the
//! same on a 65-core machine as on a 2-core one. Restoring reuses
//! every buffer the scratch owns. Records are dropped with their
//! level, so at any moment only the current and next frontier pin
//! memory; [`ExploreOutcome::peak_frontier_bytes`] reports the most
//! they pinned at once.
//!
//! # One refill per transition
//!
//! A transition is: copy the node's state, apply the op, hash the
//! child, claim the hash, then quiesce the child — abort everything
//! and assert the machine clean — on every transition, claimed or not.
//! Nearly every child is dead after that, so each worker keeps one
//! [`Scratch`]: the child is refilled in place ([`Driver::fork_into`],
//! which reuses every buffer the scratch owns) instead of built and
//! dropped, and quiescence runs on the child itself instead of on a
//! second copy. Only a claimed child at a snapshot level is recorded
//! ([`Driver::save`]) — before it is quiesced — because only that
//! state is kept. Claiming before quiescing is sound: a child whose
//! quiescence panics is a violation, a violation ends the run after
//! its level, and every same-level duplicate of that state is quiesced
//! and reported too, so the least violating path is still the one
//! chosen. A scratch whose op or quiescence panicked is in an unknown
//! state and is dropped, not refilled; the node's later children start
//! from a fresh fork.

use crate::canon::canon;
use crate::config::CheckConfig;
use crate::driver::{Driver, Snapshot};
use crate::explore::{panic_message, shrink, ExploreOutcome, Progress, QuietPanics, Violation};
use crate::op::Op;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
    violations: Vec<(Vec<Op>, String)>,
}

/// The two drivers a worker refills instead of forking: nearly every
/// copy the explorer makes is dead a transition later.
#[derive(Default)]
struct Scratch {
    /// The node being expanded, restored from its snapshot.
    base: Option<Driver>,
    /// The child of the transition being taken.
    child: Option<Driver>,
}

/// Makes `slot` hold a copy of `src`: in place when it holds a driver,
/// by forking when it is empty (a worker's first use, or after a panic
/// left the last occupant in an unknown state).
fn refill<'a>(slot: &'a mut Option<Driver>, src: &Driver) -> &'a mut Driver {
    match slot {
        Some(d) => {
            src.fork_into(d);
            d
        }
        None => slot.insert(src.fork()),
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

/// Expands one node: rebuilds its driver from the snapshot, applies
/// every enabled op to a copy, claims unvisited children, and quiesces
/// every child.
fn expand(
    cfg_depth: usize,
    node: &Node,
    visited: &Visited,
    scratch: &mut Scratch,
    out: &mut WorkerOut,
) {
    // Rebuild. The suffix replay cannot panic (see module docs).
    let base = match &mut scratch.base {
        Some(d) => {
            d.restore(&node.snap);
            d
        }
        None => scratch.base.insert(node.snap.to_driver()),
    };
    for &op in &node.suffix {
        base.apply(op);
    }
    let base: &Driver = base;
    let snapshot_level = (cfg_depth + 1).is_multiple_of(SNAPSHOT_STRIDE);

    for op in base.enabled_ops() {
        out.transitions += 1;
        let child = refill(&mut scratch.child, base);
        let res = catch_unwind(AssertUnwindSafe(|| {
            child.apply(op);
            let claimed = visited.insert(canon(child));
            // Quiescing consumes the child, so the one state that is
            // kept is recorded first.
            let snap = (claimed && snapshot_level).then(|| Arc::new(child.save()));
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
                scratch.child = None;
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
            next.append(&mut out.next);
            violations.append(&mut out.violations);
        }
        peak_frontier_bytes = peak_frontier_bytes.max(frontier_bytes([&level, &next]));

        if let Some((path, message)) = violations.into_iter().min() {
            let path = shrink(cfg, path);
            return ExploreOutcome {
                states: visited.len(),
                transitions,
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
        max_depth,
        depth_truncated: 0,
        violation: None,
        peak_frontier_bytes,
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
}
