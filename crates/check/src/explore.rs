//! Breadth-first exhaustive exploration, bounded-depth exploration,
//! random walks, and counterexample shrinking.

use crate::config::CheckConfig;
use crate::driver::Driver;
use crate::op::Op;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Silences the default panic printer for the duration of a scope;
/// exploration legitimately catches panics and would otherwise spray
/// backtraces for every shrink replay.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

pub(crate) struct QuietPanics(Option<PanicHook>);

impl QuietPanics {
    pub(crate) fn install() -> Self {
        let old = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics(Some(old))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(old) = self.0.take() {
            std::panic::set_hook(old);
        }
    }
}

pub(crate) fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    match e.downcast::<String>() {
        Ok(s) => *s,
        Err(e) => match e.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "panic with non-string payload".to_string(),
        },
    }
}

/// True if replaying `path` (with per-op quiescence checks) panics.
fn replay_panics(cfg: &CheckConfig, path: &[Op]) -> bool {
    let mut d = Driver::new(cfg.clone());
    for &op in path {
        let r = catch_unwind(AssertUnwindSafe(|| {
            d.apply(op);
            d.check_quiescence();
        }));
        if r.is_err() {
            return true;
        }
    }
    false
}

/// Replay budget for [`shrink`]: greedy one-op-removal is quadratic in
/// the path length (each pass replays every candidate), so a
/// pathological schedule could otherwise pin the checker in shrinking
/// long after the violation is known. The budget counts *replays*; a
/// 60-op counterexample minimizes comfortably inside it, and when it
/// runs out the best path found so far is returned (still a valid
/// reproducer, just possibly not locally minimal).
const SHRINK_REPLAY_BUDGET: usize = 20_000;

/// Greedy one-op-removal shrinking to a locally minimal reproducer:
/// on return (budget permitting), removing any single op no longer
/// reproduces the panic. Skipped outright for very long (walk)
/// schedules; bounded by `budget` replays otherwise.
pub(crate) fn shrink_with_budget(cfg: &CheckConfig, mut path: Vec<Op>, budget: usize) -> Vec<Op> {
    if path.len() > 500 {
        return path;
    }
    let mut replays = 0usize;
    loop {
        let mut improved = false;
        for i in 0..path.len() {
            if replays >= budget {
                return path;
            }
            let mut cand = path.clone();
            cand.remove(i);
            replays += 1;
            if replay_panics(cfg, &cand) {
                path = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return path;
        }
    }
}

pub(crate) fn shrink(cfg: &CheckConfig, path: Vec<Op>) -> Vec<Op> {
    shrink_with_budget(cfg, path, SHRINK_REPLAY_BUDGET)
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
    use crate::config::Alphabet;
    use crate::parallel::explore_jobs;

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
        // refill and sweeps, and each kept state's record, cover the two
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

    /// Shrinking contract, pinned end to end on an injected fault:
    /// the shrunk schedule still reproduces the *same* panic message,
    /// and it is locally minimal — removing any single remaining op
    /// kills the reproduction.
    #[test]
    fn shrink_is_locally_minimal_and_preserves_the_panic() {
        let _quiet = QuietPanics::install();
        let cfg = CheckConfig {
            alphabet: Alphabet::TxOnly,
            injected_fault: Some(crate::config::InjectedFault {
                core: 0,
                min_writes: 2,
            }),
            ..CheckConfig::new(2, 2)
        };
        // A padded reproducer: core 1 noise plus a redundant read
        // around the two writes that arm the fault.
        let fat = vec![
            Op::TRead(1, 0),
            Op::TWrite(0, 0),
            Op::TRead(0, 1),
            Op::TRead(1, 1),
            Op::Abort(1),
            Op::TWrite(0, 1),
            Op::Commit(0),
        ];
        assert!(replay_panics(&cfg, &fat), "padded schedule must reproduce");
        let shrunk = shrink(&cfg, fat);
        assert_eq!(
            shrunk,
            vec![Op::TWrite(0, 0), Op::TWrite(0, 1), Op::Commit(0)],
            "two distinct writes and the faulting commit are all essential"
        );
        // Same panic, not just any panic.
        let mut d = Driver::new(cfg.clone());
        let mut message = String::new();
        for &op in &shrunk {
            match catch_unwind(AssertUnwindSafe(|| {
                d.apply(op);
                d.check_quiescence();
            })) {
                Ok(()) => {}
                Err(e) => message = panic_message(e),
            }
        }
        assert!(
            message.contains("injected fault"),
            "shrinking drifted to a different panic: {message}"
        );
        // Local minimality, re-checked mechanically.
        for i in 0..shrunk.len() {
            let mut cand = shrunk.clone();
            cand.remove(i);
            assert!(
                !replay_panics(&cfg, &cand),
                "op {i} was removable — shrink stopped early"
            );
        }
    }

    /// The replay budget is a hard bound: with a zero budget the path
    /// comes back untouched, and overlong (walk-length) schedules are
    /// skipped outright without a single replay.
    #[test]
    fn shrink_respects_its_replay_budget() {
        let _quiet = QuietPanics::install();
        let cfg = CheckConfig {
            alphabet: Alphabet::TxOnly,
            injected_fault: Some(crate::config::InjectedFault {
                core: 0,
                min_writes: 1,
            }),
            ..CheckConfig::new(2, 1)
        };
        let fat = vec![Op::TRead(1, 0), Op::TWrite(0, 0), Op::Commit(0)];
        assert_eq!(
            shrink_with_budget(&cfg, fat.clone(), 0),
            fat,
            "zero budget must not shrink"
        );
        // One pass of candidates costs `len` replays; a budget of 1
        // allows exactly the first candidate (which succeeds here —
        // dropping the leading read still reproduces).
        assert_eq!(
            shrink_with_budget(&cfg, fat.clone(), 1),
            vec![Op::TWrite(0, 0), Op::Commit(0)],
        );
        // The >500-op walk guard: returned untouched (no replays, so
        // a non-reproducing giant path is fine).
        let giant = vec![Op::TRead(0, 0); 501];
        assert_eq!(shrink_with_budget(&cfg, giant.clone(), 10), giant);
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
