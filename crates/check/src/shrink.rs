//! Counterexample shrinking and replay, and the panic plumbing the
//! explorers ([`crate::explore`]) share.

use crate::config::CheckConfig;
use crate::driver::Driver;
use crate::op::Op;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Alphabet;

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
}
