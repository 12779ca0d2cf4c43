//! The runtime-neutral transactional-memory API.
//!
//! Workloads are written once against [`TmRuntime`]/[`TmThread`]/[`Txn`]
//! and run unchanged on FlexTM, the software baselines (CGL, TL2,
//! RSTM-like, RTM-F) and anything else — exactly the property the
//! paper's evaluation needs (same benchmark, different runtime).

use crate::mem::Addr;
use crate::proc::ProcHandle;

/// Control-flow marker: the current transaction attempt cannot
/// continue (conflict, alert, validation failure) and must unwind to
/// the retry loop. Propagate it with `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRetry;

impl std::fmt::Display for TxRetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("transaction attempt must retry")
    }
}

impl std::error::Error for TxRetry {}

/// Result of a single transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt committed.
    Committed,
    /// The attempt aborted (conflict, alert, or failed validation).
    Aborted,
}

/// Result of running a transaction to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOutcome {
    /// Total attempts, including the committing one (≥ 1).
    pub attempts: u32,
}

/// Operations available inside a transaction body.
///
/// All methods return [`TxRetry`] when the attempt is doomed; bodies
/// propagate it with `?` and the runtime's retry loop takes over.
pub trait Txn {
    /// Transactional read of one word.
    ///
    /// # Errors
    ///
    /// [`TxRetry`] if the attempt must abort.
    fn read(&mut self, addr: Addr) -> Result<u64, TxRetry>;

    /// Transactional write of one word.
    ///
    /// # Errors
    ///
    /// [`TxRetry`] if the attempt must abort.
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), TxRetry>;

    /// Models transaction-local computation.
    ///
    /// # Errors
    ///
    /// [`TxRetry`] if a deferred abort is pending.
    fn work(&mut self, cycles: u64) -> Result<(), TxRetry>;

    /// *Escape* read: a non-transactional load issued from inside the
    /// transaction (the paper's §3.5 "ordinary loads and stores can be
    /// requested within a transaction by issuing special instructions").
    /// Runtimes without an escape mechanism fall back to the
    /// transactional read.
    ///
    /// # Errors
    ///
    /// [`TxRetry`] if the attempt must abort.
    fn escape_read(&mut self, addr: Addr) -> Result<u64, TxRetry> {
        self.read(addr)
    }

    /// *Escape* write: a non-transactional store from inside the
    /// transaction — it takes effect immediately and survives an abort
    /// (used for software metadata and thread-private updates in
    /// overflowing transactions). Fallback: transactional write.
    ///
    /// # Errors
    ///
    /// [`TxRetry`] if the attempt must abort.
    fn escape_write(&mut self, addr: Addr, value: u64) -> Result<(), TxRetry> {
        self.write(addr, value)
    }
}

/// Subsumption (flattened) nesting: an inner transaction inside `tx`
/// merges into it — the paper's nesting model ("we have adopted the
/// subsumption model", §3.5). Aborting the inner body aborts the whole
/// flat transaction, which is exactly what propagating [`TxRetry`]
/// does.
///
/// # Errors
///
/// Whatever `body` returns.
pub fn nested(tx: &mut dyn Txn, body: &mut TxnBody<'_>) -> Result<(), TxRetry> {
    body(tx)
}

/// A transaction body: reads/writes through [`Txn`], returns `Ok` to
/// request commit or `Err(TxRetry)` to self-abort and retry.
pub type TxnBody<'b> = dyn FnMut(&mut dyn Txn) -> Result<(), TxRetry> + 'b;

/// Per-thread handle of a TM runtime.
pub trait TmThread {
    /// Executes one attempt of `body` (begin → body → commit).
    fn txn_once(&mut self, body: &mut TxnBody<'_>) -> AttemptOutcome;

    /// Runs `body` until it commits.
    fn txn(&mut self, body: &mut TxnBody<'_>) -> TxnOutcome {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if self.txn_once(body) == AttemptOutcome::Committed {
                return TxnOutcome { attempts };
            }
        }
    }

    /// The underlying processor, for non-transactional work between
    /// transactions.
    fn proc(&self) -> &ProcHandle;

    /// Histogram over this handle's committed transactions of how many
    /// distinct transactions each conflicted with (index = count) —
    /// the Fig. 4 side-table metric. Runtimes that keep no per-enemy
    /// conflict sets report none.
    fn conflict_histogram(&self) -> &[u64] {
        &[]
    }
}

/// A TM runtime: shared state plus a factory for per-thread handles.
pub trait TmRuntime: Sync {
    /// Human-readable name used in benchmark output ("FlexTM-Lazy",
    /// "TL2", …).
    fn name(&self) -> &str;

    /// Creates the per-thread handle for the worker driving `proc`.
    /// `thread_id` is the software thread id (usually == core id unless
    /// the harness multiplexes).
    fn thread<'r>(&'r self, thread_id: usize, proc: ProcHandle) -> Box<dyn TmThread + 'r>;
}

#[cfg(test)]
mod tests {
    use super::*;

    // A trivial in-test runtime that commits every attempt after `n`
    // forced aborts, to exercise the default `txn` loop.
    struct Flaky {
        fail_first: u32,
    }
    struct FlakyThread<'a> {
        remaining: u32,
        proc: &'a ProcHandle,
    }
    impl Txn for u32 {
        fn read(&mut self, _a: Addr) -> Result<u64, TxRetry> {
            Ok(0)
        }
        fn write(&mut self, _a: Addr, _v: u64) -> Result<(), TxRetry> {
            Ok(())
        }
        fn work(&mut self, _c: u64) -> Result<(), TxRetry> {
            Ok(())
        }
    }
    impl TmThread for FlakyThread<'_> {
        fn txn_once(&mut self, body: &mut TxnBody<'_>) -> AttemptOutcome {
            let mut t = 0u32;
            let _ = body(&mut t);
            if self.remaining > 0 {
                self.remaining -= 1;
                AttemptOutcome::Aborted
            } else {
                AttemptOutcome::Committed
            }
        }
        fn proc(&self) -> &ProcHandle {
            self.proc
        }
    }
    impl Flaky {
        fn thread_on<'a>(&self, proc: &'a ProcHandle) -> FlakyThread<'a> {
            FlakyThread {
                remaining: self.fail_first,
                proc,
            }
        }
    }

    #[test]
    fn txn_loop_counts_attempts() {
        let m = crate::Machine::new(crate::MachineConfig::small_test());
        let rt = Flaky { fail_first: 2 };
        let outcomes = m.run(1, |proc| {
            let mut th = rt.thread_on(&proc);
            th.txn(&mut |tx| {
                tx.read(Addr::new(0x1000))?;
                Ok(())
            })
        });
        assert_eq!(outcomes[0].attempts, 3);
    }
}
