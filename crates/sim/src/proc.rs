//! [`ProcHandle`]: the per-core "instruction set" run bodies use.
//!
//! Every method is one simulated operation, executed atomically against
//! the machine at this core's position in the deterministic schedule
//! (see the `machine` module doc): either immediately on the
//! scheduler's fast path, or after a rendezvous. Methods mirror
//! the paper's ISA additions: `TLoad`/`TStore` (PDI), `ALoad` (AOU),
//! CAS-Commit, CST copy-and-clear, the signature instructions of
//! Table 4(a), and the OS-level virtualization hooks of §5.

use crate::core_state::AlertCause;
use crate::cst::CstKind;
use crate::machine::{local_op, now_op, sync_op, Bucket, SharedMachine};
use crate::mem::Addr;
use crate::proto::{AccessKind, AccessResult, CasCommitOutcome};
use crate::stats::{AbortCause, CmEvent};
use crate::vm::SavedTx;
use flextm_sig::ProcSet;

/// Which access signature a signature instruction targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigKind {
    /// The read signature `Rsig`.
    Read,
    /// The write signature `Wsig`.
    Write,
}

/// Handle to one simulated processor, usable only from the run body
/// `Machine::run` handed it to.
///
/// Cloning is allowed so that software can multiplex several logical
/// threads over one hardware context (the §5 context-switch scenarios);
/// all clones must stay inside that body — every core is a fiber on
/// the machine's one host thread (the handle is neither `Send` nor
/// `Sync`), and the scheduler takes the calling fiber to be the core's
/// own.
#[derive(Clone)]
pub struct ProcHandle {
    shared: SharedMachine,
    core: usize,
}

impl std::fmt::Debug for ProcHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcHandle")
            .field("core", &self.core)
            .finish()
    }
}

impl ProcHandle {
    pub(crate) fn new(shared: SharedMachine, core: usize) -> Self {
        ProcHandle { shared, core }
    }

    /// The hardware context id this handle drives.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Models `cycles` of non-memory computation (IPC = 1). Purely
    /// local — completes without a scheduler rendezvous.
    pub fn work(&self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        local_op(&self.shared, self.core, cycles, Bucket::Work);
    }

    /// Models `cycles` of contention-manager stall/backoff spinning.
    /// Scheduled exactly like [`ProcHandle::work`] (same clock advance,
    /// same local fast path) but charged to the `stall_cycles`
    /// bucket so the work/mem split stays honest.
    pub fn stall(&self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        local_op(&self.shared, self.core, cycles, Bucket::Stall);
    }

    /// [`ProcHandle::stall`] fused with one alert poll: the waiting
    /// core burns `cycles` of backoff, then checks its alert line once
    /// per scheduling grant instead of taking a separate rendezvous per
    /// spin iteration. The stall is charged first, so an alert that
    /// arrives mid-backoff is observed exactly where the split
    /// `stall(); take_alert()` sequence would have seen it.
    pub fn stall_poll(&self, cycles: u64) -> Option<AlertCause> {
        if cycles > 0 {
            local_op(&self.shared, self.core, cycles, Bucket::Stall);
        }
        sync_op(&self.shared, self.core, |st| {
            st.cores.unmarked(self.core).alert_pending.take()
        })
    }

    /// Marks the start of a transaction attempt for cycle accounting:
    /// work/mem cycles accrued from here are reclassified into
    /// `wasted_cycles` if the attempt aborts. Zero simulated cost.
    pub fn begin_attempt(&self) {
        sync_op(&self.shared, self.core, |st| st.begin_attempt(self.core));
    }

    /// Records a zero-latency contention-management note into the
    /// abort-attribution diagnostics (tie-breaks taken, enemy kills).
    pub fn note_cm_event(&self, event: CmEvent) {
        sync_op(&self.shared, self.core, |st| {
            let causes = &mut st.cores.unmarked(self.core).stats.abort_causes;
            match event {
                CmEvent::PriorityTie => causes.mutual_abort += 1,
                CmEvent::EnemyAbort => causes.cm_enemy_kills += 1,
            }
        });
    }

    /// Non-transactional load.
    pub fn load(&self, addr: Addr) -> u64 {
        sync_op(&self.shared, self.core, |st| {
            st.access(self.core, addr, AccessKind::Load, 0).value
        })
    }

    /// Non-transactional store.
    pub fn store(&self, addr: Addr, value: u64) {
        sync_op(&self.shared, self.core, |st| {
            st.access(self.core, addr, AccessKind::Store, value);
        });
    }

    /// Transactional load. Delivers a pending alert instead of
    /// executing, exactly like the hardware traps at an instruction
    /// boundary.
    ///
    /// # Errors
    ///
    /// Returns the pending [`AlertCause`] when this core has been
    /// alerted (aborted remotely, strong-isolation kill, …).
    pub fn tload(&self, addr: Addr) -> Result<AccessResult, AlertCause> {
        sync_op(&self.shared, self.core, |st| {
            if let Some(cause) = st.cores.unmarked(self.core).alert_pending.take() {
                return Err(cause);
            }
            Ok(st.access(self.core, addr, AccessKind::TLoad, 0))
        })
    }

    /// Transactional store (see [`ProcHandle::tload`] for alert
    /// semantics).
    ///
    /// # Errors
    ///
    /// Returns the pending [`AlertCause`] when this core has been
    /// alerted.
    pub fn tstore(&self, addr: Addr, value: u64) -> Result<AccessResult, AlertCause> {
        sync_op(&self.shared, self.core, |st| {
            if let Some(cause) = st.cores.unmarked(self.core).alert_pending.take() {
                return Err(cause);
            }
            Ok(st.access(self.core, addr, AccessKind::TStore, value))
        })
    }

    /// Plain atomic compare-and-swap; returns the previous value.
    pub fn cas(&self, addr: Addr, expected: u64, new: u64) -> u64 {
        sync_op(&self.shared, self.core, |st| {
            st.cas(self.core, addr, expected, new).0
        })
    }

    /// The CAS-Commit instruction (§3.6).
    ///
    /// # Errors
    ///
    /// Returns the pending [`AlertCause`] when this core has been
    /// alerted before the commit could execute.
    pub fn cas_commit(
        &self,
        tsw: Addr,
        expected: u64,
        new: u64,
    ) -> Result<CasCommitOutcome, AlertCause> {
        sync_op(&self.shared, self.core, |st| {
            if let Some(cause) = st.cores.unmarked(self.core).alert_pending.take() {
                return Err(cause);
            }
            Ok(st.cas_commit(self.core, tsw, expected, new))
        })
    }

    /// Explicit abort: flash-clears all speculative state, signatures,
    /// CSTs and the AOU mark, recording `cause` in the abort
    /// attribution counters. Returns the number of lines discarded.
    pub fn abort_tx(&self, cause: AbortCause) -> usize {
        sync_op(&self.shared, self.core, |st| st.abort_tx(self.core, cause))
    }

    /// ALoad: cache `addr`'s line with the alert mark set, returning the
    /// current value.
    pub fn aload(&self, addr: Addr) -> u64 {
        sync_op(&self.shared, self.core, |st| st.aload(self.core, addr))
    }

    /// Consumes and returns a pending alert, if any (zero simulated
    /// cost: the trap logic polls for free).
    pub fn take_alert(&self) -> Option<AlertCause> {
        sync_op(&self.shared, self.core, |st| {
            st.cores.unmarked(self.core).alert_pending.take()
        })
    }

    /// Reads a CST register.
    pub fn read_cst(&self, kind: CstKind) -> ProcSet {
        sync_op(&self.shared, self.core, |st| {
            st.charge_mem(self.core, st.config.l1_latency);
            st.cores[self.core].csts.read(kind)
        })
    }

    /// Atomic copy-and-clear of a CST register (Fig. 3, line 1).
    pub fn copy_and_clear_cst(&self, kind: CstKind) -> ProcSet {
        sync_op(&self.shared, self.core, |st| {
            st.charge_mem(self.core, st.config.l1_latency);
            st.cores.unmarked(self.core).csts.copy_and_clear(kind)
        })
    }

    /// Clears one bit of a CST register (the "clean myself out of X's
    /// W-R" optimization — here applied to the local CSTs).
    pub fn clear_cst_bit(&self, kind: CstKind, proc: usize) {
        sync_op(&self.shared, self.core, |st| {
            st.charge_mem(self.core, st.config.l1_latency);
            st.cores.unmarked(self.core).csts.clear_bit(kind, proc);
        });
    }

    /// `insert [%r], Sig` (Table 4(a)): adds `addr`'s line to a
    /// signature without touching the cache.
    pub fn sig_insert(&self, kind: SigKind, addr: Addr) {
        sync_op(&self.shared, self.core, |st| {
            st.charge_mem(self.core, st.config.l1_latency);
            let me = self.core;
            let core = st.cores.unmarked(me);
            match kind {
                SigKind::Read => core.rsig.insert(addr.line()),
                SigKind::Write => core.wsig.insert(addr.line()),
            }
            st.mark_sig_live(me);
        });
    }

    /// `member [%r], Sig`: conservative membership test.
    pub fn sig_member(&self, kind: SigKind, addr: Addr) -> bool {
        sync_op(&self.shared, self.core, |st| {
            st.charge_mem(self.core, st.config.l1_latency);
            let core = &st.cores[self.core];
            match kind {
                SigKind::Read => core.rsig.contains(addr.line()),
                SigKind::Write => core.wsig.contains(addr.line()),
            }
        })
    }

    /// `clear Sig`: zeroes a signature.
    pub fn sig_clear(&self, kind: SigKind) {
        sync_op(&self.shared, self.core, |st| {
            st.charge_mem(self.core, st.config.l1_latency);
            let me = self.core;
            let core = st.cores.unmarked(me);
            match kind {
                SigKind::Read => core.rsig.clear(),
                SigKind::Write => core.wsig.clear(),
            }
            st.sync_core_masks(me);
        });
    }

    /// `activate Sig` (FlexWatcher, §8): screen local loads (reads) and
    /// stores (writes) against the corresponding signature.
    pub fn watch_activate(&self, reads: bool, writes: bool) {
        sync_op(&self.shared, self.core, |st| {
            st.charge_mem(self.core, st.config.l1_latency);
            st.cores.unmarked(self.core).watch_reads = reads;
            st.cores.unmarked(self.core).watch_writes = writes;
        });
    }

    // ---- OS-level virtualization hooks (§5) ----

    /// Descheduling path: drains TMI lines into the OT, saves
    /// signatures/CSTs/OT into software state, and clears the hardware
    /// (abort instruction without the abort semantics — speculative
    /// data survives in the OT).
    pub fn save_tx_state(&self) -> SavedTx {
        sync_op(&self.shared, self.core, |st| st.save_tx_state(self.core))
    }

    /// Rescheduling path (same processor): restores signatures, CSTs
    /// and the OT registers.
    pub fn restore_tx_state(&self, saved: SavedTx) {
        sync_op(&self.shared, self.core, |st| {
            st.restore_tx_state(self.core, saved)
        });
    }

    /// Unions a descheduled thread's saved signatures into the
    /// directory's summary signatures (`Sig` message).
    pub fn install_summary(&self, thread_id: usize, saved: &SavedTx) {
        sync_op(&self.shared, self.core, |st| {
            st.install_summary(self.core, thread_id, saved)
        });
    }

    /// Removes a thread from the directory summaries and recomputes
    /// them (thread rescheduled).
    pub fn remove_summary(&self, thread_id: usize) {
        sync_op(&self.shared, self.core, |st| {
            st.remove_summary(self.core, thread_id)
        });
    }

    /// Sets or clears this core's bit in the directory's Cores Summary
    /// register.
    pub fn set_descheduled(&self, descheduled: bool) {
        sync_op(&self.shared, self.core, |st| {
            if descheduled {
                st.l2.cores_summary.insert(self.core);
            } else {
                st.l2.cores_summary.remove(self.core);
            }
            st.charge_mem(self.core, st.config.l2_round_trip());
        });
    }

    /// This core's current clock (diagnostic; zero cost, no rendezvous).
    pub fn now(&self) -> u64 {
        now_op(&self.shared, self.core)
    }

    /// Executes a *software* side effect atomically at this core's
    /// current simulated time, ordered with every other core's
    /// operations.
    ///
    /// Runtimes need this for native cross-thread state (e.g. the OS
    /// conflict-management table): mutating such state in plain code
    /// between operations would let a core at simulated time T observe
    /// effects another core produced at simulated time T' > T. Wrapping
    /// the access in `with_sync` pins it to this core's clock so the
    /// deterministic schedule orders it like any memory operation.
    pub fn with_sync<R>(&self, f: impl FnOnce() -> R) -> R {
        sync_op(&self.shared, self.core, |_st| f())
    }
}
