//! The composite instructions layered on the access path: plain CAS,
//! CAS-Commit (§3.6), the explicit abort, and ALoad (§3.4).

use super::msg::{AccessKind, AccessResult, CasCommitOutcome};
use crate::core_state::AlertCause;
use crate::machine::SimState;
use crate::mem::Addr;
use crate::stats::{AbortCause, Event};

impl SimState {
    /// Plain atomic compare-and-swap (the instruction transactions use
    /// to abort each other's status words). Returns the old value.
    pub fn cas(&mut self, me: usize, addr: Addr, expected: u64, new: u64) -> (u64, AccessResult) {
        // `access` marks `me`.
        let old = self.peek_word(addr);
        let store_val = if old == expected { new } else { old };
        let result = self.access(me, addr, AccessKind::Store, store_val);
        (old, result)
    }

    /// Reads a word with full architectural semantics but zero timing
    /// (used inside composite instructions).
    fn peek_word(&self, addr: Addr) -> u64 {
        // The committed value is authoritative for non-speculative data
        // such as TSWs; TSWs are never TStored.
        self.mem.read(addr)
    }

    /// The CAS-Commit instruction (§3.6): atomically swap the TSW and
    /// flash-commit or revert the speculative state.
    ///
    /// Protocol refinement (pinned by tests): on a failure because
    /// `W-R|W-W != 0` the speculative state is *retained* (the lazy
    /// `Commit()` loop of Fig. 3 re-runs and commits it); only a
    /// failure due to a changed TSW (the transaction was aborted)
    /// reverts speculative lines.
    pub fn cas_commit(
        &mut self,
        me: usize,
        tsw: Addr,
        expected: u64,
        new: u64,
    ) -> CasCommitOutcome {
        self.cores.mark(me);
        let old = self.peek_word(tsw);
        if old != expected {
            // Aborted remotely: revert speculative state. The abort and
            // the failed commit each get a LostTsw attribution (the
            // cause-sum invariant pairs every base increment with
            // exactly one cause increment).
            let _ = self.access(me, tsw, AccessKind::Load, 0);
            self.kill(me, AbortCause::LostTsw);
            self.clear_aou(me);
            self.commit_failed(me, AbortCause::LostTsw);
            return CasCommitOutcome::LostTsw(old);
        }
        if self.cores[me].csts.has_write_conflicts() {
            let (_, wr, ww) = self.cores[me].csts.snapshot();
            self.commit_failed(me, AbortCause::CommitConflicts);
            return CasCommitOutcome::ConflictsPending { wr, ww };
        }

        // Success: swap the TSW through the normal exclusive path…
        let _ = self.access(me, tsw, AccessKind::Store, new);
        // …then flash-commit all speculative state.
        let mut committed = std::mem::take(&mut self.commit_scratch);
        self.cores.unmarked(me).l1.flash_commit_into(&mut committed);
        let mut lines = committed.len();
        for (l, data) in committed.drain(..) {
            self.mem.write_line(l, &data);
            self.cores.unmarked(me).l1.retire_data(data);
        }
        self.commit_scratch = committed;
        let now = self.now(me);
        let per_line = self.config.ot_copyback_per_line;
        if let Some(ot) = self.cores.unmarked(me).ot.as_mut() {
            if !ot.is_empty() {
                let drained = ot.begin_commit(now, per_line);
                lines += drained.len();
                for (l, e) in drained {
                    self.mem.write_line(l, &e.data);
                    self.cores.unmarked(me).l1.retire_data(e.data);
                }
            } else {
                // Lookups may have emptied the OT while the no-delete
                // Osig kept its bits. The transaction is over, so
                // retire the table outright (mirroring abort's
                // `ot.take()`) — otherwise the next transaction
                // inherits the stale Osig and `threatens` reports
                // phantom co-writers.
                self.cores.unmarked(me).ot = None;
            }
        }
        let core = self.cores.unmarked(me);
        core.rsig.clear();
        core.wsig.clear();
        core.csts.clear_all();
        self.sync_core_masks(me);
        self.clear_aou(me);
        self.cores.unmarked(me).stats.commits += 1;
        // The attempt committed: its work/mem cycles were well spent,
        // so drop the wasted-cycle mark instead of reclassifying.
        self.clear_attempt_mark(me);
        self.log.push(Event::CasCommit {
            core: me,
            success: true,
        });
        self.maybe_check_invariants();
        CasCommitOutcome::Committed(lines)
    }

    fn commit_failed(&mut self, me: usize, cause: AbortCause) {
        let stats = &mut self.cores.unmarked(me).stats;
        stats.failed_commits += 1;
        stats.abort_causes.record(cause);
        self.log.push(Event::CasCommit {
            core: me,
            success: false,
        });
        self.maybe_check_invariants();
    }

    /// The explicit abort instruction: revert TMI/TI, clear signatures,
    /// CSTs and the AOU mark, discard a speculative OT, and record
    /// `cause` in the abort-attribution counters. Work/mem cycles
    /// accrued since [`SimState::begin_attempt`] are reclassified into
    /// `wasted_cycles`.
    pub fn abort_tx(&mut self, me: usize, cause: AbortCause) -> usize {
        self.cores.mark(me);
        let dropped = self.kill(me, cause);
        self.clear_aou(me);
        self.cores.unmarked(me).alert_pending = None;
        self.log.push(Event::TxAbort { core: me, cause });
        self.charge_mem(me, self.config.l1_latency);
        self.abandon_attempt(me);
        self.maybe_check_invariants();
        dropped
    }

    /// What every abort does, whoever ordered it: the hardware abort
    /// (TMI/TI lines, signatures, CSTs and a speculative OT all go), the
    /// activity masks, and one `tx_aborts` with its `cause`. Returns the
    /// number of speculative lines dropped.
    pub(super) fn kill(&mut self, core: usize, cause: AbortCause) -> usize {
        let c = self.cores.unmarked(core);
        let dropped = c.hardware_abort();
        c.stats.tx_aborts += 1;
        c.stats.abort_causes.record(cause);
        self.sync_core_masks(core);
        dropped
    }

    /// Drops the AOU mark and its A bit (the transaction is over or
    /// descheduled).
    pub(crate) fn clear_aou(&mut self, me: usize) {
        if let Some(line) = self.cores.unmarked(me).aloaded.take() {
            if let Some(s) = self.cores[me].l1.peek_slot(line) {
                self.cores.unmarked(me).l1.set_a_bit(s, false);
            }
        }
    }

    /// The ALoad instruction (§3.4): cache the line and mark it so any
    /// remote invalidation alerts this core.
    pub fn aload(&mut self, me: usize, addr: Addr) -> u64 {
        self.cores.mark(me);
        let line = addr.line();
        self.clear_aou(me);
        // One slot lookup covers presence test, value read and the
        // A-bit write; only a miss re-probes after the fill.
        let slot = match self.cores[me].l1.peek_slot(line) {
            Some(s) => {
                self.charge_mem(me, self.config.l1_latency);
                Some(s)
            }
            None => {
                let _ = self.access(me, addr, AccessKind::Load, 0);
                self.cores[me].l1.peek_slot(line)
            }
        };
        if let Some(s) = slot {
            let value = self.cores[me].l1.data(s).map(|d| d[addr.word_in_line()]);
            let core = self.cores.unmarked(me);
            core.l1.set_a_bit(s, true);
            core.aloaded = Some(line);
            value.unwrap_or_else(|| self.mem.read(addr))
        } else {
            // The line would not cache (e.g. threatened): fall back to
            // an immediate alert so software revalidates — conservative
            // but safe.
            let value = self.mem.read(addr);
            self.cores
                .unmarked(me)
                .post_alert(AlertCause::AouInvalidated(line));
            value
        }
    }
}
