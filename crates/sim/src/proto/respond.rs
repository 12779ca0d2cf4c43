//! Remote-L1 responder actions: threat tests against signatures and
//! tags, CST updates on both ends of a conflict edge, invalidations
//! (with alert-on-update delivery), and the strong-isolation abort
//! sweep for non-transactional writes (§3.5).

use super::msg::{AccessResult, Conflict, ConflictKind};
use crate::cache::{L1Slot, L1State};
use crate::core_state::AlertCause;
use crate::cst::{procs_in_mask, CstKind};
use crate::machine::SimState;
use crate::mem::Addr;
use crate::stats::Event;
use flextm_sig::{LineAddr, SigKey};

impl SimState {
    /// True if processor `o` must answer `Threatened` for the line
    /// behind `key`, given its already-peeked L1 state. Callers that
    /// have the state in hand anyway pass it in so the L1 is probed
    /// exactly once per responder; the signature and OT tests are
    /// gated on the activity masks so idle cores cost two bit tests.
    pub(super) fn threatens_with(&self, o: usize, l1_state: Option<L1State>, key: SigKey) -> bool {
        l1_state == Some(L1State::Tmi)
            || (self.sig_live_mask().contains(o) && self.cores[o].writes_line_key(key))
            || (self.ot_present_mask().contains(o)
                && self.cores[o]
                    .ot
                    .as_ref()
                    .is_some_and(|ot| !ot.is_committed() && ot.maybe_contains_key(key)))
    }

    /// TI legality (checker invariant, next to the threat test it
    /// mirrors): a TI snapshot of `line` exists only while some remote
    /// core still threatens it, or while the reader's own R-W CST
    /// records the (possibly already settled) conflict that justified
    /// it, or while summary signatures blur the picture (§5).
    #[cfg(any(test, feature = "check"))]
    pub(crate) fn check_threat_invariants(&self, line: LineAddr) {
        for (i, core) in self.cores.iter().enumerate() {
            if core.l1.peek(line).is_none_or(|e| e.state != L1State::Ti) {
                continue;
            }
            let threatened = self.cores.iter().enumerate().any(|(j, rc)| {
                j != i
                    && (rc.l1.peek(line).is_some_and(|e| e.state == L1State::Tmi)
                        || rc.writes_line(line)
                        || rc
                            .ot
                            .as_ref()
                            .is_some_and(|ot| !ot.is_committed() && ot.maybe_contains(line)))
            });
            assert!(
                threatened || core.csts.read(CstKind::RW) != 0 || self.l2.any_summary(),
                "core {i}: TI line {line:?} with no remote threat, no R-W \
                 record, and no summaries"
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn record_conflict(
        &mut self,
        me: usize,
        other: usize,
        requester_cst: CstKind,
        responder_cst: CstKind,
        kind: ConflictKind,
        line: LineAddr,
        result: &mut AccessResult,
    ) {
        self.cores[me].csts.set(requester_cst, other);
        self.cores[other].csts.set(responder_cst, me);
        match kind {
            ConflictKind::Threatened => self.cores[me].stats.threatened_seen += 1,
            ConflictKind::ExposedRead => self.cores[me].stats.exposed_seen += 1,
        }
        result.conflicts.push(Conflict { with: other, kind });
        self.log.push(Event::Conflict {
            requester: me,
            responder: other,
            requester_cst,
            line,
        });
    }

    /// Invalidates the line the caller's peek found at `slot` in `s`'s
    /// L1 (nothing, if the peek missed), firing AOU if marked.
    pub(super) fn invalidate_at(&mut self, s: usize, slot: Option<L1Slot>) {
        if let Some(slot) = slot {
            let mut entry = self.cores[s].l1.invalidate_slot(slot);
            let line = entry.line;
            if let Some(d) = entry.data.take() {
                self.cores[s].l1.retire_data(d);
            }
            if entry.a_bit {
                self.cores[s].post_alert(AlertCause::AouInvalidated(line));
                self.log.push(Event::Alert { core: s, line });
            }
            if self.cores[s].aloaded == Some(line) {
                self.cores[s].aloaded = None;
            }
        }
    }

    pub(super) fn strong_isolation_abort(
        &mut self,
        victim: usize,
        requester: usize,
        line: LineAddr,
        slot: Option<L1Slot>,
    ) {
        // The write is about to take exclusive ownership: any
        // non-speculative copy the victim holds must invalidate too.
        self.invalidate_at(victim, slot);
        self.cores[victim].hardware_abort();
        self.sync_core_masks(victim);
        self.cores[victim].stats.tx_aborts += 1;
        self.cores[victim]
            .stats
            .abort_causes
            .record(crate::stats::AbortCause::StrongIsolation);
        self.cores[victim].post_alert(AlertCause::StrongIsolation(line));
        self.log.push(Event::StrongIsolationAbort {
            victim,
            requester,
            line,
        });
        // The victim no longer holds any speculative claim on the line.
        let d = self.l2.dir_mut(line);
        d.owners.remove(victim);
        d.sharers.remove(victim);
    }

    /// Plain store hitting the local TMI copy: sweep remote
    /// transactional readers/writers (strong isolation) through the
    /// directory, then update both the speculative and committed views.
    pub(super) fn escape_store_tmi(&mut self, me: usize, addr: Addr, store_val: u64) -> u64 {
        let line = addr.line();
        let dir = self.l2.dir(line);
        let mut latency = self.config.l2_round_trip();
        let mut forwarded = false;
        let sweep = (dir.owners | dir.sharers).without(me);
        let key = (!sweep.is_empty()).then(|| self.sig_key(line));
        for o in procs_in_mask(sweep) {
            forwarded = true;
            let key = key.expect("sweep mask is non-empty");
            let slot = self.cores[o].l1.peek_slot(line);
            let l1_state = slot.map(|s| self.cores[o].l1.state(s));
            let transactional = self.threatens_with(o, l1_state, key)
                || (self.sig_live_mask().contains(o) && self.cores[o].reads_line_key(key));
            if transactional {
                self.strong_isolation_abort(o, me, line, slot);
            } else {
                if l1_state == Some(L1State::M) {
                    self.cores[o].stats.writebacks += 1;
                }
                self.invalidate_at(o, slot);
                self.l2.drop_sharer_key(key, o);
                self.l2.drop_owner_key(key, o);
            }
        }
        if forwarded {
            latency += self.config.forward_penalty();
        }
        let s = self.cores[me].l1.peek_slot(line).expect("TMI hit");
        self.cores[me].l1.data_mut(s).expect("TMI carries data")[addr.word_in_line()] = store_val;
        self.mem.write(addr, store_val);
        latency
    }
}
