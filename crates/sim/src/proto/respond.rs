//! Remote-L1 responder actions: the snoop every directory sweep opens
//! with (Fig. 1's response column), CST updates on both ends of a
//! conflict edge, invalidations (with alert-on-update delivery), and
//! the strong-isolation sweep for non-transactional writes (§3.5).

use super::msg::{AccessResult, Conflict, ConflictKind};
use crate::cache::{L1Slot, L1State};
use crate::core_state::AlertCause;
use crate::cst::{procs_in_mask, CstKind};
use crate::machine::SimState;
use crate::mem::Addr;
use crate::ot::OverflowTable;
use crate::stats::{AbortCause, Event};
use flextm_sig::{LineAddr, ProcSet, SigKey};

/// One responder's view of a forwarded request: its L1 copy, probed
/// exactly once, plus what [`SimState::threatens`] and
/// [`SimState::reads`] need to test its signatures on demand.
#[derive(Clone, Copy)]
pub(super) struct Snoop {
    core: usize,
    key: SigKey,
    pub(super) slot: Option<L1Slot>,
    pub(super) state: Option<L1State>,
}

/// The three conflict edges a request can draw to a responder (the
/// `Threatened` and `Exposed-Read` rows of Fig. 1's response table).
#[derive(Clone, Copy)]
pub(super) enum Edge {
    /// Local read, remote write: requester R-W, responder W-R.
    ReadVsWriter,
    /// Both wrote: W-W on both sides.
    WriteVsWriter,
    /// Local write, remote read: requester W-R, responder R-W.
    WriteVsReader,
}

impl SimState {
    pub(super) fn snoop(&self, core: usize, line: LineAddr, key: SigKey) -> Snoop {
        let slot = self.cores[core].l1.peek_slot(line);
        let state = slot.map(|s| self.cores[core].l1.state(s));
        Snoop {
            core,
            key,
            slot,
            state,
        }
    }

    /// `core`'s overflow table while it is still speculative (a
    /// committed one lingers only to NACK during copy-back).
    pub(super) fn live_ot(&self, core: usize) -> Option<&OverflowTable> {
        self.cores[core].ot.as_ref().filter(|ot| !ot.is_committed())
    }

    /// True if `core`'s live `Osig` may cover the line: a TMI copy
    /// displaced to the overflow table still threatens.
    pub(super) fn ot_threatens(&self, core: usize, key: SigKey) -> bool {
        self.live_ot(core)
            .is_some_and(|ot| ot.maybe_contains_key(key))
    }

    /// The responder's `Wsig` alone. Like [`SimState::reads`], gated on
    /// the activity mask so an idle core costs one bit test.
    pub(super) fn wsig_hit(&self, sn: &Snoop) -> bool {
        self.sig_live_mask().contains(sn.core) && self.cores[sn.core].writes_line_key(sn.key)
    }

    /// Fig. 1's first question: must the responder answer `Threatened`?
    /// Yes if it holds the line speculatively written in any form —
    /// resident TMI, a `Wsig` hit, or a TMI copy displaced to the OT.
    pub(super) fn threatens(&self, sn: &Snoop) -> bool {
        sn.state == Some(L1State::Tmi)
            || self.wsig_hit(sn)
            || (self.ot_present_mask().contains(sn.core) && self.ot_threatens(sn.core, sn.key))
    }

    /// Fig. 1's second question: does the responder's `Rsig` hit (an
    /// `Exposed-Read` for a writer, `Shared` for a reader)?
    pub(super) fn reads(&self, sn: &Snoop) -> bool {
        self.sig_live_mask().contains(sn.core) && self.cores[sn.core].reads_line_key(sn.key)
    }

    /// TI legality (checker invariant, next to the threat test it
    /// mirrors — and spelled out again instead of calling it, because
    /// the checker holds the handlers against this): a TI snapshot of
    /// `line` exists only while some remote core still threatens it, or
    /// while the reader's own R-W CST records the (possibly already
    /// settled) conflict that justified it, or while summary signatures
    /// blur the picture (§5). Only the `touched` cores can hold a
    /// snapshot or a threat.
    pub(crate) fn check_threat_invariants(&self, line: LineAddr, touched: ProcSet) {
        for i in touched {
            let core = &self.cores[i];
            if core.l1.peek(line).is_none_or(|e| e.state != L1State::Ti) {
                continue;
            }
            let threatened = touched.iter().any(|j| {
                let rc = &self.cores[j];
                j != i
                    && (rc.l1.peek(line).is_some_and(|e| e.state == L1State::Tmi)
                        || rc.wsig.contains(line)
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

    /// Draws `edge` between requester `me` and responder `other`: the
    /// CST bit on each side, the requester's response counter, the
    /// reported conflict and the event.
    pub(super) fn record_conflict(
        &mut self,
        me: usize,
        other: usize,
        edge: Edge,
        line: LineAddr,
        result: &mut AccessResult,
    ) {
        let (requester_cst, responder_cst, kind) = match edge {
            Edge::ReadVsWriter => (CstKind::RW, CstKind::WR, ConflictKind::Threatened),
            Edge::WriteVsWriter => (CstKind::WW, CstKind::WW, ConflictKind::Threatened),
            Edge::WriteVsReader => (CstKind::WR, CstKind::RW, ConflictKind::ExposedRead),
        };
        self.cores.unmarked(me).csts.set(requester_cst, other);
        self.cores.unmarked(other).csts.set(responder_cst, me);
        match kind {
            ConflictKind::Threatened => self.cores.unmarked(me).stats.threatened_seen += 1,
            ConflictKind::ExposedRead => self.cores.unmarked(me).stats.exposed_seen += 1,
        }
        result.conflicts.push(Conflict { with: other, kind });
        self.log.push(Event::Conflict {
            requester: me,
            responder: other,
            requester_cst,
            line,
        });
    }

    /// Invalidates the line the caller's snoop found at `slot` in `s`'s
    /// L1 (nothing, if the snoop missed), firing AOU if marked.
    pub(super) fn invalidate_at(&mut self, s: usize, slot: Option<L1Slot>) {
        if let Some(slot) = slot {
            let mut entry = self.cores.unmarked(s).l1.invalidate_slot(slot);
            let line = entry.line;
            if let Some(d) = entry.data.take() {
                self.cores.unmarked(s).l1.retire_data(d);
            }
            if entry.a_bit {
                self.cores
                    .unmarked(s)
                    .post_alert(AlertCause::AouInvalidated(line));
                self.log.push(Event::Alert { core: s, line });
            }
            if self.cores[s].aloaded == Some(line) {
                self.cores.unmarked(s).aloaded = None;
            }
        }
    }

    fn strong_isolation_abort(
        &mut self,
        victim: usize,
        requester: usize,
        line: LineAddr,
        slot: Option<L1Slot>,
    ) {
        // The write is about to take exclusive ownership: any
        // non-speculative copy the victim holds must invalidate too.
        self.invalidate_at(victim, slot);
        self.kill(victim, AbortCause::StrongIsolation);
        self.cores
            .unmarked(victim)
            .post_alert(AlertCause::StrongIsolation(line));
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

    /// A non-transactional write by `me` reaches every core in `mask`
    /// (§3.5 strong isolation): a transactional reader or writer of the
    /// line is aborted, anyone else just loses its copy. Returns the
    /// forwarding latency.
    pub(super) fn nontx_write_sweep(
        &mut self,
        me: usize,
        line: LineAddr,
        key: SigKey,
        mask: ProcSet,
    ) -> u64 {
        for o in procs_in_mask(mask) {
            let sn = self.snoop(o, line, key);
            if self.threatens(&sn) || self.reads(&sn) {
                self.strong_isolation_abort(o, me, line, sn.slot);
            } else {
                if sn.state == Some(L1State::M) {
                    self.cores.unmarked(o).stats.writebacks += 1;
                }
                self.invalidate_at(o, sn.slot);
                self.l2.drop_sharer_key(key, o);
                self.l2.drop_owner_key(key, o);
            }
        }
        if mask.is_empty() {
            0
        } else {
            self.config.forward_penalty()
        }
    }

    /// Plain store hitting the local TMI copy: sweep remote
    /// transactional readers/writers (strong isolation) through the
    /// directory, then update both the speculative and committed views.
    pub(super) fn escape_store_tmi(&mut self, me: usize, addr: Addr, store_val: u64) -> u64 {
        let line = addr.line();
        let dir = self.l2.dir(line);
        let sweep = (dir.owners | dir.sharers).without(me);
        let forward = self.nontx_write_sweep(me, line, self.sig_key(line), sweep);
        let s = self.cores[me].l1.peek_slot(line).expect("TMI hit");
        self.cores
            .unmarked(me)
            .l1
            .data_mut(s)
            .expect("TMI carries data")[addr.word_in_line()] = store_val;
        self.mem.write(addr, store_val);
        self.config.l2_round_trip() + forward
    }
}
