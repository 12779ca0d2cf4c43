//! The L2/directory side: GETS/GETX/TGETX handlers that walk the
//! sharer/owner lists, collect responses, and rebuild directory state
//! lost to L2 evictions (paper §4.1's sticky-bit analogue).

use super::msg::{AccessKind, AccessResult, Conflict, ConflictKind};
use super::respond::Edge;
use crate::cache::L1State;
use crate::cst::{procs_in_mask, CstKind};
use crate::machine::{Holders, SimState};
use crate::mem::Addr;
use flextm_sig::{LineAddr, SigKey};

impl SimState {
    /// Rebuilds a directory entry by querying every L1's signatures and
    /// tags (the price of losing directory info to an L2 eviction).
    /// Every L1 answers for its tags; the signature and OT tests visit
    /// only the cores the activity masks name — a core whose bit is
    /// clear provably has empty signatures / no OT.
    pub(super) fn recreate_dir(&self, key: SigKey) -> crate::l2::DirEntry {
        let line = key.line();
        let mut entry = crate::l2::DirEntry::default();
        for (i, core) in self.cores.iter().enumerate() {
            debug_assert!(
                !core.has_tx_footprint() || self.sig_live_mask().contains(i),
                "sig_live mask dropped core {i} with live signatures"
            );
            match core.l1.peek(line).map(|e| e.state) {
                Some(L1State::M | L1State::E | L1State::Tmi) => entry.owners.insert(i),
                Some(L1State::S | L1State::Ti) => entry.sharers.insert(i),
                None => {}
            }
        }
        for i in procs_in_mask(self.sig_live_mask()) {
            if self.cores[i].writes_line_key(key) {
                entry.owners.insert(i);
            }
            if self.cores[i].reads_line_key(key) {
                entry.sharers.insert(i);
            }
        }
        for i in procs_in_mask(self.ot_present_mask()) {
            if self.ot_threatens(i, key) {
                entry.owners.insert(i);
            }
        }
        entry
    }

    /// Directory coverage (checker invariant, next to the handlers that
    /// maintain the bits): while the L2 still has (possibly stale) info
    /// for `line`, L1 residency implies the matching over-approximate
    /// directory bit — M/E/TMI holders appear as owners, S/TI holders
    /// as sharers. The reverse is deliberately unchecked: stale bits
    /// are the design (§4.1). Judged from the sweep's gathered
    /// `holders`, which read tags directly, not through the handlers'
    /// snoop: this is the reference they are held against. The
    /// lowest-numbered holder the directory misses is named.
    pub(crate) fn check_directory_invariants(&self, line: LineAddr, holders: &Holders) {
        let Some(dir) = self.l2.dir_info(line) else {
            return;
        };
        let unlisted = (holders.exclusive | holders.tmi).minus(dir.owners)
            | (holders.shared | holders.ti).minus(dir.sharers);
        let Some(i) = unlisted.iter().next() else {
            return;
        };
        let state = self.cores[i]
            .l1
            .peek(line)
            .expect("a gathered holder")
            .state;
        match state {
            L1State::M | L1State::E | L1State::Tmi => assert!(
                dir.owners.contains(i),
                "line {line:?}: core {i} holds {state:?} but is not a \
                 directory owner ({:?})",
                dir.owners
            ),
            L1State::S | L1State::Ti => assert!(
                dir.sharers.contains(i),
                "line {line:?}: core {i} holds {state:?} but is not a \
                 directory sharer ({:?})",
                dir.sharers
            ),
        }
    }

    /// Turns `o`'s owner bit into a sharer bit: an exclusive owner
    /// downgraded to S, or stickiness (§4.1) — the exclusive copy is
    /// gone but `o`'s transaction still *reads* the line, and a later
    /// write must still find it to abort or conflict with it, so the
    /// stale bit demotes instead of dropping coverage.
    fn demote_owner(&mut self, line: LineAddr, o: usize) {
        let d = self.l2.dir_mut(line);
        d.owners.remove(o);
        d.sharers.insert(o);
    }

    /// Tracks `me` as an owner of `line`. Any stale sharer bit from an
    /// earlier cached read must go — a core listed in both sets would
    /// get its copy invalidated by sharer sweeps that owner handling
    /// already decided to preserve.
    fn make_owner(&mut self, line: LineAddr, me: usize) {
        let d = self.l2.dir_mut(line);
        d.owners.insert(me);
        d.sharers.remove(me);
    }

    pub(super) fn handle_gets(
        &mut self,
        me: usize,
        addr: Addr,
        kind: AccessKind,
        key: SigKey,
        result: &mut AccessResult,
    ) -> u64 {
        let line = addr.line();
        let dir = self.l2.dir(line);
        let mut latency = 0;
        let mut forwarded = false;
        let mut threatened = false;

        for o in procs_in_mask(dir.owners.without(me)) {
            let sn = self.snoop(o, line, key);
            if let (Some(slot), Some(L1State::M | L1State::E)) = (sn.slot, sn.state) {
                // Exclusive owner downgrades to S (M additionally
                // flushes); both end up sharers.
                forwarded = true;
                if sn.state == Some(L1State::M) {
                    self.cores.unmarked(o).stats.writebacks += 1;
                }
                self.cores.unmarked(o).l1.set_state(slot, L1State::S);
                self.demote_owner(line, o);
            } else if self.threatens(&sn) {
                forwarded = true;
                threatened = true;
                if kind.is_tx() {
                    self.record_conflict(me, o, Edge::ReadVsWriter, line, result);
                } else {
                    self.cores.unmarked(me).stats.threatened_seen += 1;
                    result.conflicts.push(Conflict {
                        with: o,
                        kind: ConflictKind::Threatened,
                    });
                }
            } else if self.reads(&sn) {
                // The exclusive copy is gone (silent eviction) but the
                // owner's transaction still reads the line.
                forwarded = true;
                self.demote_owner(line, o);
            } else {
                // Stale owner bit (committed/aborted long ago).
                self.l2.drop_owner_key(key, o);
            }
        }
        if forwarded {
            latency += self.config.forward_penalty();
        }

        // A write-summary hit means a *descheduled* transaction has
        // speculatively written this line: the L2 responds Threatened on
        // the hardware's behalf, so the reader caches in TI (never S) —
        // otherwise a stale S copy would survive the suspended writer's
        // eventual commit (§5).
        let threatened = threatened || !result.summary_hits.is_empty();
        if kind.is_tx() && !result.summary_hits.is_empty() {
            // The trap handler records the conflict in the running
            // transaction's R-W CST, conservatively against every
            // processor holding a descheduled transaction — the summary
            // only names thread ids, and R-W never blocks a commit or
            // aborts anyone, so signature-grade imprecision is safe.
            // Without this the TI snapshot below would outlive its
            // justification the moment the OS retires the summary.
            // (A conflict with a transaction descheduled from *this*
            // processor cannot be named — CSTs have no self bit — and
            // stays justified by the summary regime instead.)
            for o in procs_in_mask(self.l2.cores_summary.without(me)) {
                self.cores.unmarked(me).csts.set(CstKind::RW, o);
            }
        }

        result.value = self.mem.read(addr);
        match kind {
            AccessKind::TLoad => {
                let fill_state = if threatened { L1State::Ti } else { L1State::S };
                // Snapshot the committed value: it must stay readable
                // even if the remote writer commits first.
                let data = threatened.then(|| self.committed_copy(me, line));
                // Upgrade-in-place never happens for TLoad misses (any
                // cached state would have hit), so fill directly.
                latency += self.fill_line(me, line, fill_state, data).1;
                self.l2.dir_mut(line).sharers.insert(me);
            }
            AccessKind::Load => {
                if !threatened && self.cores[me].l1.peek(line).is_none() {
                    let dir_now = self.l2.dir(line);
                    let alone = dir_now.sharers.without(me).is_empty()
                        && dir_now.owners.without(me).is_empty();
                    if alone {
                        // Exclusive grant: track as owner (E silently
                        // upgrades to M).
                        latency += self.fill_line(me, line, L1State::E, None).1;
                        self.make_owner(line, me);
                    } else {
                        latency += self.fill_line(me, line, L1State::S, None).1;
                        self.l2.dir_mut(line).sharers.insert(me);
                    }
                }
                // Threatened ⇒ the non-transactional read stays
                // uncached (§3.5): value comes from memory, no fill.
            }
            _ => unreachable!("handle_gets only serves loads"),
        }
        latency
    }

    pub(super) fn handle_getx(
        &mut self,
        me: usize,
        addr: Addr,
        store_val: u64,
        key: SigKey,
        result: &mut AccessResult,
    ) -> u64 {
        let line = addr.line();
        let dir = self.l2.dir(line);
        let sweep = (dir.owners | dir.sharers).without(me);
        let mut latency = self.nontx_write_sweep(me, line, key, sweep);

        // Acquire M locally (upgrade in place if we held S/E/TI),
        // recycling any snapshot buffer the upgraded entry carried.
        let prev_data = match self.cores[me].l1.peek_slot(line) {
            Some(s) => {
                self.cores.unmarked(me).l1.set_state(s, L1State::M);
                self.cores.unmarked(me).l1.take_data(s)
            }
            None => {
                latency += self.fill_line(me, line, L1State::M, None).1;
                None
            }
        };
        if let Some(d) = prev_data {
            self.cores.unmarked(me).l1.retire_data(d);
        }
        self.make_owner(line, me);
        self.mem.write(addr, store_val);
        result.value = store_val;
        latency
    }

    /// TGETX: a transactional write. Speculative co-writers keep their
    /// TMI copies (multiple owners) and both sides record W-W.
    ///
    /// Protocol refinement (pinned by tests): a `Threatened` response
    /// also reports an `Exposed-Read` hit when both of the responder's
    /// signatures match, so both CST pairs get set in one round trip.
    pub(super) fn handle_tgetx(
        &mut self,
        me: usize,
        addr: Addr,
        store_val: u64,
        key: SigKey,
        result: &mut AccessResult,
    ) -> u64 {
        let line = addr.line();
        let dir = self.l2.dir(line);
        let mut latency = 0;
        let mut forwarded = false;

        for o in procs_in_mask(dir.owners.without(me)) {
            let sn = self.snoop(o, line, key);
            if matches!(sn.state, Some(L1State::M | L1State::E)) {
                // Exclusive owner: flush (if dirty) + invalidate. If it
                // also *read* the line transactionally, record the
                // Exposed-Read and keep it sticky as a sharer so later
                // requests (e.g. a strong-isolation store) still reach
                // it. This branch deliberately precedes the threat test:
                // a resident M/E copy means the line is *not* written by
                // o's current transaction (a TStore would have made it
                // TMI), so a signature or stale-Osig hit must not spare
                // the committed copy — that would leave two M/E holders
                // once the requester commits.
                forwarded = true;
                if sn.state == Some(L1State::M) {
                    self.cores.unmarked(o).stats.writebacks += 1;
                }
                self.invalidate_at(o, sn.slot);
                if self.reads(&sn) {
                    self.demote_owner(line, o);
                    self.record_conflict(me, o, Edge::WriteVsReader, line, result);
                } else {
                    self.l2.dir_mut(line).owners.remove(o);
                }
            } else if self.threatens(&sn) {
                // Speculative co-writer (resident TMI, or a displaced
                // TMI living in the overflow table): both record W-W;
                // the owner retains its speculative copy (multiple
                // owners).
                forwarded = true;
                self.record_conflict(me, o, Edge::WriteVsWriter, line, result);
                if self.reads(&sn) {
                    // Piggybacked Exposed-Read: they also read it.
                    self.record_conflict(me, o, Edge::WriteVsReader, line, result);
                }
            } else if self.reads(&sn) {
                // Stale owner bit but a live transactional reader:
                // conflict + sticky demotion to sharer.
                forwarded = true;
                self.demote_owner(line, o);
                self.record_conflict(me, o, Edge::WriteVsReader, line, result);
            } else {
                self.l2.drop_owner_key(key, o);
            }
        }

        for s in procs_in_mask(dir.sharers.without(me)) {
            // A TMI holder reached through a stale sharer bit is a
            // co-writer the owner loop already handled; invalidating it
            // here would silently destroy its speculative data.
            let sn = self.snoop(s, line, key);
            if sn.state == Some(L1State::Tmi) {
                continue;
            }
            forwarded = true;
            let reads = self.reads(&sn);
            if reads {
                self.record_conflict(me, s, Edge::WriteVsReader, line, result);
            }
            let writes = self.wsig_hit(&sn);
            if writes && !dir.owners.contains(s) {
                // Writer whose line was silently displaced: still W-W.
                self.record_conflict(me, s, Edge::WriteVsWriter, line, result);
            }
            self.invalidate_at(s, sn.slot);
            // Stickiness (§4.1 rationale): a transactional reader whose
            // copy we just invalidated must keep receiving coherence
            // requests for this line — a later non-transactional write
            // still has to find and abort it. Only non-transactional
            // sharers are dropped.
            if !(reads || writes) {
                self.l2.drop_sharer_key(key, s);
            }
        }
        if forwarded {
            latency += self.config.forward_penalty();
        }

        // Become a (possibly additional) owner with speculative data.
        match self.cores[me].l1.peek_slot(line) {
            Some(s) => self.go_speculative(me, s, addr, store_val),
            None => {
                let mut data = self.committed_copy(me, line);
                data[addr.word_in_line()] = store_val;
                latency += self.fill_line(me, line, L1State::Tmi, Some(data)).1;
            }
        }
        self.make_owner(line, me);
        result.value = store_val;
        latency
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MachineConfig;
    use crate::machine::SimState;
    use crate::mem::Addr;
    use crate::proto::AccessKind;

    const A: u64 = 0x1000;

    /// The invariant sweep's kill list for directory coverage: one
    /// directory bit dropped under a resident copy.
    #[test]
    #[should_panic(expected = "line LineAddr(64): core 0 holds M but is not a directory owner")]
    fn owner_bit_dropped() {
        let mut st = SimState::for_tests(MachineConfig::small_test());
        st.access(0, Addr::new(A), AccessKind::Store, 1);
        st.l2.dir_mut(Addr::new(A).line()).owners.remove(0);
        st.check_invariants();
    }

    #[test]
    #[should_panic(expected = "line LineAddr(64): core 1 holds S but is not a directory sharer")]
    fn sharer_bit_dropped() {
        let mut st = SimState::for_tests(MachineConfig::small_test());
        st.access(0, Addr::new(A), AccessKind::Load, 0);
        st.access(1, Addr::new(A), AccessKind::Load, 0);
        st.l2.dir_mut(Addr::new(A).line()).sharers.remove(1);
        st.check_invariants();
    }
}
