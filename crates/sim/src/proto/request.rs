//! The requester side of every memory access: L1 probe and in-place
//! transitions, the overflow-table lookaside, and dispatch of true
//! misses to the L2/directory handlers.

use super::msg::{AccessKind, AccessResult};
use crate::cache::{Evicted, L1Slot, L1State};
use crate::core_state::AlertCause;
use crate::cst::procs_in_mask;
use crate::machine::SimState;
use crate::mem::{Addr, WORDS_PER_LINE};
use crate::ot::OverflowTable;
use crate::stats::Event;
use flextm_sig::{LineAddr, SigKey};

impl SimState {
    /// Installs `line` in `me`'s L1, spilling whatever gets displaced.
    /// Returns a handle to the new entry plus the extra latency incurred
    /// by write-backs / OT traps. (The eviction handling below touches
    /// no L1 structure, so the handle stays valid.)
    pub(super) fn fill_line(
        &mut self,
        me: usize,
        line: LineAddr,
        state: L1State,
        data: Option<Box<[u64; WORDS_PER_LINE]>>,
    ) -> (L1Slot, u64) {
        let (slot, evicted) = self.cores.unmarked(me).l1.fill_slot(line, state);
        if let Some(d) = data {
            let displaced = self.cores.unmarked(me).l1.put_data(slot, d);
            debug_assert!(displaced.is_none(), "fresh fill already carried data");
        }
        (slot, evicted.map_or(0, |ev| self.displaced(me, ev)))
    }

    /// What a line leaving `me`'s L1 costs and causes: an M line
    /// writes back, a TMI line spills to the overflow table, anything
    /// else leaves silently (the directory deliberately keeps its stale
    /// bits, §4.1). Returns the latency charged.
    fn displaced(&mut self, me: usize, ev: Evicted) -> u64 {
        let (line, a_bit, latency) = match ev {
            Evicted::Silent(l, _, a_bit) => (l, a_bit, 0),
            Evicted::WritebackM(l, a_bit) => {
                self.cores.unmarked(me).stats.writebacks += 1;
                (l, a_bit, self.config.l2_latency)
            }
            Evicted::OverflowTmi(l, d) => return self.overflow_tmi(me, l, d),
        };
        if a_bit {
            // Conservative AOU: losing the marked line must alert, or a
            // remote write could go unnoticed.
            self.cores
                .unmarked(me)
                .post_alert(AlertCause::AouInvalidated(line));
        }
        latency
    }

    /// Makes sure `me` has a live overflow table to spill into,
    /// allocating one (via the modelled software trap) if it has none
    /// or only a committed one still copying back. Returns the trap
    /// latency.
    pub(crate) fn ensure_ot(&mut self, me: usize) -> u64 {
        self.mark_ot_present(me);
        if self.live_ot(me).is_some() {
            return 0;
        }
        self.cores.unmarked(me).ot = Some(OverflowTable::new(self.config.signature.clone()));
        self.config.ot_alloc_trap_latency
    }

    /// Spills a TMI line to the overflow table. Returns the latency
    /// charged.
    fn overflow_tmi(&mut self, me: usize, line: LineAddr, data: Box<[u64; WORDS_PER_LINE]>) -> u64 {
        let trap = self.ensure_ot(me);
        let ot = self
            .cores
            .unmarked(me)
            .ot
            .as_mut()
            .expect("OT allocated above");
        ot.insert(line, data);
        self.cores.unmarked(me).stats.overflows += 1;
        self.log.push(Event::Overflow { core: me, line });
        trap + self.config.l2_latency // controller write-back to VM
    }

    /// Forcibly evicts `line` from `me`'s L1, as if a conflicting fill
    /// had displaced it (same consequences as the capacity path in
    /// [`SimState::fill_line`]). The model checker uses this to fold
    /// eviction/overflow interleavings into the explored space without
    /// having to engineer set conflicts. No-op if the line is not
    /// resident; returns true if something was evicted.
    pub fn evict_line(&mut self, me: usize, line: LineAddr) -> bool {
        self.cores.mark(me);
        let Some(entry) = self.cores.unmarked(me).l1.invalidate(line) else {
            return false;
        };
        let ev = self.cores.unmarked(me).l1.classify_eviction(entry);
        let latency = self.config.l1_latency + self.displaced(me, ev);
        self.charge_mem(me, latency);
        self.maybe_check_invariants();
        true
    }

    /// A fresh line buffer holding `line`'s committed contents: the
    /// snapshot a TI copy keeps, and what a TMI copy starts from.
    pub(super) fn committed_copy(
        &mut self,
        me: usize,
        line: LineAddr,
    ) -> Box<[u64; WORDS_PER_LINE]> {
        let mut d = self.cores.unmarked(me).l1.alloc_data();
        *d = self.mem.read_line(line);
        d
    }

    /// Turns the resident copy at `slot` speculative in place: TMI,
    /// carrying the committed line with `value` patched in.
    ///
    /// Inlined by measurement, like `request` is kept out of line by
    /// one: as a call from the two L1-hit arms of `access` it cost
    /// `ht-1t` about 2 % (EXPERIMENTS.md "Measurement history", PR 20).
    #[inline(always)]
    pub(super) fn go_speculative(&mut self, me: usize, slot: L1Slot, addr: Addr, value: u64) {
        let line = addr.line();
        let mut d = self.committed_copy(me, line);
        d[addr.word_in_line()] = value;
        self.cores.unmarked(me).l1.set_state(slot, L1State::Tmi);
        // A TI copy upgrading hands its snapshot buffer back.
        if let Some(old) = self.cores.unmarked(me).l1.put_data(slot, d) {
            self.cores.unmarked(me).l1.retire_data(old);
        }
        self.cores.unmarked(me).l1.note_speculative(line);
    }

    /// Executes one memory access for core `me`. `store_val` is written
    /// on `Store`/`TStore` and ignored otherwise.
    pub fn access(
        &mut self,
        me: usize,
        addr: Addr,
        kind: AccessKind,
        store_val: u64,
    ) -> AccessResult {
        self.cores.mark(me);
        let line = addr.line();
        match kind {
            AccessKind::Load => self.cores.unmarked(me).stats.loads += 1,
            AccessKind::Store => self.cores.unmarked(me).stats.stores += 1,
            AccessKind::TLoad => self.cores.unmarked(me).stats.tloads += 1,
            AccessKind::TStore => self.cores.unmarked(me).stats.tstores += 1,
        }

        // Hash the line exactly once per access. Plain accesses only pay
        // for it when a signature will actually be consulted (FlexWatcher
        // active, or later on the miss path).
        let mut key: Option<SigKey> = match kind {
            AccessKind::TLoad | AccessKind::TStore => Some(self.sig_key(line)),
            AccessKind::Load if self.cores[me].watch_reads => Some(self.sig_key(line)),
            AccessKind::Store if self.cores[me].watch_writes => Some(self.sig_key(line)),
            _ => None,
        };

        // FlexWatcher (§8): activated signatures screen local accesses.
        if kind == AccessKind::Load && self.cores[me].watch_reads {
            let k = key.expect("key computed for watched loads");
            if self.cores[me].rsig.contains_key(k) {
                self.cores
                    .unmarked(me)
                    .post_alert(AlertCause::WatchRead(addr));
            }
        }
        if kind == AccessKind::Store && self.cores[me].watch_writes {
            let k = key.expect("key computed for watched stores");
            if self.cores[me].wsig.contains_key(k) {
                self.cores
                    .unmarked(me)
                    .post_alert(AlertCause::WatchWrite(addr));
            }
        }

        let mut latency = self.config.l1_latency;
        let mut result = AccessResult::default();

        // Transactional accesses update the access signatures up front.
        if kind == AccessKind::TLoad {
            self.cores
                .unmarked(me)
                .rsig
                .insert_key(key.expect("key computed for TLoad"));
            self.mark_sig_live(me);
        } else if kind == AccessKind::TStore {
            self.cores
                .unmarked(me)
                .wsig
                .insert_key(key.expect("key computed for TStore"));
            self.mark_sig_live(me);
        }

        let slot = self.cores.unmarked(me).l1.probe_slot(line);
        let state = slot.map(|s| self.cores[me].l1.state(s));
        let served_locally = match (kind, state) {
            // ------- local hits -------
            (AccessKind::Load, Some(s)) if s.readable() => true,
            (AccessKind::Load, Some(L1State::Tmi)) => true, // own speculative data
            (AccessKind::TLoad, Some(_)) => true,           // every TMESI state serves TLoad
            (AccessKind::Store, Some(L1State::M)) => {
                self.mem.write(addr, store_val);
                true
            }
            (AccessKind::Store, Some(L1State::E)) => {
                // Silent E→M upgrade.
                self.cores
                    .unmarked(me)
                    .l1
                    .set_state(slot.expect("probed"), L1State::M);
                self.mem.write(addr, store_val);
                true
            }
            (AccessKind::Store, Some(L1State::Tmi)) => {
                // A plain (escape) store to a locally speculative line
                // updates both views: the speculative buffer (so the
                // transaction keeps reading it) and committed memory
                // (so the non-transactional write survives an abort).
                // Unlike M/E hits it is NOT purely local: TMI coexists
                // with remote transactional readers by design, and a
                // non-transactional write must still abort them (§3.5).
                latency += self.escape_store_tmi(me, addr, store_val);
                true
            }
            (AccessKind::TStore, Some(L1State::Tmi)) => {
                self.cores
                    .unmarked(me)
                    .l1
                    .data_mut(slot.expect("probed"))
                    .expect("TMI carries data")[addr.word_in_line()] = store_val;
                true
            }
            (AccessKind::TStore, Some(L1State::M)) => {
                // First TStore to an M line: write the committed version
                // back to L2 so later Loads elsewhere see it, then go
                // speculative in place.
                self.cores.unmarked(me).stats.writebacks += 1;
                latency += self.config.l2_latency;
                self.go_speculative(me, slot.expect("probed"), addr, store_val);
                true
            }
            (AccessKind::TStore, Some(L1State::E)) => {
                // E→TMI is silent: the directory already forwards all
                // requests to the exclusive owner.
                self.go_speculative(me, slot.expect("probed"), addr, store_val);
                true
            }
            _ => false,
        };

        if served_locally {
            self.cores.unmarked(me).stats.l1_hits += 1;
            result.value = match kind {
                AccessKind::Store | AccessKind::TStore => store_val,
                // We just probed: read through the slot handle instead
                // of a second full L1 lookup.
                _ => match self.cores[me].l1.data(slot.expect("probed")) {
                    Some(d) => d[addr.word_in_line()],
                    None => self.mem.read(addr),
                },
            };
            self.charge_mem(me, latency);
            self.maybe_check_invariants();
            return result;
        }

        // ------- L1 miss path -------
        self.cores.unmarked(me).stats.l1_misses += 1;

        // Every miss consults signatures from here on; make sure the
        // line is hashed (plain unwatched accesses deferred it).
        let key = *key.get_or_insert_with(|| self.sig_key(line));

        // Local overflow-table lookaside (§4.1): an overflowed TMI line
        // is still ours; fetch it back instead of asking the directory.
        debug_assert!(
            self.cores[me].ot.is_none() || self.ot_present_mask().contains(me),
            "ot_present mask lost core {me}"
        );
        if self.ot_threatens(me, key) {
            if let Some(entry) = self
                .cores
                .unmarked(me)
                .ot
                .as_mut()
                .expect("checked above")
                .lookup(line)
            {
                self.cores.unmarked(me).stats.ot_hits += 1;
                self.log.push(Event::OtFill { core: me, line });
                latency += self.config.ot_lookup_latency;
                let (slot, extra) = self.fill_line(me, line, L1State::Tmi, Some(entry.data));
                latency += extra;
                let word = &mut self.cores.unmarked(me).l1.data_mut(slot).expect("TMI data")
                    [addr.word_in_line()];
                if kind.is_write() {
                    *word = store_val;
                }
                result.value = *word;
                if kind == AccessKind::Store {
                    self.mem.write(addr, store_val);
                }
                self.charge_mem(me, latency);
                self.maybe_check_invariants();
                return result;
            }
            // Osig false positive: charge the wasted tag walk and fall
            // through to the directory.
            latency += self.config.ot_lookup_latency;
        }

        latency += self.request(me, addr, kind, store_val, key, &mut result);
        self.charge_mem(me, latency);
        self.maybe_check_invariants();
        result
    }

    /// The directory request machinery shared by misses and upgrades.
    /// Returns the latency of the request (beyond the L1 probe).
    ///
    /// Kept out of line: inlined, the three handlers and everything
    /// they reach make `access` one several-thousand-instruction frame
    /// whose spills land on the L1-hit path.
    #[inline(never)]
    fn request(
        &mut self,
        me: usize,
        addr: Addr,
        kind: AccessKind,
        store_val: u64,
        key: SigKey,
        result: &mut AccessResult,
    ) -> u64 {
        let line = addr.line();
        let mut latency = self.config.l2_round_trip();

        // L2 tag reference; a miss costs memory and may require
        // directory recreation from L1 signatures (§4.1 sticky-style).
        if self.l2.reference(line) == crate::l2::L2Ref::Miss {
            self.cores.unmarked(me).stats.l2_misses += 1;
            latency += self.config.mem_latency;
            if !self.l2.has_dir_info(line) {
                latency += self.config.forward_penalty();
                let entry = self.recreate_dir(key);
                self.l2.install_dir(line, entry);
                self.log.push(Event::DirRecreated { line });
            }
        }

        // Summary-signature check for descheduled transactions (§5).
        // Skipped entirely while nothing is descheduled — the common
        // case for every workload phase without context switches.
        if self.l2.any_summary() {
            let summary_hits = self.l2.summary_check_key(key, kind.is_write());
            if !summary_hits.is_empty() {
                self.log.push(Event::SummaryHit {
                    core: me,
                    line,
                    threads: summary_hits,
                });
                result.summary_hits = summary_hits;
            }
        }

        // NACK window: a committed OT still copying back holds off all
        // requests for its lines (§4.1). Only cores flagged in the OT
        // activity mask (a superset of cores with an OT) are visited —
        // mask-driven iteration is ascending, like the full scan it
        // replaces.
        let ot_mask = self.ot_present_mask().without(me);
        if !ot_mask.is_empty() {
            let now = self.now(me);
            let mut nacks: Vec<(usize, u64)> = Vec::new();
            for o in procs_in_mask(ot_mask) {
                if let Some(ot) = &self.cores[o].ot {
                    if ot.nacks_at_key(now + latency, key) {
                        nacks.push((o, ot.copyback_done_at()));
                    }
                }
            }
            for (o, done) in nacks {
                self.cores.unmarked(me).stats.nacks += 1;
                result.nacked = true;
                self.log.push(Event::Nack {
                    requester: me,
                    owner: o,
                    line,
                });
                let wait = done.saturating_sub(now);
                latency = latency.max(wait) + self.config.nack_retry_latency;
            }
        }
        debug_assert!(
            (0..self.cores.len())
                .all(|o| self.cores[o].ot.is_none() || self.ot_present_mask().contains(o)),
            "ot_present mask dropped a core with a live OT"
        );

        match kind {
            AccessKind::Load | AccessKind::TLoad => {
                latency += self.handle_gets(me, addr, kind, key, result)
            }
            AccessKind::Store => latency += self.handle_getx(me, addr, store_val, key, result),
            AccessKind::TStore => latency += self.handle_tgetx(me, addr, store_val, key, result),
        }
        latency
    }
}
