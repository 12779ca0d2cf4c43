//! Per-processor hardware state: L1 + signatures + CSTs + AOU + OT
//! controller registers (the dark-lined boxes of paper Fig. 2).

use crate::cache::{L1Cache, L1Record};
use crate::config::MachineConfig;
use crate::cst::CstSet;
use crate::mem::Addr;
use crate::ot::OverflowTable;
use crate::stats::CoreStats;
use flextm_sig::{LineAddr, ProcSet, SigKey, Signature};
use std::ops::{Index, IndexMut};

/// Why an alert was delivered to a core (the trap payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertCause {
    /// An ALoaded line (the transaction status word) was invalidated by
    /// a remote write — the AOU mechanism of §3.4.
    AouInvalidated(LineAddr),
    /// A non-transactional access conflicted with this core's
    /// transaction, which the hardware aborted to preserve strong
    /// isolation (§3.5).
    StrongIsolation(LineAddr),
    /// FlexWatcher: a local read hit the activated watch signature (§8).
    WatchRead(Addr),
    /// FlexWatcher: a local write hit the activated watch signature.
    WatchWrite(Addr),
}

/// All FlexTM-specific state attached to one processor.
#[derive(Debug)]
pub struct CoreState {
    /// Private L1 data cache (with victim buffer).
    pub l1: L1Cache,
    /// Read signature of the current transaction.
    pub rsig: Signature,
    /// Write signature of the current transaction.
    pub wsig: Signature,
    /// The three conflict summary tables.
    pub csts: CstSet,
    /// The single ALoaded line (FlexTM needs AOU only for the TSW, so
    /// we use the simplified one-line mechanism of Spear et al. that
    /// the paper adopts in §3.4).
    pub aloaded: Option<LineAddr>,
    /// A pending alert, delivered at the next instruction boundary.
    pub alert_pending: Option<AlertCause>,
    /// Overflow table, allocated by the software handler on first
    /// overflow.
    pub ot: Option<OverflowTable>,
    /// FlexWatcher: local loads are tested against `rsig` when set.
    pub watch_reads: bool,
    /// FlexWatcher: local stores are tested against `wsig` when set.
    pub watch_writes: bool,
    /// Cycle-accounting mark set by [`crate::SimState::begin_attempt`]:
    /// `(work_cycles, mem_cycles)` snapshots taken when the current
    /// transaction attempt began, consumed on abort to reclassify the
    /// attempt's cycles as wasted. With several logical threads
    /// multiplexed on one core (§5) the mark tracks the most recent
    /// `begin`; misattribution across a context switch moves cycles
    /// between buckets but never breaks the sum-to-clock invariant.
    pub attempt_mark: Option<(u64, u64)>,
    /// Performance counters.
    pub stats: CoreStats,
}

impl CoreState {
    /// Fresh core state per `config`. Heap state is first-touch: the
    /// L1 planes materialise on the core's first fill and the OT on its
    /// first overflow, so a core that never runs owns only its two
    /// signature word vectors (kept eager — see DESIGN.md "Cost follows
    /// touched state") and forks, for the model checker, as a flat
    /// copy.
    pub fn new(config: &MachineConfig) -> Self {
        let mut l1 = L1Cache::new(config.l1_sets(), config.l1_ways, config.victim_entries);
        l1.set_unbounded_tmi(config.unbounded_tmi_victim);
        CoreState {
            l1,
            rsig: Signature::new(config.signature.clone()),
            wsig: Signature::new(config.signature.clone()),
            csts: CstSet::new(),
            aloaded: None,
            alert_pending: None,
            ot: None,
            watch_reads: false,
            watch_writes: false,
            attempt_mark: None,
            stats: CoreStats::default(),
        }
    }

    /// Makes `self` a copy of `src` in place, reusing the L1's planes
    /// and both signatures' word buffers (see
    /// [`L1Cache::assign_for_check`], which also says why the
    /// destructuring is exhaustive).
    pub fn assign_for_check(&mut self, src: &CoreState) {
        let CoreState {
            l1,
            rsig,
            wsig,
            csts,
            aloaded,
            alert_pending,
            ot,
            watch_reads,
            watch_writes,
            attempt_mark,
            stats,
        } = src;
        self.l1.assign_for_check(l1);
        self.rsig.assign_for_check(rsig);
        self.wsig.assign_for_check(wsig);
        self.csts = *csts;
        self.aloaded = *aloaded;
        self.alert_pending = *alert_pending;
        self.ot.clone_from(ot);
        self.watch_reads = *watch_reads;
        self.watch_writes = *watch_writes;
        self.attempt_mark = *attempt_mark;
        self.stats = *stats;
    }

    /// The record a kept model-checker state stores for this core: the
    /// inline fields as they are, the L1 as an [`L1Record`].
    /// Exhaustive destructuring, as in [`CoreState::assign_for_check`].
    pub(crate) fn save(&self) -> CoreRecord {
        let CoreState {
            l1,
            rsig,
            wsig,
            csts,
            aloaded,
            alert_pending,
            ot,
            watch_reads,
            watch_writes,
            attempt_mark,
            stats,
        } = self;
        CoreRecord {
            l1: l1.save(),
            rsig: rsig.clone(),
            wsig: wsig.clone(),
            csts: *csts,
            aloaded: *aloaded,
            alert_pending: *alert_pending,
            ot: ot.clone(),
            watch_reads: *watch_reads,
            watch_writes: *watch_writes,
            attempt_mark: *attempt_mark,
            stats: *stats,
        }
    }

    /// Makes `self` the core `rec` was saved from, in place; the L1's
    /// buffers and both signatures' word buffers are reused.
    pub(crate) fn restore(&mut self, rec: &CoreRecord) {
        let CoreRecord {
            l1,
            rsig,
            wsig,
            csts,
            aloaded,
            alert_pending,
            ot,
            watch_reads,
            watch_writes,
            attempt_mark,
            stats,
        } = rec;
        self.l1.restore(l1);
        self.rsig.assign_for_check(rsig);
        self.wsig.assign_for_check(wsig);
        self.csts = *csts;
        self.aloaded = *aloaded;
        self.alert_pending = *alert_pending;
        self.ot.clone_from(ot);
        self.watch_reads = *watch_reads;
        self.watch_writes = *watch_writes;
        self.attempt_mark = *attempt_mark;
        self.stats = *stats;
    }

    /// Returns the core to the state [`CoreState::new`] built, in place
    /// and without allocating: what a restore does to a core its record
    /// does not hold.
    fn reset(&mut self) {
        let CoreState {
            l1,
            rsig,
            wsig,
            csts,
            aloaded,
            alert_pending,
            ot,
            watch_reads,
            watch_writes,
            attempt_mark,
            stats,
        } = self;
        l1.restore(&L1Record::default());
        rsig.clear();
        wsig.clear();
        *csts = CstSet::new();
        *aloaded = None;
        *alert_pending = None;
        *ot = None;
        *watch_reads = false;
        *watch_writes = false;
        *attempt_mark = None;
        *stats = CoreStats::default();
    }

    /// True if the core is in the state [`CoreState::new`] built — what
    /// every core outside [`Cores::touched`] must be. Exhaustive
    /// destructuring, as in [`CoreState::assign_for_check`]: a field
    /// added to the core must be judged here or fail to compile.
    pub(crate) fn is_pristine(&self) -> bool {
        let CoreState {
            l1,
            rsig,
            wsig,
            csts,
            aloaded,
            alert_pending,
            ot,
            watch_reads,
            watch_writes,
            attempt_mark,
            stats,
        } = self;
        l1.is_pristine()
            && rsig.is_empty()
            && rsig.inserted_count() == 0
            && wsig.is_empty()
            && wsig.inserted_count() == 0
            && csts.is_clear()
            && aloaded.is_none()
            && alert_pending.is_none()
            && ot.is_none()
            && !watch_reads
            && !watch_writes
            && attempt_mark.is_none()
            && *stats == CoreStats::default()
    }

    /// Posts an alert unless one is already pending (the hardware has a
    /// single alert line; the first cause wins, which is fine because
    /// every cause ends in a software abort/retry).
    pub fn post_alert(&mut self, cause: AlertCause) {
        if self.alert_pending.is_none() {
            self.alert_pending = Some(cause);
        }
        self.stats.alerts += 1;
    }

    /// Hardware abort: revert all TMI and TI lines, clear signatures and
    /// CSTs, and discard a speculative OT. Used by the explicit abort
    /// instruction, failed CAS-Commit, and strong-isolation kills.
    /// Returns the number of speculative lines dropped.
    pub fn hardware_abort(&mut self) -> usize {
        let dropped = self.l1.flash_abort();
        self.rsig.clear();
        self.wsig.clear();
        self.csts.clear_all();
        let ot_dropped = match self.ot.take() {
            Some(ot) if !ot.is_committed() => ot.len(),
            Some(ot) => {
                // A committed OT is no longer speculative; it has
                // already been drained into memory.
                drop(ot);
                0
            }
            None => 0,
        };
        dropped + ot_dropped
    }

    /// True if this core's signatures say it may have *written* the
    /// line behind `key` transactionally (L1 TMI, evicted-to-OT, or
    /// signature false positive — all treated identically, as in the
    /// paper).
    pub fn writes_line_key(&self, key: SigKey) -> bool {
        self.wsig.contains_key(key)
    }

    /// True if this core's signatures say it may have *read* the line
    /// behind `key` transactionally.
    pub fn reads_line_key(&self, key: SigKey) -> bool {
        self.rsig.contains_key(key)
    }

    /// True if a transaction appears to be in flight (any transactional
    /// footprint at all).
    pub fn has_tx_footprint(&self) -> bool {
        !self.rsig.is_empty() || !self.wsig.is_empty()
    }

    /// Per-processor invariants: signature conservativeness (every
    /// speculative line is covered by the matching signature, paper
    /// §3.3), OT/cache/CST well-formedness, and AOU consistency. Called
    /// after every protocol transition by
    /// [`crate::SimState::check_invariants`].
    pub fn check_invariants(&self, me: usize, ncores: usize) {
        use crate::cache::L1State;

        self.l1.check_invariants(me);
        self.csts.check_invariants(me, ncores);
        if let Some(ot) = &self.ot {
            ot.check_invariants(me);
            // Every overflowed speculative write is still a write: the
            // Wsig was inserted at TStore time, before the eviction.
            if !ot.is_committed() {
                for (&line, _) in ot.iter() {
                    assert!(
                        self.wsig.contains(line),
                        "core {me}: OT entry {line:?} not covered by Wsig"
                    );
                }
            }
        }
        for e in self.l1.iter_all() {
            match e.state {
                L1State::Tmi => assert!(
                    self.wsig.contains(e.line),
                    "core {me}: TMI line {:?} not covered by Wsig",
                    e.line
                ),
                L1State::Ti => assert!(
                    self.rsig.contains(e.line),
                    "core {me}: TI line {:?} not covered by Rsig",
                    e.line
                ),
                _ => {}
            }
            // The single-line AOU mechanism: a marked line must be the
            // one the core ALoaded.
            if e.a_bit {
                assert_eq!(
                    self.aloaded,
                    Some(e.line),
                    "core {me}: a_bit set on {:?} but aloaded is {:?}",
                    e.line,
                    self.aloaded
                );
            }
        }
        // A conflict is only recorded for transactional footprints; a
        // core with clear signatures has nothing for CSTs to summarize.
        if !self.csts.is_clear() {
            assert!(
                self.has_tx_footprint(),
                "core {me}: non-clear CSTs {:?} without any tx footprint",
                self.csts.snapshot()
            );
        }
    }
}

/// A [`CoreState`] as a kept model-checker state stores it
/// ([`CoreState::save`]).
#[derive(Debug)]
pub(crate) struct CoreRecord {
    l1: L1Record,
    rsig: Signature,
    wsig: Signature,
    csts: CstSet,
    aloaded: Option<LineAddr>,
    alert_pending: Option<AlertCause>,
    ot: Option<OverflowTable>,
    watch_reads: bool,
    watch_writes: bool,
    attempt_mark: Option<(u64, u64)>,
    stats: CoreStats,
}

impl CoreRecord {
    /// Bytes the record owns on the heap, not counting its inline part.
    fn heap_bytes(&self) -> usize {
        let words = |s: &Signature| std::mem::size_of_val(s.words());
        self.l1.heap_bytes()
            + words(&self.rsig)
            + words(&self.wsig)
            + self.ot.as_ref().map_or(0, OverflowTable::heap_bytes)
    }
}

/// The touched cores of a [`Cores`], as a kept model-checker state
/// stores them ([`Cores::save`]): one [`CoreRecord`] per touched core,
/// in ascending core order, and nothing for the rest — a record's size
/// follows the cores a schedule drives, not the machine's width.
#[derive(Debug)]
pub(crate) struct CoresRecord {
    touched: ProcSet,
    cores: Box<[CoreRecord]>,
}

impl CoresRecord {
    /// The cores the record holds.
    pub(crate) fn touched(&self) -> ProcSet {
        self.touched
    }

    /// Bytes the record owns on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.cores)
            + self.cores.iter().map(CoreRecord::heap_bytes).sum::<usize>()
    }
}

/// Every processor's [`CoreState`], plus `touched`: a superset of the
/// cores whose state — or scheduler lane — differs from what
/// [`crate::SimState`] was built with. The invariant sweep and the
/// model checker's refill visit `touched` only, so a wide machine
/// whose schedule drives two cores costs two cores per transition.
///
/// The type keeps the superset honest from outside the crate: the one
/// mutable borrow there, [`IndexMut`], marks its core, and there is no
/// `DerefMut`. Inside, the protocol mutates
/// through [`Cores::unmarked`] and each public entry point marks its
/// requester once — a mark per borrow on the L1-hit path was measured
/// at 10–13 % of `ht-1t` (DESIGN.md "Cost follows touched state").
/// Responders need no mark: a core the protocol answers for holds a
/// line, a signature bit, an OT or a CST edge, all acquired as a
/// requester. Debug builds check that argument on every sweep
/// ([`crate::SimState::check_invariants`]).
#[derive(Debug)]
pub struct Cores {
    cores: Vec<CoreState>,
    touched: ProcSet,
}

impl Cores {
    /// `config.cores` fresh cores, none touched.
    pub(crate) fn new(config: &MachineConfig) -> Self {
        Cores {
            cores: (0..config.cores).map(|_| CoreState::new(config)).collect(),
            touched: ProcSet::empty(),
        }
    }

    /// The cores that may have left their initial state (a superset).
    pub fn touched(&self) -> ProcSet {
        self.touched
    }

    /// Records that `core` may leave its initial state.
    #[inline]
    pub(crate) fn mark(&mut self, core: usize) {
        self.touched.insert(core);
    }

    /// Records that every core may leave its initial state.
    pub(crate) fn mark_all(&mut self) {
        self.touched = ProcSet::first_n(self.cores.len());
    }

    /// `core`'s state, mutably, without marking it: for the protocol,
    /// whose entry points have marked the requester already.
    #[inline]
    pub(crate) fn unmarked(&mut self, core: usize) -> &mut CoreState {
        &mut self.cores[core]
    }

    /// Every core, mutably; marks them all.
    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, CoreState> {
        self.mark_all();
        self.cores.iter_mut()
    }

    /// Makes `self` equal to `src` in place, visiting only the cores
    /// touched on either side: a core untouched on both is pristine on
    /// both. Same width required.
    pub(crate) fn assign_for_check(&mut self, src: &Cores) {
        assert_eq!(
            self.cores.len(),
            src.cores.len(),
            "refill from a machine of another width"
        );
        for i in self.touched | src.touched {
            self.cores[i].assign_for_check(&src.cores[i]);
        }
        self.touched = src.touched;
    }

    /// The record of the touched cores ([`CoresRecord`]).
    pub(crate) fn save(&self) -> CoresRecord {
        let Cores { cores, touched } = self;
        CoresRecord {
            touched: *touched,
            cores: touched.iter().map(|i| cores[i].save()).collect(),
        }
    }

    /// Makes `self` the cores `rec` was saved from, in place, visiting
    /// only the cores touched on either side: a core the scratch
    /// touched and the record does not hold is reset to its initial
    /// state. Same width required.
    pub(crate) fn restore(&mut self, rec: &CoresRecord) {
        let CoresRecord { touched, cores } = rec;
        for i in self.touched.minus(*touched) {
            self.cores[i].reset();
        }
        for (i, core) in touched.iter().zip(cores.iter()) {
            self.cores[i].restore(core);
        }
        self.touched = *touched;
    }
}

impl std::ops::Deref for Cores {
    type Target = [CoreState];
    fn deref(&self) -> &[CoreState] {
        &self.cores
    }
}

impl Index<usize> for Cores {
    type Output = CoreState;
    #[inline]
    fn index(&self, core: usize) -> &CoreState {
        &self.cores[core]
    }
}

impl IndexMut<usize> for Cores {
    /// Marks `core`: the one way to mutate a core from outside the
    /// crate.
    #[inline]
    fn index_mut(&mut self, core: usize) -> &mut CoreState {
        self.mark(core);
        &mut self.cores[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::L1State;

    fn core() -> CoreState {
        CoreState::new(&MachineConfig::small_test())
    }

    #[test]
    fn first_alert_wins() {
        let mut c = core();
        c.post_alert(AlertCause::AouInvalidated(LineAddr(1)));
        c.post_alert(AlertCause::StrongIsolation(LineAddr(2)));
        assert_eq!(
            c.alert_pending,
            Some(AlertCause::AouInvalidated(LineAddr(1)))
        );
        assert_eq!(c.stats.alerts, 2);
    }

    #[test]
    fn hardware_abort_clears_everything() {
        let mut c = core();
        c.rsig.insert(LineAddr(1));
        c.wsig.insert(LineAddr(2));
        c.csts.set(crate::cst::CstKind::WW, 3);
        c.l1.fill(LineAddr(2), L1State::Tmi);
        let s = c.l1.peek_slot(LineAddr(2)).unwrap();
        c.l1.put_data(s, Box::new([0; crate::mem::WORDS_PER_LINE]));
        let dropped = c.hardware_abort();
        assert_eq!(dropped, 1);
        assert!(c.rsig.is_empty());
        assert!(c.wsig.is_empty());
        assert!(c.csts.is_clear());
        assert!(!c.has_tx_footprint());
    }

    #[test]
    fn footprint_tracks_signatures() {
        let mut c = core();
        assert!(!c.has_tx_footprint());
        c.rsig.insert(LineAddr(9));
        assert!(c.has_tx_footprint());
        let key = c.rsig.key(LineAddr(9));
        assert!(c.reads_line_key(key));
        assert!(!c.writes_line_key(key));
    }
}
