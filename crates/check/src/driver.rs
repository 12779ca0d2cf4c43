//! The checker's driver: a real [`SimState`] plus the sequential
//! shadow an architectural observer can maintain, with the
//! cross-validation asserts that turn a schedule into a test oracle.
//!
//! A driver is copied one way: [`Driver::record`] writes what the
//! state holds into a [`Snapshot`] — the touched cores with only their
//! resident L1 lines, the occupied L2 slots, the live directory
//! entries, memory's non-zero words — and [`Driver::restore`] writes a
//! record back into a reused driver. Both reuse the buffers of what
//! they overwrite. The explorer restores every child it steps from a
//! record, and keeps a state as an exact-size clone of one
//! ([`Driver::save`]); [`Driver::fork`] is a record restored into a
//! fresh driver, for a caller that goes on using its own state. A
//! shadow core owns no heap (its access sets are value arrays under a
//! presence mask), so its part of every copy is flat.

use crate::config::{Alphabet, CheckConfig, MAX_LINES};
use crate::op::Op;
use flextm_sim::{
    procs_in_mask, AbortCause, AccessKind, AccessResult, AlertCause, CasCommitOutcome,
    ConflictKind, CstKind, ProcSet, SimRecord, SimState,
};
use std::sync::Arc;

/// TSW encodings. Deliberately attempt-free (unlike the production
/// runtime's sequence-tagged words) so restarted transactions reach
/// previously visited canonical states; the driver is sequential, so
/// the ABA hazard the tags defend against cannot occur.
pub const TSW_IDLE: u64 = 0;
/// Transaction running.
pub const TSW_ACTIVE: u64 = 1;
/// Transaction aborted (by itself or an enemy CAS).
pub const TSW_ABORTED: u64 = 2;
/// Transaction committed.
pub const TSW_COMMITTED: u64 = 3;

/// A true access set: data-line index → value, for at most
/// [`MAX_LINES`] lines. Inline — a presence mask over a value array —
/// so a shadow core is a flat copy that a record or restore never walks.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineVals {
    present: u16,
    vals: [u64; MAX_LINES],
}

impl LineVals {
    /// The value recorded for line `l`, if any.
    pub fn get(&self, l: usize) -> Option<u64> {
        (self.present >> l & 1 == 1).then(|| self.vals[l])
    }

    /// Records (or replaces) line `l`'s value.
    pub fn insert(&mut self, l: usize, v: u64) {
        self.vals[l] = v;
        self.present |= 1 << l;
    }

    /// Number of lines recorded.
    pub fn len(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// True when no line is recorded.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Forgets every line.
    pub fn clear(&mut self) {
        self.present = 0;
    }

    /// `(line, value)` pairs in ascending line order — the order the
    /// canonical hash folds them in.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let mut rest = self.present;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let l = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                (l, self.vals[l])
            })
        })
    }
}

/// Shadow bookkeeping for one core's current transaction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowCore {
    /// A transaction is in flight (begun, not yet committed/aborted).
    pub active: bool,
    /// An enemy CAS flipped our TSW; we are dead but haven't noticed.
    pub doomed: bool,
    /// The authoritative TSW value (driver is the only TSW writer).
    pub tsw: u64,
    /// True read set: line index → first value observed.
    pub reads: LineVals,
    /// True write set: line index → last value stored.
    pub writes: LineVals,
    /// Shadow CSTs, folded from the conflicts the hardware reported.
    pub rw: ProcSet,
    /// Shadow W-R.
    pub wr: ProcSet,
    /// Shadow W-W.
    pub ww: ProcSet,
}

impl ShadowCore {
    fn clear_tx(&mut self) {
        self.active = false;
        self.doomed = false;
        self.reads.clear();
        self.writes.clear();
        self.rw = ProcSet::empty();
        self.wr = ProcSet::empty();
        self.ww = ProcSet::empty();
    }
}

/// The model-checker driver. See the crate docs for the invariant
/// catalogue; every `assert!` here is one of them.
pub struct Driver {
    /// The real machine, invariant hooks armed (`for_tests`).
    pub st: SimState,
    /// Per-core shadow transactions.
    pub shadow: Vec<ShadowCore>,
    /// Shadow committed memory, one word per data line.
    pub shadow_mem: Vec<u64>,
    /// Immutable after construction and shared by every fork, so a
    /// fork never copies the `core_ids` vector.
    cfg: Arc<CheckConfig>,
}

/// A record of a checker state ([`Driver::record`]), and the only
/// thing the explorer and the liveness pass hold per state. Its size
/// follows what the state holds, not the machine's geometry or width;
/// a kept state is a clone, which is exact-size.
#[derive(Clone)]
pub struct Snapshot {
    st: SimRecord,
    shadow: Vec<ShadowCore>,
    shadow_mem: Vec<u64>,
    cfg: Arc<CheckConfig>,
}

impl Snapshot {
    /// Bytes the snapshot occupies on the heap once boxed: its inline
    /// part plus everything it owns. Deterministic accounting — the
    /// explorer sums it over its frontier — not an allocator reading.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Snapshot>()
            + self.st.heap_bytes()
            + self.shadow.capacity() * std::mem::size_of::<ShadowCore>()
            + self.shadow_mem.capacity() * std::mem::size_of::<u64>()
    }

    /// A fresh driver holding this state — a worker's first scratch.
    pub fn to_driver(&self) -> Driver {
        let mut d = Driver::with_config(Arc::clone(&self.cfg));
        d.restore(self);
        d
    }
}

impl Driver {
    /// A fresh machine in the all-idle initial state.
    pub fn new(cfg: CheckConfig) -> Self {
        assert!(cfg.lines <= MAX_LINES, "shadow sets hold {MAX_LINES} lines");
        Self::with_config(Arc::new(cfg))
    }

    /// The initial state under a configuration other drivers share —
    /// what every copy ([`Driver::fork`], [`Snapshot::to_driver`]) is
    /// restored onto.
    fn with_config(cfg: Arc<CheckConfig>) -> Self {
        Driver {
            st: SimState::for_tests(cfg.machine()),
            shadow: vec![ShadowCore::default(); cfg.cores],
            shadow_mem: vec![0; cfg.lines],
            cfg,
        }
    }

    /// The checker config this driver was built from.
    pub fn config(&self) -> &CheckConfig {
        &self.cfg
    }

    /// An owned copy, for a caller that goes on using its own state
    /// (quiescence checks, shrink replay, tests): a record restored
    /// into a fresh driver of the same configuration.
    pub fn fork(&self) -> Self {
        self.recorded().to_driver()
    }

    /// A kept record of this state: exactly as large as what it holds.
    pub fn save(&self) -> Snapshot {
        self.recorded().clone()
    }

    /// A new record of this state. Its buffers grew as it was written,
    /// so a state that is kept is a clone of it ([`Driver::save`]).
    fn recorded(&self) -> Snapshot {
        let mut rec = Snapshot {
            st: SimRecord::default(),
            shadow: Vec::new(),
            shadow_mem: Vec::new(),
            cfg: Arc::clone(&self.cfg),
        };
        self.record(&mut rec);
        rec
    }

    /// Writes this state into `rec` in place, reusing every buffer
    /// `rec` owns: writing over a record that last held a state as
    /// large allocates nothing. `rec` must be of `self`'s configuration.
    /// Exhaustive destructuring: a new field that is not recorded must
    /// not compile.
    pub fn record(&self, rec: &mut Snapshot) {
        let Driver {
            st,
            shadow,
            shadow_mem,
            cfg,
        } = self;
        assert!(*cfg == rec.cfg, "record across checker configurations");
        st.record(&mut rec.st);
        rec.shadow.clone_from(shadow);
        rec.shadow_mem.clone_from(shadow_mem);
    }

    /// Makes `self` the state `snap` was written from, in place,
    /// whatever `self` held before, and allocation-free once `self` has
    /// held a state as large. `snap` must be of `self`'s
    /// configuration.
    pub fn restore(&mut self, snap: &Snapshot) {
        let Snapshot {
            st,
            shadow,
            shadow_mem,
            cfg,
        } = snap;
        assert!(*cfg == self.cfg, "restore across checker configurations");
        self.st.restore(st);
        self.shadow.clone_from(shadow);
        self.shadow_mem.clone_from(shadow_mem);
    }

    /// The value a `TWrite(c, l)` always stores. Path-independent so
    /// states reached through different schedules can converge.
    fn tx_val(c: usize, l: usize) -> u64 {
        (1 << 32) | ((c as u64) << 8) | l as u64
    }

    /// The value a plain `Write(c, l)` always stores.
    fn plain_val(c: usize, l: usize) -> u64 {
        (2 << 32) | ((c as u64) << 8) | l as u64
    }

    /// Ops currently enabled. A function of canon-visible state only
    /// (alerts, shadow activity, L1 residency), which keeps visited-set
    /// pruning sound.
    pub fn enabled_ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        // Plain accesses and explicit evictions come in the full
        // alphabet only.
        let full = self.cfg.alphabet == Alphabet::Full;
        for c in 0..self.cfg.cores {
            let mc = self.cfg.machine_core(c);
            if self.st.cores[mc].alert_pending.is_some() {
                // Most ops on this core are consumed by the alert
                // handler; one representative avoids redundant
                // successors. Commit stays schedulable on a live shadow
                // because software masks alerts inside the commit
                // critical section — that is the schedule that reaches
                // CAS-Commit on a doomed TSW (the `LostTsw` outcome).
                ops.push(Op::Abort(c));
                if self.shadow[c].active {
                    ops.push(Op::Commit(c));
                }
                continue;
            }
            let active = self.shadow[c].active;
            for l in 0..self.cfg.lines {
                ops.push(Op::TRead(c, l));
                ops.push(Op::TWrite(c, l));
                if !active && full {
                    ops.push(Op::Read(c, l));
                    ops.push(Op::Write(c, l));
                }
                if full && self.st.cores[mc].l1.peek(self.cfg.data_line(l)).is_some() {
                    ops.push(Op::Evict(c, l));
                }
            }
            if active {
                ops.push(Op::Commit(c));
                ops.push(Op::Abort(c));
            }
        }
        ops
    }

    /// Applies one op (or the alert handler it is consumed by), then
    /// runs the full cross-validation sweep. Panics on any invariant
    /// violation. Ops that are disabled in the current state (as can
    /// happen while shrinking a counterexample) are silent no-ops.
    pub fn apply(&mut self, op: Op) {
        let c = op.core();
        // A pending alert preempts the scheduled op — except Commit,
        // which models the runtime masking alerts across its critical
        // section and lets CAS-Commit itself discover the lost TSW.
        if self.st.cores[self.cfg.machine_core(c)]
            .alert_pending
            .is_some()
            && !matches!(op, Op::Commit(_))
        {
            self.service_alert(c);
            self.post_op_checks();
            return;
        }
        match op {
            Op::TRead(c, l) => self.tx_read(c, l),
            Op::TWrite(c, l) => {
                self.tx_write(c, l);
            }
            Op::Read(c, l) => self.plain_read(c, l),
            Op::Write(c, l) => self.plain_write(c, l),
            Op::Evict(c, l) => {
                self.st
                    .evict_line(self.cfg.machine_core(c), self.cfg.data_line(l));
            }
            Op::Commit(c) => {
                self.commit(c);
            }
            Op::Abort(c) => self.abort(c),
        }
        self.post_op_checks();
    }

    /// The user-mode alert handler (runtime `Alert` upcall): ack the
    /// alert, figure out who died, and clean up. Returns whether its
    /// last machine change ran the machine's own sweep: the raw ack and
    /// a re-arming ALoad do not; an abort or a CAS does.
    pub(crate) fn service_alert(&mut self, c: usize) -> bool {
        let mc = self.cfg.machine_core(c);
        let cause = self.st.cores[mc]
            .alert_pending
            .take()
            .expect("service_alert called with no alert");
        match cause {
            AlertCause::AouInvalidated(_) => {
                // Reload the TSW (driver-level peek stands in for the
                // handler's load) and see whether we were aborted.
                let v = self.st.mem.read(self.cfg.tsw_addr(c));
                if v == TSW_ACTIVE {
                    // Spurious (e.g. conservative alert from an uncached
                    // ALoad): re-arm and continue.
                    self.st.aload(mc, self.cfg.tsw_addr(c));
                    return false;
                }
                assert_eq!(
                    v, TSW_ABORTED,
                    "core {c}: AOU alert but TSW is neither ACTIVE nor ABORTED"
                );
                assert!(
                    self.shadow[c].doomed,
                    "core {c}: TSW flipped to ABORTED without any enemy CAS"
                );
                let swept = self.shadow[c].active;
                if swept {
                    self.st.abort_tx(mc, AbortCause::AouAlert);
                }
                self.shadow[c].clear_tx();
                self.shadow[c].tsw = TSW_ABORTED;
                swept
            }
            AlertCause::StrongIsolation(_) => {
                // The hardware already aborted the transaction; the
                // handler just has to retire the TSW.
                assert!(
                    !self.st.cores[mc].has_tx_footprint(),
                    "core {c}: strong-isolation alert but signatures still live"
                );
                let swept = self.shadow[c].tsw == TSW_ACTIVE;
                if swept {
                    let (old, _) = self
                        .st
                        .cas(mc, self.cfg.tsw_addr(c), TSW_ACTIVE, TSW_ABORTED);
                    assert_eq!(old, TSW_ACTIVE, "core {c}: TSW raced the handler");
                    self.shadow[c].tsw = TSW_ABORTED;
                }
                self.shadow[c].clear_tx();
                swept
            }
            AlertCause::WatchRead(_) | AlertCause::WatchWrite(_) => {
                unreachable!("checker configures no watchpoints")
            }
        }
    }

    /// Implicit begin: publish ACTIVE, arm AOU, mark the attempt.
    fn begin(&mut self, c: usize) {
        let mc = self.cfg.machine_core(c);
        assert!(
            self.st.cores[mc].csts.is_clear(),
            "core {c}: stale CSTs at transaction begin"
        );
        let _ = self
            .st
            .access(mc, self.cfg.tsw_addr(c), AccessKind::Store, TSW_ACTIVE);
        self.st.aload(mc, self.cfg.tsw_addr(c));
        self.st.begin_attempt(mc);
        self.shadow[c].clear_tx();
        self.shadow[c].active = true;
        self.shadow[c].tsw = TSW_ACTIVE;
    }

    /// Folds the conflicts the hardware just reported into the shadow
    /// CSTs. The (access kind, conflict kind) pair identifies exactly
    /// which pair of registers `record_conflict` updated.
    fn fold_conflicts(&mut self, c: usize, kind: AccessKind, r: &AccessResult) {
        let mc = self.cfg.machine_core(c);
        for conflict in r.conflicts.iter() {
            // The hardware names machine cores; shadow CSTs store them
            // verbatim (they are compared against hardware registers),
            // while shadow *indexing* goes through the checker map.
            let o = conflict.with;
            let lo = self.cfg.checker_core(o);
            match (kind, conflict.kind) {
                (AccessKind::TLoad, ConflictKind::Threatened) => {
                    self.shadow[c].rw.insert(o);
                    self.shadow[lo].wr.insert(mc);
                }
                (AccessKind::TStore, ConflictKind::Threatened) => {
                    self.shadow[c].ww.insert(o);
                    self.shadow[lo].ww.insert(mc);
                }
                (AccessKind::TStore, ConflictKind::ExposedRead) => {
                    self.shadow[c].wr.insert(o);
                    self.shadow[lo].rw.insert(mc);
                }
                (k, ck) => panic!("core {c}: unexpected conflict report {ck:?} on {k:?}"),
            }
        }
    }

    /// Transactional load.
    fn tx_read(&mut self, c: usize, l: usize) {
        if !self.shadow[c].active {
            self.begin(c);
        }
        let r = self.st.access(
            self.cfg.machine_core(c),
            self.cfg.data_addr(l),
            AccessKind::TLoad,
            0,
        );
        assert!(r.summary_hits.is_empty(), "no descheduling in checker");
        // `r.nacked` is possible here (a committed remote OT copying
        // back): the machine charges the retry wait as stall latency
        // and completes the access, so it needs no special handling.
        self.fold_conflicts(c, AccessKind::TLoad, &r);
        let expected = self.shadow[c]
            .writes
            .get(l)
            .or_else(|| self.shadow[c].reads.get(l))
            .unwrap_or(self.shadow_mem[l]);
        if !self.shadow[c].doomed {
            // Undoomed read stability / isolation: a live transaction
            // sees its own speculative value, else its snapshot, else
            // committed memory — and never a torn or foreign value.
            assert_eq!(
                r.value, expected,
                "core {c}: TRead(L{l}) unstable while undoomed"
            );
        }
        if self.shadow[c].reads.get(l).is_none() {
            self.shadow[c].reads.insert(l, r.value);
        }
    }

    /// Transactional store. Returns the machine cores the hardware
    /// reported as conflicting on this access (the liveness pass feeds
    /// them to a contention manager; safety exploration ignores them).
    pub(crate) fn tx_write(&mut self, c: usize, l: usize) -> ProcSet {
        if !self.shadow[c].active {
            self.begin(c);
        }
        let v = Self::tx_val(c, l);
        let r = self.st.access(
            self.cfg.machine_core(c),
            self.cfg.data_addr(l),
            AccessKind::TStore,
            v,
        );
        assert!(r.summary_hits.is_empty(), "no descheduling in checker");
        self.fold_conflicts(c, AccessKind::TStore, &r);
        self.shadow[c].writes.insert(l, v);
        let mut enemies = ProcSet::empty();
        for conflict in r.conflicts.iter() {
            enemies.insert(conflict.with);
        }
        enemies
    }

    fn plain_read(&mut self, c: usize, l: usize) {
        if self.shadow[c].active {
            return; // disabled op replayed while shrinking
        }
        let r = self.st.access(
            self.cfg.machine_core(c),
            self.cfg.data_addr(l),
            AccessKind::Load,
            0,
        );
        // Strong isolation, observer side: a plain load sees committed
        // data only, never anyone's speculative value.
        assert_eq!(
            r.value, self.shadow_mem[l],
            "core {c}: plain Read(L{l}) leaked a speculative value"
        );
    }

    fn plain_write(&mut self, c: usize, l: usize) {
        if self.shadow[c].active {
            return; // disabled op replayed while shrinking
        }
        let v = Self::plain_val(c, l);
        let _ = self.st.access(
            self.cfg.machine_core(c),
            self.cfg.data_addr(l),
            AccessKind::Store,
            v,
        );
        self.shadow_mem[l] = v;
    }

    /// The software commit protocol of `flextm::runtime` (lazy mode):
    /// copy-and-clear W-R/W-W, CAS every enemy's TSW, CAS-Commit.
    /// Returns `true` when the transaction committed (`false` on a
    /// lost TSW or a disabled-op replay).
    pub(crate) fn commit(&mut self, c: usize) -> bool {
        if !self.shadow[c].active {
            return false; // disabled op replayed while shrinking
        }
        if let Some(fault) = self.cfg.injected_fault {
            // Test-only fault: fires before the CAS sequence so the
            // shrunk schedule ends exactly at the Commit op.
            if fault.core == c && self.shadow[c].writes.len() >= fault.min_writes {
                panic!(
                    "injected fault: core {c} committing {} writes",
                    self.shadow[c].writes.len()
                );
            }
        }
        let mc = self.cfg.machine_core(c);
        let wr = self.st.cores[mc].csts.copy_and_clear(CstKind::WR);
        let ww = self.st.cores[mc].csts.copy_and_clear(CstKind::WW);
        self.shadow[c].wr = ProcSet::empty();
        self.shadow[c].ww = ProcSet::empty();
        for e in procs_in_mask(wr | ww) {
            self.kill_enemy(c, self.cfg.checker_core(e));
        }
        let outcome = self
            .st
            .cas_commit(mc, self.cfg.tsw_addr(c), TSW_ACTIVE, TSW_COMMITTED);
        let committed = matches!(outcome, CasCommitOutcome::Committed(_));
        match outcome {
            CasCommitOutcome::Committed(_) => {
                // Commit progress/locality: CAS-Commit can only succeed
                // on an intact (ACTIVE) TSW, and W-R/W-W were cleared
                // one step ago — so success implies nobody doomed us.
                assert!(
                    !self.shadow[c].doomed,
                    "core {c}: CAS-Commit succeeded on a doomed transaction"
                );
                self.shadow[c].tsw = TSW_COMMITTED;
                let writes = self.shadow[c].writes;
                for (l, v) in writes.iter() {
                    self.shadow_mem[l] = v;
                }
                self.shadow[c].clear_tx();
            }
            CasCommitOutcome::LostTsw(old) => {
                assert_eq!(old, TSW_ABORTED, "core {c}: lost TSW to a non-abort");
                assert!(
                    self.shadow[c].doomed,
                    "core {c}: TSW lost without any enemy CAS"
                );
                // The instruction already hardware-aborted us; the
                // pending AOU alert (from the enemy CAS) is now moot.
                self.st.cores[mc].alert_pending = None;
                self.shadow[c].clear_tx();
            }
            CasCommitOutcome::ConflictsPending { wr, ww } => panic!(
                "core {c}: CAS-Commit reported pending conflicts \
                 (wr={wr:?}, ww={ww:?}) right after copy-and-clear \
                 in a sequential schedule"
            ),
        }
        committed
    }

    /// The enemy CAS of the commit sweep and of the eager CMPC
    /// handler's `AbortEnemy` arm: CAS checker core `enemy`'s TSW from
    /// ACTIVE to ABORTED (the AOU invalidation dooms them). A no-op
    /// when the enemy is no longer active.
    pub(crate) fn kill_enemy(&mut self, c: usize, enemy: usize) {
        if self.shadow[enemy].tsw != TSW_ACTIVE {
            return;
        }
        let mc = self.cfg.machine_core(c);
        let (old, _) = self
            .st
            .cas(mc, self.cfg.tsw_addr(enemy), TSW_ACTIVE, TSW_ABORTED);
        assert_eq!(old, TSW_ACTIVE, "core {c}: enemy {enemy} TSW raced the CAS");
        self.shadow[enemy].tsw = TSW_ABORTED;
        self.shadow[enemy].doomed = true;
    }

    /// The software abort protocol: retire the TSW, then the abort
    /// instruction.
    fn abort(&mut self, c: usize) {
        if !self.shadow[c].active {
            return; // disabled op replayed while shrinking
        }
        let mc = self.cfg.machine_core(c);
        let (old, _) = self
            .st
            .cas(mc, self.cfg.tsw_addr(c), TSW_ACTIVE, TSW_ABORTED);
        assert_eq!(
            old, TSW_ACTIVE,
            "core {c}: abort raced an enemy CAS without an alert"
        );
        self.shadow[c].tsw = TSW_ABORTED;
        self.st.abort_tx(mc, AbortCause::Explicit);
        self.shadow[c].clear_tx();
    }

    /// The cross-validation sweep run after every op: the shadow
    /// checks, then the machine's own invariant layer (also fired after
    /// every protocol transition via the check-every-op hooks; this
    /// covers driver steps like raw CST reads that bypass them).
    pub(crate) fn post_op_checks(&mut self) {
        self.check_shadow();
        self.st.check_invariants();
    }

    /// The shadow half of [`Driver::post_op_checks`].
    fn check_shadow(&mut self) {
        // 1. Reconcile strong-isolation kills: the hardware aborts
        //    transactional victims of plain writes asynchronously; the
        //    shadow learns of it from the emptied signatures.
        for v in 0..self.cfg.cores {
            let mv = self.cfg.machine_core(v);
            if self.shadow[v].active && !self.st.cores[mv].has_tx_footprint() {
                assert!(
                    matches!(
                        self.st.cores[mv].alert_pending,
                        Some(AlertCause::StrongIsolation(_))
                    ) || self.shadow[v].doomed,
                    "core {v}: transaction state vanished without strong \
                     isolation or an enemy CAS"
                );
                // `doomed` must survive until the pending AOU alert is
                // serviced — the handler uses it to justify the ABORTED
                // TSW it will observe.
                let doomed = self.shadow[v].doomed;
                self.shadow[v].clear_tx();
                self.shadow[v].doomed = doomed;
            }
        }

        // 2. CST exactness: hardware registers equal the shadow folded
        //    from reported conflicts. Catches silent sets *and* silent
        //    clears, including the history-dependent asymmetry after a
        //    committer's copy-and-clear.
        for (i, sh) in self.shadow.iter().enumerate() {
            let (rw, wr, ww) = self.st.cores[self.cfg.machine_core(i)].csts.snapshot();
            assert_eq!(
                (rw, wr, ww),
                (sh.rw, sh.wr, sh.ww),
                "core {i}: hardware CSTs diverge from reported conflicts"
            );
        }

        // 3. Signature conservativeness: true access sets are covered.
        for (i, sh) in self.shadow.iter().enumerate() {
            let mi = self.cfg.machine_core(i);
            for (l, _) in sh.reads.iter() {
                assert!(
                    self.st.cores[mi].rsig.contains(self.cfg.data_line(l)),
                    "core {i}: true read L{l} missing from Rsig"
                );
            }
            for (l, _) in sh.writes.iter() {
                assert!(
                    self.st.cores[mi].wsig.contains(self.cfg.data_line(l)),
                    "core {i}: true write L{l} missing from Wsig"
                );
            }
        }

        // 4. Data isolation: committed memory is exactly the shadow;
        //    TSWs are exactly what the driver last published.
        for l in 0..self.cfg.lines {
            assert_eq!(
                self.st.mem.read(self.cfg.data_addr(l)),
                self.shadow_mem[l],
                "L{l}: committed memory diverged (speculation leaked?)"
            );
        }
        for c in 0..self.cfg.cores {
            assert_eq!(
                self.st.mem.read(self.cfg.tsw_addr(c)),
                self.shadow[c].tsw,
                "core {c}: TSW memory diverged from driver bookkeeping"
            );
        }
    }

    /// Quiescence, for a caller that keeps its state (shrink replay,
    /// the random walk, liveness, tests): [`Driver::quiesce`] on a
    /// fork.
    pub fn check_quiescence(&self) {
        self.fork().quiesce();
    }

    /// Quiescence: aborting every live transaction from here must
    /// yield a clean machine with committed memory untouched. Consumes
    /// the state it checks — the explorer runs it on the child it is
    /// about to discard. It is handed a swept state (every
    /// [`Driver::apply`] ends in a sweep) and sweeps the machine again
    /// only after a change no sweep has covered.
    pub fn quiesce(&mut self) {
        let mut committed = [0; MAX_LINES];
        committed[..self.shadow_mem.len()].copy_from_slice(&self.shadow_mem);
        let mut unswept = false;
        for c in 0..self.cfg.cores {
            let mc = self.cfg.machine_core(c);
            if self.st.cores[mc].alert_pending.is_some() {
                unswept = !self.service_alert(c);
            }
            if self.shadow[c].active {
                // A CAS and an abort, each ending in a sweep.
                self.abort(c);
                unswept = false;
            }
            if self.st.cores[mc].alert_pending.is_some() {
                unswept = !self.service_alert(c);
            }
        }
        for (l, &v) in self.shadow_mem.iter().enumerate() {
            assert_eq!(
                v, committed[l],
                "quiescence: aborts changed committed memory at L{l}"
            );
        }
        for c in 0..self.cfg.cores {
            let core = &self.st.cores[self.cfg.machine_core(c)];
            assert!(
                !core.has_tx_footprint(),
                "quiescence: core {c} keeps live signatures after abort-all"
            );
            assert!(
                core.csts.is_clear(),
                "quiescence: core {c} keeps CST bits after abort-all"
            );
            assert!(
                core.l1.iter_all().all(|e| !e.state.is_speculative()),
                "quiescence: core {c} keeps speculative lines after abort-all"
            );
            assert!(
                core.ot.as_ref().is_none_or(|ot| ot.is_empty()),
                "quiescence: core {c} keeps uncommitted OT entries after abort-all"
            );
        }
        self.check_shadow();
        if unswept {
            self.st.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// From a swept state, quiescence costs the sweeps of its abort (the
    /// CAS and the abort instruction) and no trailing re-sweep; with
    /// nothing to abort, it costs none.
    #[test]
    fn quiesce_does_not_resweep_a_swept_state() {
        let mut d = Driver::new(CheckConfig::new(2, 1));
        d.quiesce();
        assert_eq!(d.st.sweeps(), 0);
        d.apply(Op::TWrite(0, 0));
        let (mut aborted, before) = (d.fork(), d.st.sweeps());
        aborted.abort(0);
        d.quiesce();
        assert!(aborted.st.sweeps() > 0);
        assert_eq!(d.st.sweeps() - before, aborted.st.sweeps());
    }
}
