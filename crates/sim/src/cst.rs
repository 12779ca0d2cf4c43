//! Conflict summary tables (paper §3.2) — FlexTM's central contribution.
//!
//! Each processor keeps three bit-vector registers, one bit per *other*
//! processor:
//!
//! * `R-W` — a local read has conflicted with a remote write,
//! * `W-R` — a local write has conflicted with a remote read,
//! * `W-W` — a local write has conflicted with a remote write.
//!
//! Conflicts are tracked processor-by-processor rather than
//! line-by-line, which is what lets a lazy transaction commit with
//! purely local work: abort everyone in `W-R | W-W`, then CAS-Commit.

use flextm_sig::ProcSet;

/// Which of the three conflict summary tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CstKind {
    /// Local read vs. remote write.
    RW,
    /// Local write vs. remote read.
    WR,
    /// Local write vs. remote write.
    WW,
}

/// The three CST registers of one processor. Bits index processors
/// (full-map bit vector, as wide as the machine; [`ProcSet`] carries
/// `flextm_sig::MAX_CORES` bits — machine width is validated against it
/// at construction, see `MachineConfig::validate`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CstSet {
    rw: ProcSet,
    wr: ProcSet,
    ww: ProcSet,
}

impl CstSet {
    /// All-clear CSTs.
    pub fn new() -> Self {
        CstSet::default()
    }

    fn reg(&self, kind: CstKind) -> ProcSet {
        match kind {
            CstKind::RW => self.rw,
            CstKind::WR => self.wr,
            CstKind::WW => self.ww,
        }
    }

    fn reg_mut(&mut self, kind: CstKind) -> &mut ProcSet {
        match kind {
            CstKind::RW => &mut self.rw,
            CstKind::WR => &mut self.wr,
            CstKind::WW => &mut self.ww,
        }
    }

    /// Sets the bit for `proc` in table `kind` (hardware action on a
    /// conflicting coherence request/response).
    pub fn set(&mut self, kind: CstKind, proc: usize) {
        self.reg_mut(kind).insert(proc);
    }

    /// Clears the bit for `proc` in table `kind` (software "clean
    /// myself out of X's W-R" optimization, paper §3.6).
    pub fn clear_bit(&mut self, kind: CstKind, proc: usize) {
        self.reg_mut(kind).remove(proc);
    }

    /// Reads table `kind` as a processor set.
    pub fn read(&self, kind: CstKind) -> ProcSet {
        self.reg(kind)
    }

    /// The atomic copy-and-clear instruction (like SPARC `clruw`) used
    /// by the lazy `Commit()` routine (Fig. 3, line 1).
    pub fn copy_and_clear(&mut self, kind: CstKind) -> ProcSet {
        std::mem::take(self.reg_mut(kind))
    }

    /// True if the processor has a write conflict outstanding — the
    /// condition under which hardware fails a CAS-Commit (paper §3.6).
    pub fn has_write_conflicts(&self) -> bool {
        !(self.wr | self.ww).is_empty()
    }

    /// `W-R | W-W`: the set of transactions a lazy committer must abort.
    pub fn write_conflict_mask(&self) -> ProcSet {
        self.wr | self.ww
    }

    /// Number of distinct processors this one has conflicted with, in
    /// any table — the metric of the Fig. 4 "conflicting transactions"
    /// side table.
    pub fn conflicting_procs(&self) -> u32 {
        (self.rw | self.wr | self.ww).count()
    }

    /// Clears all three tables (abort / commit / context-switch save).
    pub fn clear_all(&mut self) {
        *self = CstSet::default();
    }

    /// True if all three tables are zero.
    pub fn is_clear(&self) -> bool {
        self.rw.is_empty() && self.wr.is_empty() && self.ww.is_empty()
    }

    /// Raw (rw, wr, ww) snapshot — software-visible for virtualization.
    pub fn snapshot(&self) -> (ProcSet, ProcSet, ProcSet) {
        (self.rw, self.wr, self.ww)
    }

    /// Restores a snapshot taken with [`CstSet::snapshot`].
    pub fn restore(&mut self, snap: (ProcSet, ProcSet, ProcSet)) {
        self.rw = snap.0;
        self.wr = snap.1;
        self.ww = snap.2;
    }

    /// Local CST well-formedness for processor `me` on an
    /// `ncores`-processor machine: CSTs summarize conflicts with *other*
    /// processors, so the self bit must never be set, and no bit may
    /// name a processor the machine doesn't have. (The cross-processor
    /// symmetry of paper §3.2 is history-dependent — a committed enemy
    /// clears its side first — so it is checked against shadow state by
    /// `flextm-check`, not here.)
    pub fn check_invariants(&self, me: usize, ncores: usize) {
        let legal = ProcSet::first_n(ncores);
        for (name, reg) in [("R-W", self.rw), ("W-R", self.wr), ("W-W", self.ww)] {
            assert!(
                !reg.contains(me),
                "core {me}: {name} CST has its own bit set ({reg:?})"
            );
            assert!(
                reg.subset_of(&legal),
                "core {me}: {name} CST names nonexistent processors \
                 ({reg:?}, {ncores} cores)"
            );
        }
    }
}

/// Iterator over the processor ids in a CST / owner mask, in ascending
/// order. Kept as a free function for the software layers (the paper's
/// "for each set bit" loops); `mask.iter()` is the same thing.
pub fn procs_in_mask(mask: ProcSet) -> impl Iterator<Item = usize> {
    mask.iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_read() {
        let mut c = CstSet::new();
        c.set(CstKind::WW, 3);
        c.set(CstKind::WW, 5);
        c.set(CstKind::RW, 1);
        assert_eq!(c.read(CstKind::WW), 0b101000);
        assert_eq!(c.read(CstKind::RW), 0b10);
        assert_eq!(c.read(CstKind::WR), 0);
    }

    #[test]
    fn set_and_read_beyond_word_boundary() {
        let mut c = CstSet::new();
        c.set(CstKind::WW, 100);
        c.set(CstKind::WW, 3);
        assert!(c.read(CstKind::WW).contains(100));
        assert_eq!(c.conflicting_procs(), 2);
        c.clear_bit(CstKind::WW, 100);
        assert_eq!(c.read(CstKind::WW), 0b1000);
    }

    #[test]
    fn copy_and_clear_is_atomic_take() {
        let mut c = CstSet::new();
        c.set(CstKind::WR, 2);
        assert_eq!(c.copy_and_clear(CstKind::WR), 0b100);
        assert_eq!(c.read(CstKind::WR), 0);
    }

    #[test]
    fn write_conflicts_ignore_rw() {
        let mut c = CstSet::new();
        c.set(CstKind::RW, 7);
        assert!(!c.has_write_conflicts());
        c.set(CstKind::WW, 7);
        assert!(c.has_write_conflicts());
        assert_eq!(c.write_conflict_mask(), 1 << 7);
    }

    #[test]
    fn conflicting_procs_unions_tables() {
        let mut c = CstSet::new();
        c.set(CstKind::RW, 0);
        c.set(CstKind::WR, 0);
        c.set(CstKind::WW, 1);
        assert_eq!(c.conflicting_procs(), 2);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut c = CstSet::new();
        c.set(CstKind::RW, 4);
        c.set(CstKind::WW, 9);
        let snap = c.snapshot();
        let mut d = CstSet::new();
        d.restore(snap);
        assert_eq!(c, d);
    }

    #[test]
    fn mask_iteration() {
        let procs: Vec<usize> = procs_in_mask(ProcSet::from_mask(0b1010)).collect();
        assert_eq!(procs, vec![1, 3]);
    }

    #[test]
    fn clear_bit_only_touches_one() {
        let mut c = CstSet::new();
        c.set(CstKind::WR, 1);
        c.set(CstKind::WR, 2);
        c.clear_bit(CstKind::WR, 1);
        assert_eq!(c.read(CstKind::WR), 0b100);
    }

    /// The protocol's paired record rule (§3.2): when writer `w` meets
    /// reader `r`, `w` sets W-R[r] while `r` sets R-W[w]; when two
    /// writers meet, both set W-W. Driving both sides of each event
    /// keeps the mirror identity — until one side commits and
    /// `copy_and_clear`s, which is exactly the history-dependent
    /// asymmetry the paper allows (and why `check_invariants` leaves
    /// symmetry to the model checker's shadow state).
    #[test]
    fn paired_records_are_symmetric_until_commit() {
        let mut cst = [CstSet::new(), CstSet::new()];
        // Core 0 writes a line core 1 has read...
        cst[0].set(CstKind::WR, 1);
        cst[1].set(CstKind::RW, 0);
        // ...and both write a second line.
        cst[0].set(CstKind::WW, 1);
        cst[1].set(CstKind::WW, 0);
        for (i, j) in [(0usize, 1usize), (1, 0)] {
            assert_eq!(
                cst[i].read(CstKind::WR).contains(j),
                cst[j].read(CstKind::RW).contains(i),
                "W-R[{i}→{j}] must mirror R-W[{j}→{i}]"
            );
            assert_eq!(
                cst[i].read(CstKind::WW).contains(j),
                cst[j].read(CstKind::WW).contains(i),
                "W-W must be symmetric while both run"
            );
        }
        // Core 1 commits: takes its registers, leaving core 0's view
        // one-sided — legal, and invisible to local well-formedness.
        assert_eq!(cst[1].copy_and_clear(CstKind::WW), 1 << 0);
        assert_ne!(cst[0].read(CstKind::WW), cst[1].read(CstKind::WW));
        cst[0].check_invariants(0, 2);
        cst[1].check_invariants(1, 2);
    }

    #[test]
    #[should_panic(expected = "its own bit")]
    fn check_rejects_self_bit() {
        let mut c = CstSet::new();
        c.set(CstKind::WW, 3);
        c.check_invariants(3, 8);
    }

    #[test]
    #[should_panic(expected = "nonexistent processors")]
    fn check_rejects_ghost_processor() {
        let mut c = CstSet::new();
        c.set(CstKind::RW, 9);
        c.check_invariants(0, 8);
    }

    /// The invariant sweep's kill list for CST well-formedness: core 0
    /// runs a transaction (so non-clear CSTs are legal) and one bad bit
    /// is planted; the machine sweep must name it.
    mod sweep_kills {
        use crate::config::MachineConfig;
        use crate::machine::SimState;
        use crate::mem::Addr;
        use crate::proto::AccessKind;

        fn in_tx() -> SimState {
            let mut st = SimState::for_tests(MachineConfig::small_test());
            st.access(0, Addr::new(0x1000), AccessKind::TLoad, 0);
            st
        }

        #[test]
        #[should_panic(expected = "core 0: W-W CST has its own bit set")]
        fn own_bit() {
            let mut st = in_tx();
            st.cores[0].csts.ww.insert(0);
            st.check_invariants();
        }

        #[test]
        #[should_panic(expected = "core 0: R-W CST names nonexistent processors")]
        fn processor_past_the_machine() {
            let mut st = in_tx();
            st.cores[0].csts.rw.insert(4);
            st.check_invariants();
        }
    }
}
