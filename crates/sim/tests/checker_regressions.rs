//! Regression tests for protocol bugs found by the `flextm-check`
//! explicit-state model checker (crates/check). Each test pins the
//! shrunk counterexample schedule the checker produced, expressed
//! through the public `SimState` API, with the observable behaviour
//! asserted on top of the per-operation invariant sweep that
//! `SimState::for_tests` arms.

use flextm_sim::{
    AbortCause, AccessKind, Addr, AlertCause, ConflictKind, CstKind, L1State, MachineConfig,
    ProcSet, SimState,
};

fn st() -> SimState {
    SimState::for_tests(MachineConfig::small_test())
}

fn a(x: u64) -> Addr {
    Addr::new(x)
}

/// Checker find #1 (`vm` summary regime): a transactional load whose
/// only conflict evidence is a summary-signature hit filled TI without
/// recording anything in the hardware R-W CST, so the moment the OS
/// retired the summary the TI snapshot had no justification left.
/// `handle_gets` must record R-W conservatively against every
/// processor in the Cores Summary.
#[test]
fn summary_hit_tload_records_rw_cst() {
    let mut s = st();
    // Core 0 runs a transaction that writes 0x2000, then gets
    // descheduled: state saved, summary installed.
    s.access(0, a(0x2000), AccessKind::TStore, 5);
    let saved = s.save_tx_state(0);
    s.install_summary(0, 77, &saved);
    // The OS also marks the processor in the Cores Summary register
    // (`Processor::set_descheduled` does both in the full stack).
    s.l2.cores_summary.insert(0);

    // Core 1's transactional read hits the write summary: TI fill.
    let r = s.access(1, a(0x2000), AccessKind::TLoad, 0);
    assert_eq!(r.summary_hits, ProcSet::bit(77));
    assert_eq!(
        s.cores[1].l1.peek(a(0x2000).line()).map(|e| e.state),
        Some(L1State::Ti)
    );
    // The R-W CST names the summary's processor, so the TI snapshot
    // stays justified by hardware state alone...
    assert_eq!(s.cores[1].csts.read(CstKind::RW), 1 << 0);
    // ...even after the OS retires the summary.
    s.remove_summary(0, 77);
    assert_eq!(
        s.cores[1].l1.peek(a(0x2000).line()).map(|e| e.state),
        Some(L1State::Ti)
    );
    assert_eq!(s.cores[1].csts.read(CstKind::RW), 1 << 0);
}

/// Checker find #2, shrunk schedule:
/// `c0.read c0.tread c0.evict c1.read c1.write c0.tread`.
/// A transactional reader holding the line in E lost it to a silent
/// eviction; a later plain *read* by another core treated the stale
/// owner bit as garbage and dropped it, so the subsequent plain write
/// found nobody to consult and never fired strong isolation — the
/// reader then re-read a different value while its TSW was intact.
/// The stale owner bit of a live transactional reader must demote to
/// a sharer bit, not vanish.
#[test]
fn evicted_tx_reader_survives_plain_read_then_aborts_on_write() {
    let mut s = st();
    s.access(0, a(0x3000), AccessKind::Load, 0); // E
    let r = s.access(0, a(0x3000), AccessKind::TLoad, 0); // tx read, hit
    assert_eq!(r.value, 0);
    s.cores[0].l1.invalidate(a(0x3000).line()); // silent eviction

    // The plain read must keep core 0 on the forward list.
    s.access(1, a(0x3000), AccessKind::Load, 0);

    // The plain write must now find core 0 and abort it (§3.5).
    let before = s.cores[0].stats.tx_aborts;
    s.access(1, a(0x3000), AccessKind::Store, 9);
    assert_eq!(
        s.cores[0].stats.tx_aborts,
        before + 1,
        "strong isolation lost track of the evicted transactional reader"
    );
    assert!(
        matches!(
            s.cores[0].alert_pending,
            Some(AlertCause::StrongIsolation(_))
        ),
        "victim must get the strong-isolation alert"
    );
}

/// Checker find #3a: an exclusive (E) grant left the requester's stale
/// sharer bit in place, so one core sat in both directory sets at once
/// — and sharer sweeps would invalidate a copy that owner handling had
/// deliberately preserved.
#[test]
fn exclusive_grant_clears_stale_sharer_bit() {
    let mut s = st();
    let line = a(0x4000).line();
    s.access(0, a(0x4000), AccessKind::TLoad, 0); // S + sharer bit
    s.abort_tx(0, AbortCause::Explicit);
    s.cores[0].l1.invalidate(line); // silent eviction; stale sharer bit
    s.access(0, a(0x4000), AccessKind::Load, 0); // alone again: E grant
    let d = s.l2.dir(line);
    assert_eq!(d.owners, 1 << 0);
    assert!(
        !d.sharers.contains(0),
        "E grant must clear the requester's stale sharer bit"
    );
}

/// Checker find #3b, shrunk schedule:
/// `c0.tread c0.evict c0.commit c0.read c0.twrite c1.twrite c0.tread`.
/// A TMI co-writer that was *also* reachable through a stale sharer
/// bit got its speculative copy invalidated by the sharer sweep of a
/// remote TStore — silently destroying its transaction's write — right
/// after the owner loop had correctly preserved it. TMI holders must
/// be skipped by the sharer sweep.
#[test]
fn tmi_co_writer_survives_stale_sharer_sweep() {
    let mut s = st();
    let line = a(0x5000).line();
    // Core 0 is the TMI owner; force a stale sharer bit alongside the
    // owner bit (the checker reached this through an E-grant that
    // predates fix #3a; forced directly so this test keeps guarding
    // the sweep even now that grants are clean).
    s.access(0, a(0x5000), AccessKind::TStore, 41);
    s.l2.dir_mut(line).sharers.insert(0);

    let r = s.access(1, a(0x5000), AccessKind::TStore, 42);
    assert!(
        r.conflicts
            .iter()
            .any(|c| c.with == 0 && c.kind == ConflictKind::Threatened),
        "co-writer W-W conflict must be reported"
    );
    // Core 0's speculative copy must survive the sweep intact.
    let e = s.cores[0].l1.peek(line).expect("TMI copy destroyed");
    assert_eq!(e.state, L1State::Tmi);
    assert_eq!(
        s.cores[0].l1.peek_data(line).expect("TMI carries data")[0],
        41,
        "speculative data lost"
    );
    // And its own re-read still sees its speculative value.
    let r = s.access(0, a(0x5000), AccessKind::TLoad, 0);
    assert_eq!(r.value, 41);
}
