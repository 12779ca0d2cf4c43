//! A plain store to a line the storing core holds TMI (the escape
//! store, §3.5) must abort every remote transactional reader of the
//! line — also after an L2 eviction has dropped the line's directory
//! entry, when the sweep has to rebuild it from the L1s and signatures
//! as a miss does (§4.1). The model checker's geometry never evicts
//! from the L2, so it cannot reach this case.

use flextm_sim::{AccessKind, Addr, AlertCause, MachineConfig, SimState};

const X: u64 = 0x1000;
const Y: u64 = 0x2000;

/// Core 1 reads X in a transaction, core 0 writes it speculatively
/// (TMI), core 2's load of Y evicts X from the L2 when `evict`, then
/// core 0 stores X non-transactionally.
fn escape_store(evict: bool) -> SimState {
    let config = if evict {
        // A one-line L2: any other line evicts X and its directory
        // entry.
        MachineConfig {
            l2_bytes: 64,
            l2_ways: 1,
            ..MachineConfig::small_test()
        }
    } else {
        MachineConfig::small_test()
    };
    let mut st = SimState::for_tests(config);
    st.access(1, Addr::new(X), AccessKind::TLoad, 0);
    st.access(0, Addr::new(X), AccessKind::TStore, 7);
    st.access(2, Addr::new(Y), AccessKind::Load, 0);
    assert_eq!(st.l2.has_dir_info(Addr::new(X).line()), !evict);
    st.access(0, Addr::new(X), AccessKind::Store, 9);
    assert_eq!(st.mem.read(Addr::new(X)), 9, "the plain store is committed");
    st
}

fn assert_reader_aborted(st: &SimState) {
    let reader = &st.cores[1];
    assert_eq!(
        reader.alert_pending,
        Some(AlertCause::StrongIsolation(Addr::new(X).line())),
        "the transactional reader must get the strong-isolation alert"
    );
    assert_eq!(
        reader.stats.tx_aborts, 1,
        "the reader's transaction is aborted"
    );
    assert!(
        !reader.has_tx_footprint(),
        "the reader's signatures are cleared"
    );
}

#[test]
fn escape_store_aborts_the_transactional_reader() {
    assert_reader_aborted(&escape_store(false));
}

#[test]
fn escape_store_after_an_l2_eviction_aborts_the_transactional_reader() {
    assert_reader_aborted(&escape_store(true));
}
