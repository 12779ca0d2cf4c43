//! Exhaustive coverage of the Fig. 1 TMESI state machine: every
//! documented local-access and remote-request transition, pinned down
//! one edge at a time.
//!
//! Notation in test names: `from_X_on_Y_to_Z` — a line in state `X`
//! experiencing event `Y` ends in state `Z` at the observed core.

use flextm_sim::{AbortCause, AccessKind, Addr, ConflictKind, L1State, MachineConfig, SimState};

fn st() -> SimState {
    SimState::for_tests(MachineConfig::small_test())
}

fn a(x: u64) -> Addr {
    Addr::new(x)
}

fn state_of(st: &SimState, core: usize, addr: Addr) -> Option<L1State> {
    st.cores[core].l1.peek(addr.line()).map(|e| e.state)
}

// ---------- local transitions ----------

#[test]
fn from_i_on_load_to_e_when_alone() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Load, 0);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::E));
}

#[test]
fn from_i_on_load_to_s_when_shared() {
    let mut s = st();
    s.access(1, a(0x1000), AccessKind::Load, 0);
    s.access(0, a(0x1000), AccessKind::Load, 0);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::S));
    assert_eq!(state_of(&s, 1, a(0x1000)), Some(L1State::S));
}

#[test]
fn from_i_on_tload_to_s_unthreatened() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::TLoad, 0);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::S));
}

#[test]
fn from_i_on_tload_to_ti_when_threatened() {
    let mut s = st();
    s.access(1, a(0x1000), AccessKind::TStore, 9);
    let r = s.access(0, a(0x1000), AccessKind::TLoad, 0);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::Ti));
    assert_eq!(r.conflicts.get(0).unwrap().kind, ConflictKind::Threatened);
}

#[test]
fn from_i_on_store_to_m() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Store, 5);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::M));
}

#[test]
fn from_i_on_tstore_to_tmi() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::TStore, 5);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::Tmi));
}

#[test]
fn from_e_on_store_to_m_silent() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Load, 0);
    let misses = s.cores[0].stats.l1_misses;
    s.access(0, a(0x1000), AccessKind::Store, 5);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::M));
    assert_eq!(s.cores[0].stats.l1_misses, misses, "upgrade must be silent");
}

#[test]
fn from_e_on_tstore_to_tmi_silent() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Load, 0);
    s.access(0, a(0x1000), AccessKind::TStore, 5);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::Tmi));
}

#[test]
fn from_m_on_tstore_to_tmi_with_writeback() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Store, 5);
    let wb = s.cores[0].stats.writebacks;
    s.access(0, a(0x1000), AccessKind::TStore, 6);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::Tmi));
    assert_eq!(s.cores[0].stats.writebacks, wb + 1);
    assert_eq!(s.mem.read(a(0x1000)), 5, "committed version written back");
}

#[test]
fn from_s_on_tstore_to_tmi_via_tgetx() {
    let mut s = st();
    s.access(1, a(0x1000), AccessKind::Load, 0);
    s.access(0, a(0x1000), AccessKind::Load, 0); // both S
    s.access(0, a(0x1000), AccessKind::TStore, 5);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::Tmi));
    assert_eq!(state_of(&s, 1, a(0x1000)), None, "other sharer invalidated");
}

#[test]
fn from_ti_on_tload_hits_locally() {
    let mut s = st();
    s.mem.write(a(0x1000), 3);
    s.access(1, a(0x1000), AccessKind::TStore, 9);
    s.access(0, a(0x1000), AccessKind::TLoad, 0); // TI
    let hits = s.cores[0].stats.l1_hits;
    let r = s.access(0, a(0x1000), AccessKind::TLoad, 0);
    assert_eq!(r.value, 3, "TI serves the pre-transaction snapshot");
    assert_eq!(s.cores[0].stats.l1_hits, hits + 1);
}

#[test]
fn from_ti_on_tstore_to_tmi() {
    let mut s = st();
    s.access(1, a(0x1000), AccessKind::TStore, 9);
    s.access(0, a(0x1000), AccessKind::TLoad, 0); // TI
    s.access(0, a(0x1000), AccessKind::TStore, 4);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::Tmi));
}

// ---------- commit / abort transitions ----------

#[test]
fn commit_tmi_to_m_and_ti_to_i() {
    let mut s = st();
    let tsw = a(0x100);
    s.mem.write(tsw, 1);
    s.access(0, a(0x1000), AccessKind::TStore, 7);
    s.access(1, a(0x2000), AccessKind::TStore, 8);
    s.access(0, a(0x2000), AccessKind::TLoad, 0); // TI at core 0
    s.cas_commit(0, tsw, 1, 2);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::M));
    assert_eq!(state_of(&s, 0, a(0x2000)), None, "TI dropped at commit");
}

#[test]
fn abort_tmi_and_ti_to_i() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::TStore, 7);
    s.access(1, a(0x2000), AccessKind::TStore, 8);
    s.access(0, a(0x2000), AccessKind::TLoad, 0);
    s.abort_tx(0, AbortCause::Explicit);
    assert_eq!(state_of(&s, 0, a(0x1000)), None);
    assert_eq!(state_of(&s, 0, a(0x2000)), None);
}

// ---------- remote-request transitions ----------

#[test]
fn from_m_on_remote_gets_to_s_with_flush() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Store, 5);
    s.access(1, a(0x1000), AccessKind::Load, 0);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::S));
    assert_eq!(state_of(&s, 1, a(0x1000)), Some(L1State::S));
}

#[test]
fn from_e_on_remote_gets_to_s() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Load, 0); // E
    s.access(1, a(0x1000), AccessKind::Load, 0);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::S));
}

#[test]
fn from_m_on_remote_getx_to_i() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Store, 5);
    s.access(1, a(0x1000), AccessKind::Store, 6);
    assert_eq!(state_of(&s, 0, a(0x1000)), None);
    assert_eq!(state_of(&s, 1, a(0x1000)), Some(L1State::M));
}

#[test]
fn from_s_on_remote_tgetx_to_i() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Load, 0);
    s.access(1, a(0x1000), AccessKind::Load, 0);
    s.access(2, a(0x1000), AccessKind::TStore, 7);
    assert_eq!(state_of(&s, 0, a(0x1000)), None);
    assert_eq!(state_of(&s, 1, a(0x1000)), None);
    assert_eq!(state_of(&s, 2, a(0x1000)), Some(L1State::Tmi));
}

#[test]
fn from_tmi_on_remote_tgetx_stays_tmi_both_owners() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::TStore, 7);
    s.access(1, a(0x1000), AccessKind::TStore, 8);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::Tmi));
    assert_eq!(state_of(&s, 1, a(0x1000)), Some(L1State::Tmi));
}

#[test]
fn from_tmi_on_remote_gets_stays_tmi_responds_threatened() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::TStore, 7);
    let r = s.access(1, a(0x1000), AccessKind::TLoad, 0);
    assert_eq!(state_of(&s, 0, a(0x1000)), Some(L1State::Tmi));
    assert_eq!(r.conflicts.get(0).unwrap().kind, ConflictKind::Threatened);
}

#[test]
fn from_tmi_on_remote_getx_dies_strong_isolation() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::TStore, 7);
    s.access(1, a(0x1000), AccessKind::Store, 6);
    assert_eq!(state_of(&s, 0, a(0x1000)), None);
    assert!(s.cores[0].alert_pending.is_some());
    assert_eq!(s.mem.read(a(0x1000)), 6);
}

#[test]
fn from_ti_on_remote_tgetx_to_i() {
    let mut s = st();
    s.access(1, a(0x1000), AccessKind::TStore, 9);
    s.access(0, a(0x1000), AccessKind::TLoad, 0); // TI at 0
    s.access(2, a(0x1000), AccessKind::TStore, 5);
    assert_eq!(state_of(&s, 0, a(0x1000)), None);
}

// ---------- response-type table (Fig. 1 bottom right) ----------

#[test]
fn response_table_wsig_hit() {
    // Request GETX/TGETX/GETS against a Wsig hit: always Threatened.
    for kind in [AccessKind::TLoad, AccessKind::TStore] {
        let mut s = st();
        s.access(0, a(0x1000), AccessKind::TStore, 1);
        let r = s.access(1, a(0x1000), kind, 2);
        assert!(
            r.conflicts
                .iter()
                .any(|c| c.with == 0 && c.kind == ConflictKind::Threatened),
            "{kind:?} against a writer must be Threatened"
        );
    }
}

#[test]
fn response_table_rsig_hit() {
    // TGETX against an Rsig-only hit: Exposed-Read.
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::TLoad, 0);
    let r = s.access(1, a(0x1000), AccessKind::TStore, 2);
    assert!(
        r.conflicts
            .iter()
            .any(|c| c.with == 0 && c.kind == ConflictKind::ExposedRead),
        "TGETX against a reader must be Exposed-Read"
    );
    // GETS against an Rsig-only hit: Shared (no conflict).
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::TLoad, 0);
    let r = s.access(1, a(0x1000), AccessKind::TLoad, 0);
    assert!(r.conflicts.is_empty(), "read-read must not conflict");
}

/// The whole response column at once: one responder (core 0) in each
/// condition a directory-forwarded request can find it in — including
/// the ones only signatures reveal — against each of the four requests
/// from core 1. An outcome is one line: the reported conflicts in
/// order, the requester's and the responder's CSTs, both L1 states, the
/// responder's pending alert, and the line's directory bits (so sticky
/// demotion and a dropped bit read differently).
#[test]
fn response_table() {
    use flextm_sim::{AlertCause, CstKind};

    const LINE: u64 = 0x1000;
    const TSW: u64 = 0x100;

    #[derive(Debug, Clone, Copy)]
    enum Responder {
        M,
        E,
        S,
        /// TI at core 0, justified by a writer (core 2) that has since
        /// aborted — core 2 is left behind as a stale owner bit.
        Ti,
        Tmi,
        /// TMI displaced to the overflow table.
        TmiInOt,
        /// Writer whose copy left silently: only `Wsig` knows.
        WsigOnly,
        /// Reader whose copy left silently: only `Rsig` knows.
        RsigOnly,
        /// Exclusive copy the current transaction has also read.
        ERead,
        MRead,
        /// Resident TMI the transaction has also read: both signatures
        /// hit, so a TGETX gets W-W and the piggy-backed Exposed-Read.
        TmiRead,
        /// Resident TMI named by a (stale) sharer bit as well.
        TmiViaSharerBit,
        /// Stale owner bit, no copy and no transactional footprint.
        StaleOwner,
        /// ALoaded exclusive copy: losing it must alert.
        EAloaded,
    }

    fn prepare(cond: Responder) -> SimState {
        let mut s = st();
        let line = a(LINE).line();
        match cond {
            Responder::M => {
                s.access(0, a(LINE), AccessKind::Store, 5);
            }
            Responder::E => {
                s.access(0, a(LINE), AccessKind::Load, 0);
            }
            Responder::S => {
                // A committed transaction's read copy: S, no footprint.
                s.mem.write(a(TSW), 1);
                s.access(0, a(LINE), AccessKind::TLoad, 0);
                s.cas_commit(0, a(TSW), 1, 2);
            }
            Responder::Ti => {
                s.access(2, a(LINE), AccessKind::TStore, 9);
                s.access(0, a(LINE), AccessKind::TLoad, 0);
                s.abort_tx(2, AbortCause::Explicit);
            }
            Responder::Tmi => {
                s.access(0, a(LINE), AccessKind::TStore, 5);
            }
            Responder::TmiInOt => {
                s.access(0, a(LINE), AccessKind::TStore, 5);
                assert!(s.evict_line(0, line));
            }
            Responder::WsigOnly => {
                s.access(0, a(LINE), AccessKind::TStore, 5);
                s.cores[0].l1.invalidate(line);
            }
            Responder::RsigOnly => {
                s.access(0, a(LINE), AccessKind::TLoad, 0);
                s.cores[0].l1.invalidate(line);
            }
            Responder::ERead => {
                s.access(0, a(LINE), AccessKind::Load, 0);
                s.access(0, a(LINE), AccessKind::TLoad, 0);
            }
            Responder::MRead => {
                s.access(0, a(LINE), AccessKind::Store, 5);
                s.access(0, a(LINE), AccessKind::TLoad, 0);
            }
            Responder::TmiRead => {
                s.access(0, a(LINE), AccessKind::TLoad, 0);
                s.access(0, a(LINE), AccessKind::TStore, 5);
            }
            Responder::TmiViaSharerBit => {
                s.access(0, a(LINE), AccessKind::TStore, 5);
                s.l2.dir_mut(line).sharers.insert(0);
            }
            Responder::StaleOwner => {
                s.access(0, a(LINE), AccessKind::Store, 5);
                assert!(s.evict_line(0, line));
            }
            Responder::EAloaded => {
                s.aload(0, a(LINE));
            }
        }
        s
    }

    fn outcome(cond: Responder, req: AccessKind) -> String {
        let mut s = prepare(cond);
        let r = s.access(1, a(LINE), req, 7);
        let conflicts: Vec<String> = r
            .conflicts
            .iter()
            .map(|c| format!("{:?}@{}", c.kind, c.with))
            .collect();
        let csts = |core: usize| {
            let set: Vec<String> = [
                ("rw", CstKind::RW),
                ("wr", CstKind::WR),
                ("ww", CstKind::WW),
            ]
            .iter()
            .map(|&(name, k)| (name, s.cores[core].csts.read(k).to_u128()))
            .filter(|&(_, bits)| bits != 0)
            .map(|(name, bits)| format!("{name}={bits:b}"))
            .collect();
            set.join(",")
        };
        let l1 = |core: usize| state_of(&s, core, a(LINE)).map_or("I".into(), |x| format!("{x:?}"));
        let alert = match s.cores[0].alert_pending {
            None => "",
            Some(AlertCause::AouInvalidated(_)) => "aou",
            Some(AlertCause::StrongIsolation(_)) => "strong-isolation",
            Some(AlertCause::WatchRead(_) | AlertCause::WatchWrite(_)) => "watch",
        };
        let dir = s.l2.dir(a(LINE).line());
        format!(
            "[{}] req[{}] resp[{}] {}/{} alert[{}] owners={:b} sharers={:b}",
            conflicts.join(" "),
            csts(1),
            csts(0),
            l1(1),
            l1(0),
            alert,
            dir.owners.to_u128(),
            dir.sharers.to_u128(),
        )
    }

    const REQUESTS: [AccessKind; 4] = [
        AccessKind::Load,
        AccessKind::TLoad,
        AccessKind::Store,
        AccessKind::TStore,
    ];
    // Columns follow REQUESTS: Load, TLoad, Store, TStore. Fields:
    // [conflicts] req[CSTs of core 1] resp[CSTs of core 0]
    // requester/responder L1 state, the responder's alert, directory.
    let table: &[(Responder, [&str; 4])] = &[
        (Responder::M, [
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] M/I alert[] owners=10 sharers=0",
            "[] req[] resp[] Tmi/I alert[] owners=10 sharers=0",
        ]),
        (Responder::E, [
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] M/I alert[] owners=10 sharers=0",
            "[] req[] resp[] Tmi/I alert[] owners=10 sharers=0",
        ]),
        (Responder::S, [
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] M/I alert[] owners=10 sharers=0",
            "[] req[] resp[] Tmi/I alert[] owners=10 sharers=0",
        ]),
        (Responder::Ti, [
            "[] req[] resp[rw=100] S/Ti alert[] owners=0 sharers=11",
            "[] req[] resp[rw=100] S/Ti alert[] owners=0 sharers=11",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[ExposedRead@0] req[wr=1] resp[rw=110] Tmi/I alert[] owners=10 sharers=1",
        ]),
        (Responder::Tmi, [
            "[Threatened@0] req[] resp[] I/Tmi alert[] owners=1 sharers=0",
            "[Threatened@0] req[rw=1] resp[wr=10] Ti/Tmi alert[] owners=1 sharers=10",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[Threatened@0] req[ww=1] resp[ww=10] Tmi/Tmi alert[] owners=11 sharers=0",
        ]),
        (Responder::TmiInOt, [
            "[Threatened@0] req[] resp[] I/I alert[] owners=1 sharers=0",
            "[Threatened@0] req[rw=1] resp[wr=10] Ti/I alert[] owners=1 sharers=10",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[Threatened@0] req[ww=1] resp[ww=10] Tmi/I alert[] owners=11 sharers=0",
        ]),
        (Responder::WsigOnly, [
            "[Threatened@0] req[] resp[] I/I alert[] owners=1 sharers=0",
            "[Threatened@0] req[rw=1] resp[wr=10] Ti/I alert[] owners=1 sharers=10",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[Threatened@0] req[ww=1] resp[ww=10] Tmi/I alert[] owners=11 sharers=0",
        ]),
        (Responder::RsigOnly, [
            "[] req[] resp[] S/I alert[] owners=0 sharers=11",
            "[] req[] resp[] S/I alert[] owners=0 sharers=11",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[ExposedRead@0] req[wr=1] resp[rw=10] Tmi/I alert[] owners=10 sharers=1",
        ]),
        (Responder::ERead, [
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[ExposedRead@0] req[wr=1] resp[rw=10] Tmi/I alert[] owners=10 sharers=1",
        ]),
        (Responder::MRead, [
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[ExposedRead@0] req[wr=1] resp[rw=10] Tmi/I alert[] owners=10 sharers=1",
        ]),
        (Responder::TmiRead, [
            "[Threatened@0] req[] resp[] I/Tmi alert[] owners=1 sharers=0",
            "[Threatened@0] req[rw=1] resp[wr=10] Ti/Tmi alert[] owners=1 sharers=10",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[Threatened@0 ExposedRead@0] req[wr=1,ww=1] resp[rw=10,ww=10] Tmi/Tmi alert[] owners=11 sharers=0",
        ]),
        (Responder::TmiViaSharerBit, [
            "[Threatened@0] req[] resp[] I/Tmi alert[] owners=1 sharers=1",
            "[Threatened@0] req[rw=1] resp[wr=10] Ti/Tmi alert[] owners=1 sharers=11",
            "[] req[] resp[] M/I alert[strong-isolation] owners=10 sharers=0",
            "[Threatened@0] req[ww=1] resp[ww=10] Tmi/Tmi alert[] owners=11 sharers=1",
        ]),
        (Responder::StaleOwner, [
            "[] req[] resp[] E/I alert[] owners=10 sharers=0",
            "[] req[] resp[] S/I alert[] owners=0 sharers=10",
            "[] req[] resp[] M/I alert[] owners=10 sharers=0",
            "[] req[] resp[] Tmi/I alert[] owners=10 sharers=0",
        ]),
        (Responder::EAloaded, [
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] S/S alert[] owners=0 sharers=11",
            "[] req[] resp[] M/I alert[aou] owners=10 sharers=0",
            "[] req[] resp[] Tmi/I alert[aou] owners=10 sharers=0",
        ]),
    ];
    for &(cond, expected) in table {
        for (req, want) in REQUESTS.into_iter().zip(expected) {
            assert_eq!(
                outcome(cond, req),
                want,
                "{cond:?} responder, {req:?} request"
            );
        }
    }
}

/// `SimState::for_tests` must arm the per-operation invariant sweep in
/// every build of this suite, `cargo test -p flextm-sim` included: a
/// planted second `M` holder has to stop the very next operation.
#[test]
#[should_panic(expected = "multiple M/E holders")]
fn for_tests_arms_the_invariant_layer() {
    let mut s = st();
    s.access(0, a(0x1000), AccessKind::Store, 5);
    s.cores[1].l1.fill(a(0x1000).line(), L1State::M);
    s.access(2, a(0x2000), AccessKind::Load, 0);
}
