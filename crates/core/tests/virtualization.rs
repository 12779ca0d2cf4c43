//! Context-switch virtualization tests (paper §5): transactions that
//! survive descheduling, conflicts against suspended transactions
//! caught by summary signatures, virtualized AOU, and the
//! abort-on-migration policy.

use flextm::{FlexTm, FlexTmConfig, Mode, ResumeOutcome, TSW_ABORTED, TSW_COMMITTED};
use flextm_sim::api::{TmRuntime, TxRetry, Txn};
use flextm_sim::{Addr, Machine, MachineConfig};

fn machine(cores: usize) -> Machine {
    Machine::new(MachineConfig::small_test().with_cores(cores))
}

/// A mid-transaction suspend: drive the hardware directly
/// through the runtime's seams — begin a transaction, deschedule,
/// verify the machine state, reschedule, and commit.
#[test]
fn deschedule_preserves_speculative_write_until_commit() {
    let m = machine(2);
    let tm = FlexTm::new(&m, FlexTmConfig::lazy(2));
    let a = Addr::new(0x30_000);
    m.run(1, |proc| {
        let mut th = tm.flex_thread(0, proc.clone());
        // Open a transaction footprint by hand: BEGIN via a body that
        // suspends *after* the run. Simplest faithful route: use the
        // raw ISA exactly as the runtime does.
        proc.store(tm.descriptors().descriptor(0).tsw, flextm::TSW_ACTIVE);
        proc.aload(tm.descriptors().descriptor(0).tsw);
        proc.tstore(a, 99).expect("no alert");

        let token = th.deschedule();
        // While suspended, memory must not show the speculative value.
        assert_eq!(proc.load(a.offset(1)), 0);

        match th.reschedule(token) {
            ResumeOutcome::Resumed => {}
            other => panic!("unexpected resume outcome {other:?}"),
        }
        // The speculative value is reachable again (via the OT).
        let r = proc.tload(a).expect("no alert");
        assert_eq!(r.value, 99);
        let out = proc
            .cas_commit(
                tm.descriptors().descriptor(0).tsw,
                flextm::TSW_ACTIVE,
                TSW_COMMITTED,
            )
            .expect("no alert");
        assert!(matches!(out, flextm_sim::CasCommitOutcome::Committed(_)));
    });
    m.with_state(|st| assert_eq!(st.mem.read(a), 99));
}

#[test]
fn running_writer_aborts_suspended_reader_at_commit() {
    let m = machine(2);
    let tm = FlexTm::new(&m, FlexTmConfig::lazy(2));
    let x = Addr::new(0x40_000);
    m.run(2, |proc| {
        let core = proc.core();
        if core == 0 {
            // Thread 0: transaction that reads x, then is suspended.
            let mut th = tm.flex_thread(0, proc.clone());
            proc.store(tm.descriptors().descriptor(0).tsw, flextm::TSW_ACTIVE);
            proc.aload(tm.descriptors().descriptor(0).tsw);
            proc.tload(x).expect("no alert");
            let token = th.deschedule();
            // Stay suspended long enough for core 1 to commit a write.
            proc.work(8000);
            let outcome = th.reschedule(token);
            assert_eq!(
                outcome,
                ResumeOutcome::AbortedWhileSuspended,
                "the committing writer must have aborted the suspended reader"
            );
        } else {
            proc.work(2000);
            let mut th = tm.thread(1, proc);
            th.txn(&mut |tx| {
                tx.write(x, 5)?;
                Ok(())
            });
        }
    });
    m.with_state(|st| {
        assert_eq!(st.mem.read(x), 5);
        assert_eq!(
            st.mem.read(tm.descriptors().descriptor(0).tsw) & 3,
            TSW_ABORTED
        );
    });
}

#[test]
fn suspended_writer_conflict_marks_running_reader() {
    // Thread 0 TStores x and suspends. Thread 1 reads x: the summary
    // signature traps, and the suspended transaction's virtual W-R
    // gains thread 1's bit — so when thread 0 resumes and commits, it
    // aborts thread 1's (long-running) transaction.
    let m = machine(2);
    let tm = FlexTm::new(&m, FlexTmConfig::lazy(2));
    let x = Addr::new(0x50_000);
    let y = Addr::new(0x60_000);
    m.run(2, |proc| {
        let core = proc.core();
        if core == 0 {
            let mut th = tm.flex_thread(0, proc.clone());
            proc.store(tm.descriptors().descriptor(0).tsw, flextm::TSW_ACTIVE);
            proc.aload(tm.descriptors().descriptor(0).tsw);
            proc.tstore(x, 123).expect("no alert");
            let token = th.deschedule();
            proc.work(5000); // reader runs during this window
            if th.reschedule(token) == ResumeOutcome::Resumed {
                // Commit: must abort the reader recorded in virtual W-R.
                let wr_mask = {
                    // The merged CSTs were restored into hardware.
                    proc.read_cst(flextm_sim::CstKind::WR)
                };
                assert!(wr_mask.contains(1), "virtual W-R lost the reader");
                let out = proc
                    .cas_commit(
                        tm.descriptors().descriptor(0).tsw,
                        flextm::TSW_ACTIVE,
                        TSW_COMMITTED,
                    )
                    .expect("no alert");
                // The hardware refuses while W-R is set; the software
                // Commit() would abort enemies first. Reproduce that.
                if matches!(out, flextm_sim::CasCommitOutcome::ConflictsPending { .. }) {
                    let wr = proc.copy_and_clear_cst(flextm_sim::CstKind::WR);
                    let ww = proc.copy_and_clear_cst(flextm_sim::CstKind::WW);
                    for enemy in flextm_sim::procs_in_mask(wr | ww) {
                        // Read-then-CAS, as the runtime does with
                        // sequence-tagged TSWs.
                        let etsw = tm.descriptors().descriptor(enemy).tsw;
                        let old = proc.load(etsw);
                        if old & 3 == flextm::TSW_ACTIVE {
                            proc.cas(etsw, old, (old & !3) | TSW_ABORTED);
                        }
                    }
                    let out = proc
                        .cas_commit(
                            tm.descriptors().descriptor(0).tsw,
                            flextm::TSW_ACTIVE,
                            TSW_COMMITTED,
                        )
                        .expect("no alert");
                    assert!(matches!(out, flextm_sim::CasCommitOutcome::Committed(_)));
                }
            }
        } else {
            proc.work(1500);
            let mut th = tm.thread(1, proc);
            // Long transaction reading x; it may be aborted by thread
            // 0's resume-commit and then retried.
            th.txn(&mut |tx| {
                let v = tx.read(x)?;
                tx.work(6000)?;
                tx.write(y, v)?;
                Ok(())
            });
        }
    });
    m.with_state(|st| {
        assert_eq!(st.mem.read(x), 123);
        // The reader eventually committed with the post-commit value.
        assert_eq!(st.mem.read(y), 123);
    });
}

#[test]
fn migration_aborts_and_restarts() {
    let m = machine(2);
    let tm = FlexTm::new(&m, FlexTmConfig::lazy(2));
    let a = Addr::new(0x70_000);
    m.run(1, |proc| {
        let mut th = tm.flex_thread(0, proc.clone());
        proc.store(tm.descriptors().descriptor(0).tsw, flextm::TSW_ACTIVE);
        proc.aload(tm.descriptors().descriptor(0).tsw);
        proc.tstore(a, 1).expect("no alert");
        let token = th.deschedule();
        th.migrate_aborts(token);
    });
    m.with_state(|st| {
        assert_eq!(st.mem.read(a), 0, "speculative write must not survive");
        assert_eq!(
            st.mem.read(tm.descriptors().descriptor(0).tsw) & 3,
            TSW_ABORTED
        );
    });
    assert!(tm.cmt_len() == 0, "CMT entry must be cleaned up");
}

#[test]
fn eager_running_writer_aborts_suspended_enemy_immediately() {
    let m = machine(2);
    let tm = FlexTm::new(
        &m,
        FlexTmConfig {
            mode: Mode::Eager,
            cm: flextm::CmKind::Polka,
            threads: 2,
            serialized_commits: false,
        },
    );
    let x = Addr::new(0x80_000);
    m.run(2, |proc| {
        let core = proc.core();
        if core == 0 {
            let mut th = tm.flex_thread(0, proc.clone());
            proc.store(tm.descriptors().descriptor(0).tsw, flextm::TSW_ACTIVE);
            proc.aload(tm.descriptors().descriptor(0).tsw);
            proc.tstore(x, 7).expect("no alert");
            let token = th.deschedule();
            proc.work(6000);
            let outcome = th.reschedule(token);
            assert_eq!(outcome, ResumeOutcome::AbortedWhileSuspended);
        } else {
            proc.work(2000);
            let mut th = tm.thread(1, proc);
            th.txn(&mut |tx| {
                tx.write(x, 8)?;
                Ok(())
            });
        }
    });
    m.with_state(|st| assert_eq!(st.mem.read(x), 8));
}

/// Body helper used by several tests: silence unused-import warnings by
/// exercising the trait surface.
#[allow(dead_code)]
fn body_shape(tx: &mut dyn Txn) -> Result<(), TxRetry> {
    let v = tx.read(Addr::new(0x8))?;
    tx.write(Addr::new(0x8), v)?;
    tx.work(1)
}
