//! Outside-in layer probes: each a warmed loop around one public call
//! of one layer, reported as the best of a few rounds.
//!
//! The probes price the layers from the outside — they see the cost of
//! a call on a small, hot working set, not the cache-footprint effects
//! a 64-core run adds. What they cannot see is reported as
//! `est.unattributed_share`, never folded into a layer.
//!
//! `flextm-check` in the dependency graph turns `flextm-sim`'s `check`
//! feature on for this binary, so protocol probes go through
//! `Machine::with_state` (invariant sweeps off); a probe built on
//! `SimState::for_tests` would time the sweep instead.

use crate::alloc;
use crate::checker;
use crate::spec::Runtime;
use flextm_check::canon::canon;
use flextm_check::{explore_jobs, Driver, Op};
use flextm_sig::{LineAddr, ProcSet, Signature, SignatureConfig};
use flextm_sim::{
    AbortCause, AccessKind, Addr, BankedDir, CstKind, CstSet, DirEntry, L1Cache, L1State, Machine,
    MachineConfig, OverflowTable, L2, WORDS_PER_LINE,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds each probe runs; the fastest is reported.
const ROUNDS: u32 = 5;
/// Iterations per round of a nanosecond-scale probe.
const ITERS: u64 = 20_000;
/// Directory entries the `dir.*` and `l2.*` probes run against: what
/// `ht-64t` ends its timed region with.
const DIR_LINES: u64 = 4_873;

/// Probe results, in declaration order.
#[derive(Debug, Clone, Default)]
pub struct Probes(Vec<(&'static str, &'static str, f64)>);

impl Probes {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }

    /// The value of probe `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such probe ran.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
            .unwrap_or_else(|| panic!("probe {name} did not run"))
    }

    /// `(name, unit, value)` in declaration order. Every probe is a
    /// cost (lower is better) except the one `ratio`, a speed-up.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// The fastest of [`ROUNDS`] calls of `once`.
fn best(mut once: impl FnMut() -> f64) -> f64 {
    (0..ROUNDS).map(|_| once()).fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per call of `f`, warmed, best of [`ROUNDS`].
fn per_iter_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 4 {
        f(i);
    }
    best(|| {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    })
}

/// Accumulates the timed parts of iterations whose preparation must
/// stay untimed.
#[derive(Default)]
struct Stopwatch {
    total: Duration,
    laps: u64,
}

impl Stopwatch {
    fn lap<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.total += t.elapsed();
        self.laps += 1;
        r
    }
}

/// Nanoseconds per lap of the parts `f` passes to its stopwatch, minus
/// the cost of reading the clock, best of [`ROUNDS`].
fn per_lap_ns(iters: u64, mut f: impl FnMut(u64, &mut Stopwatch)) -> f64 {
    let clock_ns = per_iter_ns(ITERS, |_| {
        black_box(Instant::now().elapsed());
    });
    let mut warm = Stopwatch::default();
    for i in 0..iters / 4 {
        f(i, &mut warm);
    }
    best(|| {
        let mut sw = Stopwatch::default();
        for i in 0..iters {
            f(i, &mut sw);
        }
        (sw.total.as_nanos() as f64 / sw.laps as f64 - clock_ns).max(0.0)
    })
}

fn paper_machine(cores: usize) -> Machine {
    Machine::new(MachineConfig::paper_default().with_cores(cores))
}

fn line_addr(i: u64) -> Addr {
    Addr::new(0x10_0000 + i * 64)
}

fn sig_probes(p: &mut Probes) {
    let cfg = SignatureConfig::paper_default;
    let mut s = Signature::new(cfg());
    p.put(
        "sig.insert_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            s.insert(LineAddr(black_box(i.wrapping_mul(0x9E37))))
        }),
    );

    let keys: Vec<_> = (0..64u64).map(|i| s.key(LineAddr(i * 31))).collect();
    p.put(
        "sig.contains_key_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            black_box(s.contains_key(black_box(keys[(i & 63) as usize])));
        }),
    );

    let mut acc = Signature::new(cfg());
    p.put(
        "sig.union_ns",
        "ns",
        per_iter_ns(ITERS, |_| acc.union_with(black_box(&s))),
    );

    // Eight members straddling the two 64-bit words of a 128-core set.
    let set: ProcSet = [0usize, 5, 17, 40, 63, 64, 90, 127].into_iter().collect();
    p.put(
        "sig.procset_iter_ns",
        "ns",
        per_iter_ns(ITERS, |_| {
            black_box(black_box(set).iter().sum::<usize>());
        }),
    );
}

fn cache_probes(p: &mut Probes) {
    let cfg = MachineConfig::paper_default();
    let new_l1 = || L1Cache::new(cfg.l1_sets(), cfg.l1_ways, cfg.victim_entries);
    let capacity = (cfg.l1_sets() * cfg.l1_ways) as u64;

    let mut c = new_l1();
    for i in 0..64 {
        c.fill(LineAddr(i), L1State::S);
    }
    p.put(
        "cache.probe_hit_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            black_box(c.probe_slot(LineAddr(black_box(i & 63))));
        }),
    );

    // Cycling over four capacities makes every fill evict the LRU way.
    let mut c = new_l1();
    p.put(
        "cache.fill_evict_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            black_box(c.fill(LineAddr(i % (4 * capacity)), L1State::E));
        }),
    );

    const SPEC_LINES: u64 = 64;
    let fill_speculative = |c: &mut L1Cache| {
        for l in 0..SPEC_LINES {
            let (slot, _) = c.fill_slot(LineAddr(l), L1State::Tmi);
            let data = c.alloc_data();
            c.put_data(slot, data);
        }
    };
    let mut c = new_l1();
    let mut drained = Vec::new();
    let commit = per_lap_ns(200, |_, sw| {
        fill_speculative(&mut c);
        sw.lap(|| c.flash_commit_into(&mut drained));
        for (line, data) in drained.drain(..) {
            c.retire_data(data);
            c.invalidate(line);
        }
    });
    p.put(
        "cache.flash_commit_ns_per_line",
        "ns",
        commit / SPEC_LINES as f64,
    );

    let mut c = new_l1();
    let abort = per_lap_ns(200, |_, sw| {
        fill_speculative(&mut c);
        black_box(sw.lap(|| c.flash_abort()));
    });
    p.put(
        "cache.flash_abort_ns_per_line",
        "ns",
        abort / SPEC_LINES as f64,
    );
}

fn directory_probes(p: &mut Probes) {
    let cfg = MachineConfig::paper_default();
    let entry = DirEntry {
        sharers: ProcSet::bit(3) | ProcSet::bit(70),
        owners: ProcSet::empty(),
    };
    let mut dir = BankedDir::new();
    for i in 0..DIR_LINES {
        dir.insert(LineAddr(i), entry);
    }
    p.put(
        "dir.get_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            black_box(dir.get(LineAddr(black_box(i.wrapping_mul(97) % DIR_LINES))));
        }),
    );
    p.put(
        "dir.insert_remove_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            let line = LineAddr(DIR_LINES + (i & 1023));
            dir.insert(line, entry);
            black_box(dir.remove(line));
        }),
    );

    let mut l2 = L2::new(cfg.l2_sets(), cfg.l2_ways, cfg.signature.clone());
    p.put(
        "l2.reference_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            black_box(l2.reference(LineAddr(black_box(i.wrapping_mul(97) % DIR_LINES))));
        }),
    );

    let mut ot = OverflowTable::new(cfg.signature.clone());
    p.put(
        "ot.insert_lookup_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            let line = LineAddr(i & 255);
            ot.insert(line, Box::new([i; WORDS_PER_LINE]));
            black_box(ot.lookup(line));
        }),
    );

    let mut cst = CstSet::new();
    p.put(
        "cst.set_copy_clear_ns",
        "ns",
        per_iter_ns(ITERS, |i| {
            cst.set(CstKind::RW, (i & 127) as usize);
            cst.set(CstKind::WR, 70);
            black_box(cst.copy_and_clear(CstKind::WR));
            cst.clear_all();
        }),
    );
}

/// L1 misses served by the L2 on a `cores`-wide machine: core 0 walks a
/// region four L1 capacities long that core 1 already pulled into the L2.
fn miss_fill_ns(cores: usize) -> f64 {
    let machine = paper_machine(cores);
    let cfg = MachineConfig::paper_default();
    let region = 4 * (cfg.l1_sets() * cfg.l1_ways) as u64;
    machine.with_state(|st| {
        for i in 0..region {
            st.access(1, line_addr(i), AccessKind::Load, 0);
        }
        per_iter_ns(ITERS, |i| {
            black_box(
                st.access(0, line_addr(i % region), AccessKind::Load, 0)
                    .value,
            );
        })
    })
}

fn proto_probes(p: &mut Probes) {
    let machine = paper_machine(16);
    let tsw = Addr::new(0x100);
    machine.with_state(|st| {
        st.access(0, line_addr(0), AccessKind::Load, 0);
        p.put(
            "proto.l1_hit_load_ns",
            "ns",
            per_iter_ns(ITERS, |_| {
                black_box(
                    st.access(0, black_box(line_addr(0)), AccessKind::Load, 0)
                        .value,
                );
            }),
        );

        st.access(0, line_addr(1), AccessKind::TStore, 1);
        p.put(
            "proto.tstore_hit_ns",
            "ns",
            per_iter_ns(ITERS, |i| {
                black_box(
                    st.access(0, line_addr(1), AccessKind::TStore, black_box(i))
                        .value,
                );
            }),
        );
        st.abort_tx(0, AbortCause::Explicit);

        // Core 0 holds 64 lines speculatively written; each of core 1's
        // TLoads misses, is threatened, and leaves a TI copy that its
        // (untimed) abort drops again.
        for i in 0..64 {
            st.access(0, line_addr(64 + i), AccessKind::TStore, 1);
        }
        let conflicting = per_lap_ns(100, |_, sw| {
            sw.lap(|| {
                for i in 0..64 {
                    black_box(st.access(1, line_addr(64 + i), AccessKind::TLoad, 0).value);
                }
            });
            st.abort_tx(1, AbortCause::Explicit);
        });
        p.put("proto.conflicting_tload_ns", "ns", conflicting / 64.0);
        st.abort_tx(0, AbortCause::Explicit);

        let four_tstores = |st: &mut flextm_sim::SimState, i: u64| {
            for l in 0..4 {
                st.access(0, line_addr(256 + l), AccessKind::TStore, i);
            }
        };
        p.put(
            "proto.commit_4line_ns",
            "ns",
            per_lap_ns(ITERS / 4, |i, sw| {
                st.mem.write(tsw, 1);
                four_tstores(st, i);
                black_box(sw.lap(|| st.cas_commit(0, tsw, 1, 2)));
            }),
        );
        p.put(
            "proto.abort_4line_ns",
            "ns",
            per_lap_ns(ITERS / 4, |i, sw| {
                four_tstores(st, i);
                black_box(sw.lap(|| st.abort_tx(0, AbortCause::Explicit)));
            }),
        );
    });
    p.put("proto.miss_fill_ns.w16", "ns", miss_fill_ns(16));
    p.put("proto.miss_fill_ns.w64", "ns", miss_fill_ns(64));
}

/// Host nanoseconds and rendezvous count of `threads` simulated threads
/// each doing `ops` loads of a private, L1-resident line. The clock is
/// read inside the simulated threads (the longest one counts), so the
/// cost of starting and ending the run stays out.
fn private_loads(machine: &Machine, threads: usize, ops: u64) -> (f64, u64) {
    let before = machine.report();
    let elapsed = machine.run(threads, |proc| {
        let addr = line_addr(proc.core() as u64);
        let t = Instant::now();
        for _ in 0..ops {
            black_box(proc.load(addr));
        }
        t.elapsed()
    });
    let ns = elapsed.into_iter().max().unwrap_or_default().as_nanos() as f64;
    (ns, machine.report().delta(&before).sched.slow_ops)
}

fn machine_probes(p: &mut Probes) {
    let hit_ns = p.get("proto.l1_hit_load_ns");

    let machine = paper_machine(16);
    private_loads(&machine, 1, ITERS / 4);
    let fast = best(|| private_loads(&machine, 1, ITERS).0 / ITERS as f64);
    p.put("machine.fast_op_ns", "ns", (fast - hit_ns).max(0.0));
    p.put(
        "machine.work_ns",
        "ns",
        best(|| {
            let t = Instant::now();
            machine.run(1, |proc| {
                for _ in 0..ITERS {
                    proc.work(black_box(1));
                }
            });
            t.elapsed().as_nanos() as f64 / ITERS as f64
        }),
    );

    // The in-tree replacement for the lost rdtsc grant-path probe: what a
    // rendezvous costs beyond the L1 hit it schedules.
    for (name, threads) in [
        ("machine.rendezvous_ns.t2", 2usize),
        ("machine.rendezvous_ns.t16", 16),
        ("machine.rendezvous_ns.t64", 64),
    ] {
        let machine = paper_machine(threads.max(16));
        let ops = 128_000 / threads as u64;
        private_loads(&machine, threads, ops / 4);
        p.put(
            name,
            "ns",
            best(|| {
                let (ns, slow_ops) = private_loads(&machine, threads, ops);
                (ns - (threads as u64 * ops) as f64 * hit_ns).max(0.0) / slow_ops.max(1) as f64
            }),
        );
    }

    for (name, threads) in [
        ("machine.run_spawn_us.t16", 16usize),
        ("machine.run_spawn_us.t64", 64),
    ] {
        let machine = paper_machine(threads);
        machine.run(threads, |_| ());
        p.put(
            name,
            "us",
            best(|| {
                let t = Instant::now();
                machine.run(threads, |_| ());
                t.elapsed().as_nanos() as f64 / 1e3
            }),
        );
    }

    for (time_name, heap_name, cores) in [
        ("machine.new_us.w16", "machine.new_heap_mb.w16", 16usize),
        ("machine.new_us.w64", "machine.new_heap_mb.w64", 64),
        ("machine.new_us.w128", "machine.new_heap_mb.w128", 128),
    ] {
        let mut heap = 0u64;
        let us = best(|| {
            let live = alloc::mark().live;
            let t = Instant::now();
            let machine = paper_machine(cores);
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            heap = alloc::mark().live - live;
            drop(machine);
            us
        });
        p.put(time_name, "us", us);
        p.put(heap_name, "MiB", heap as f64 / (1u64 << 20) as f64);
    }
}

/// Host nanoseconds per committed transaction of `body` on one thread
/// of `runtime`.
fn txn_ns(runtime: Runtime, reads: u64, writes: u64) -> f64 {
    let machine = paper_machine(16);
    let rt = runtime.build(&machine, 1);
    let iters = ITERS / 4;
    let out = machine.run(1, |proc| {
        let mut th = rt.thread(0, proc);
        let mut body = |tx: &mut dyn flextm_sim::api::Txn| {
            for r in 0..reads {
                black_box(tx.read(line_addr(r))?);
            }
            for w in 0..writes {
                tx.write(line_addr(reads + w), 7)?;
            }
            Ok(())
        };
        per_iter_ns(iters, |_| {
            th.txn(&mut body);
        })
    });
    out[0]
}

fn runtime_probes(p: &mut Probes) {
    p.put("core.empty_txn_ns", "ns", txn_ns(Runtime::FlexTmLazy, 0, 0));
    p.put(
        "core.txn_4r1w_ns.lazy",
        "ns",
        txn_ns(Runtime::FlexTmLazy, 4, 1),
    );
    p.put(
        "core.txn_4r1w_ns.eager",
        "ns",
        txn_ns(Runtime::FlexTmEager, 4, 1),
    );
    p.put("stm.txn_4r1w_ns.cgl", "ns", txn_ns(Runtime::Cgl, 4, 1));
    p.put("stm.txn_4r1w_ns.rtmf", "ns", txn_ns(Runtime::RtmF, 4, 1));
    p.put("stm.txn_4r1w_ns.rstm", "ns", txn_ns(Runtime::Rstm, 4, 1));
    p.put("stm.txn_4r1w_ns.tl2", "ns", txn_ns(Runtime::Tl2, 4, 1));
}

fn checker_probes(p: &mut Probes) {
    for (fork_name, canon_name, wide) in [
        ("check.fork_us.narrow", "check.canon_us.narrow", false),
        ("check.fork_us.wide", "check.canon_us.wide", true),
    ] {
        let root = Driver::new(checker::config(wide));
        p.put(
            fork_name,
            "us",
            per_iter_ns(200, |_| drop(black_box(root.fork()))) / 1e3,
        );
        p.put(
            canon_name,
            "us",
            per_iter_ns(200, |_| {
                black_box(canon(&root));
            }) / 1e3,
        );
    }

    // One core reading, writing and committing one line returns the
    // driver to an idle state, so the cycle can repeat indefinitely.
    let cycle = [Op::TRead(0, 0), Op::TWrite(0, 0), Op::Commit(0)];
    let mut d = Driver::new(checker::config(false));
    for op in cycle {
        assert!(
            d.enabled_ops().contains(&op),
            "{op} is not enabled in the probe cycle"
        );
        d.apply(op);
    }
    let mut next = 0;
    p.put(
        "check.apply_ns",
        "ns",
        per_iter_ns(ITERS / 4, |_| {
            d.apply(cycle[next]);
            next = (next + 1) % cycle.len();
        }),
    );

    let explore_s = |jobs| {
        let t = Instant::now();
        black_box(explore_jobs(&checker::config(false), Some(5), jobs, None));
        t.elapsed().as_secs_f64()
    };
    let (mut one, mut two) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        one = one.min(explore_s(1));
        two = two.min(explore_s(2));
    }
    p.put("check.jobs2_speedup", "ratio", one / two);
}

/// Runs every probe once.
pub fn run_all() -> Probes {
    let mut p = Probes::default();
    sig_probes(&mut p);
    cache_probes(&mut p);
    directory_probes(&mut p);
    proto_probes(&mut p);
    machine_probes(&mut p);
    runtime_probes(&mut p);
    checker_probes(&mut p);
    p
}
