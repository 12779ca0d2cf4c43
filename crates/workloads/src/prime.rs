//! Prime factorization: the CPU-intensive, non-transactional
//! background job of the §7.4 multiprogramming experiments
//! (Fig. 5(e–f)). Trial division over a thread-private candidate, with
//! the arithmetic charged as compute cycles and the candidate table
//! read from private memory.

use crate::harness::{ThreadCtx, Workload};
use crate::rng::WlRng;
use flextm_sim::api::TmThread;
use flextm_sim::{Addr, Machine, WORDS_PER_LINE};

/// Compute cycles charged per trial division.
const CYCLES_PER_TRIAL: u64 = 4;

/// The prime-factorization job. `Prime::default()` has no scratch area
/// yet; [`Prime::setup`] places it.
#[derive(Debug, Default)]
pub struct Prime {
    /// Private scratch area (one line per thread, for result stores).
    scratch: Addr,
}

impl Prime {
    /// Allocates the scratch area. Called once, before any `factor`.
    pub fn setup(&mut self, machine: &Machine) {
        machine.with_state(|_| {
            // Dedicated arena: Prime is co-scheduled with a TM workload
            // whose structures live in the shared setup arena;
            // overlapping scratch would turn every prime store into a
            // strong-isolation kill of the TM app.
            let alloc = crate::alloc::NodeAlloc::for_thread(250);
            self.scratch = alloc.alloc_lines(64);
        });
    }

    /// Factors `n` on `th`'s processor, charging trial divisions as
    /// compute. Returns the number of prime factors found.
    pub fn factor(&self, th: &dyn TmThread, tid: usize, mut n: u64) -> u32 {
        let proc = th.proc();
        let out = self.scratch.offset(tid as u64 * WORDS_PER_LINE as u64);
        let mut factors = 0u32;
        let mut trials = 0u64;
        let mut d = 2u64;
        while d * d <= n {
            trials += 1;
            while n.is_multiple_of(d) {
                n /= d;
                factors += 1;
                trials += 1;
            }
            d += 1;
            if trials >= 64 {
                proc.work(trials * CYCLES_PER_TRIAL);
                trials = 0;
            }
        }
        if n > 1 {
            factors += 1;
        }
        proc.work((trials + 1) * CYCLES_PER_TRIAL);
        proc.store(out, factors as u64);
        factors
    }
}

/// The Fig. 5(e–f) multiprogramming mix: a transactional `app` sharing
/// each core with [`Prime`] under user-level yield-on-abort scheduling
/// (§7.4) — every aborted attempt of the app yields the CPU to one
/// chunk of prime work before the retry. A unit's prime chunks are its
/// attempts − 1, so a run's prime throughput is `attempts − committed`.
pub struct PrimeMix {
    app: Box<dyn Workload>,
    prime: Prime,
}

impl PrimeMix {
    /// Co-schedules Prime with `app`.
    pub fn new(app: Box<dyn Workload>) -> Self {
        PrimeMix {
            app,
            prime: Prime::default(),
        }
    }
}

impl Workload for PrimeMix {
    fn name(&self) -> &str {
        self.app.name()
    }

    fn setup(&mut self, machine: &Machine) {
        self.app.setup(machine);
        self.prime.setup(machine);
    }

    fn run_once(&self, th: &mut dyn TmThread, ctx: &mut ThreadCtx) -> u32 {
        let attempts = self.app.run_once(th, ctx);
        for _ in 1..attempts {
            // Sized from the yield's simulated time, not `ctx.rng`:
            // the app draws the same transaction sequence however
            // often it aborts, so eager and lazy cells stay comparable.
            let n = 100_000 + WlRng::new(th.proc().now(), ctx.tid).below(1 << 18);
            self.prime.factor(th, ctx.tid, n);
        }
        attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextm_sim::api::TmRuntime;
    use flextm_sim::MachineConfig;
    use flextm_stm::Cgl;

    #[test]
    fn factor_counts_are_correct() {
        let m = Machine::new(MachineConfig::small_test());
        let mut wl = Prime::default();
        wl.setup(&m);
        let cgl = Cgl::new(&m);
        let counts = m.run(1, |proc| {
            let th = cgl.thread(0, proc);
            [
                wl.factor(th.as_ref(), 0, 12),   // 2,2,3
                wl.factor(th.as_ref(), 0, 97),   // prime
                wl.factor(th.as_ref(), 0, 1024), // 2^10
            ]
        });
        assert_eq!(counts[0], [3, 1, 10]);
    }

    /// An app whose every unit takes a scripted number of attempts and
    /// touches nothing.
    struct Scripted(u32);

    impl Workload for Scripted {
        fn name(&self) -> &str {
            "Scripted"
        }
        fn setup(&mut self, _machine: &Machine) {}
        fn run_once(&self, _th: &mut dyn TmThread, _ctx: &mut ThreadCtx) -> u32 {
            self.0
        }
    }

    #[test]
    fn the_mix_reports_the_apps_attempts_and_yields_once_per_extra_one() {
        use crate::harness::{run_measured, RunConfig, RunResult};
        let measure = |mut wl: Box<dyn Workload>, threads| {
            let m = Machine::new(MachineConfig::small_test().with_cores(4));
            wl.setup(&m);
            let tm = flextm::FlexTm::new(&m, flextm::FlexTmConfig::eager(threads));
            let config = RunConfig {
                threads,
                txns_per_thread: 12,
                warmup_per_thread: 2,
                seed: 7,
            };
            run_measured(&m, &tm, wl.as_ref(), config)
        };
        let mix = |app: Box<dyn Workload>| -> Box<dyn Workload> { Box::new(PrimeMix::new(app)) };
        // No abort, no prime work; two aborts a unit, two chunks a unit.
        let work = |r: &RunResult| r.report.total(|c| c.work_cycles);
        let first_try = measure(mix(Box::new(Scripted(1))), 1);
        let third_try = measure(mix(Box::new(Scripted(3))), 1);
        assert_eq!((first_try.committed, first_try.attempts), (12, 12));
        assert_eq!((third_try.committed, third_try.attempts), (12, 36));
        assert_eq!(work(&first_try), 0);
        assert!(work(&third_try) >= 24 * CYCLES_PER_TRIAL);
        // A contended app: every unit still commits, and the yields cost.
        let alone = measure(Box::new(crate::LfuCache::paper()), 4);
        let mixed = measure(mix(Box::new(crate::LfuCache::paper())), 4);
        assert_eq!((alone.committed, mixed.committed), (48, 48));
        assert!(mixed.attempts > mixed.committed, "the mix never aborted");
        assert!(mixed.cycles > alone.cycles, "yielding to Prime was free");
    }

    #[test]
    fn factoring_charges_compute_cycles() {
        let m = Machine::new(MachineConfig::small_test());
        let mut wl = Prime::default();
        wl.setup(&m);
        let cgl = Cgl::new(&m);
        m.run(1, |proc| {
            let th = cgl.thread(0, proc);
            wl.factor(th.as_ref(), 0, 1_000_003); // large prime
        });
        let r = m.report();
        assert!(
            r.cores[0].work_cycles > 1000,
            "trial division barely charged: {}",
            r.cores[0].work_cycles
        );
    }
}
