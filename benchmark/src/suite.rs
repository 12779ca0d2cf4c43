//! The repetition loop: runs workloads round-robin, keeps every
//! repetition's samples, checks that everything simulated repeats
//! bit-for-bit, and reduces the samples to the declared metrics.
//!
//! Estimator. Every workload is deterministic, CPU-bound and runs on
//! one host thread, so interference from the host only ever adds time.
//! Host-time end-to-end values are therefore taken from the fastest
//! repetition; the median, the quartile spread and the repetition count
//! are published beside them as layer metrics so the noise stays
//! visible. Repetitions of different workloads are interleaved so a slow
//! host phase hits all of them alike.

use crate::alloc;
use crate::checker::{self, run_check_rep};
use crate::probes::{self, Probes};
use crate::rep::{Counts, Simulated};
use crate::runner::run_sim_rep;
use crate::spec::{Body, WorkloadSpec};
use crate::stats;
use crate::trace::Tracer;
use flextm_check::explore_jobs;
use std::hint::black_box;
use std::time::Instant;

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
    }
}

/// How many repetitions to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Each workload's own default (`WorkloadSpec::reps`; 3 when traced).
    Default,
    /// Exactly this many rounds.
    Reps(u32),
    /// As many whole rounds as fit in this many seconds (at least one).
    Seconds(f64),
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload RNG seed (`RunConfig::seed`).
    pub seed: u64,
    /// Also run a traced repetition per round, the probes, and report
    /// the layer metrics.
    pub traced: bool,
    /// Repetition budget.
    pub budget: Budget,
}

/// Host-side samples of one repetition.
#[derive(Debug, Clone, Copy)]
struct Sample {
    setup_s: f64,
    timed_s: f64,
    heap_peak: u64,
    timed_allocs: u64,
    timed_alloc_bytes: u64,
    calib_ns: f64,
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    /// Workload name.
    pub name: &'static str,
    /// Untraced repetitions run.
    pub reps: u32,
    /// No correctness check tripped.
    pub correct: bool,
    /// Transactions (checker: transitions) requested over all repetitions.
    pub ops_attempted: u64,
    /// Of those, the ones not delivered; a repetition that trips any
    /// correctness check counts as failed whole.
    pub ops_failed: u64,
    /// FNV-1a digest of the simulated outcome (informational: shows
    /// bit-identity across host-only changes; not pinned anywhere).
    pub sim_digest: String,
    /// Exact counts of one repetition, by name.
    pub counts: Vec<(&'static str, u64)>,
    /// The end-to-end metrics, from untraced repetitions.
    pub end_to_end: Vec<Metric>,
    /// The layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Every correctness failure, described.
    pub failures: Vec<String>,
    /// Per-repetition timed-region seconds (untraced), in run order.
    pub timed_s: Vec<f64>,
    /// Per-repetition set-up seconds (untraced), in run order.
    pub setup_s: Vec<f64>,
}

/// A fixed spin loop, timed: how fast the host is right now.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    for _ in 0..200_000 {
        x = black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
    }
    black_box(x);
    t.elapsed().as_nanos() as f64
}

struct Running<'a> {
    spec: &'a WorkloadSpec,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    simulated: Option<Simulated>,
    requested_per_rep: u64,
    failed_reps: u32,
    failures: Vec<String>,
}

impl Running<'_> {
    fn run_rep(&mut self, seed: u64, tracer: &mut Tracer, traced: bool, rep_id: u32) {
        let calib_ns = calibrate();
        let mut off = Tracer::new(false);
        let tracer = if traced { tracer } else { &mut off };
        tracer.set_context(self.spec.name, rep_id);
        alloc::reset_peak();
        let start = alloc::mark();

        let rep_span = tracer.begin("rep");
        let rep = match &self.spec.body {
            Body::Sim(cells) => run_sim_rep(cells, seed, tracer),
            Body::Check {
                wide,
                depth,
                expect,
            } => run_check_rep(*wide, *depth, *expect, tracer),
        };
        tracer.end(rep_span);
        let end = alloc::mark();

        self.requested_per_rep = rep.requested;
        let mut bad = !rep.failures.is_empty();
        self.failures.extend(rep.failures);
        match &self.simulated {
            Some(first) if *first != rep.simulated => {
                bad = true;
                self.failures.push(format!(
                    "repetition {rep_id} simulated digest {:016x}, the first {:016x}",
                    rep.simulated.digest, first.digest
                ));
            }
            Some(_) => {}
            None => self.simulated = Some(rep.simulated),
        }
        if bad {
            self.failed_reps += 1;
        }
        let sample = Sample {
            setup_s: rep.setup_s,
            timed_s: rep.timed_s,
            heap_peak: end.peak - start.live,
            timed_allocs: rep.timed_allocs,
            timed_alloc_bytes: rep.timed_alloc_bytes,
            calib_ns,
        };
        if traced {
            self.traced.push(sample);
        } else {
            self.untraced.push(sample);
        }
    }

    /// `check-wide` must explore the graph a narrow machine explores to
    /// the same depth; run once per process, outside every timed region.
    fn cross_check_width(&mut self) {
        let Body::Check {
            wide: true, depth, ..
        } = self.spec.body
        else {
            return;
        };
        let narrow = explore_jobs(&checker::config(false), depth, 1, None);
        let wide = self
            .simulated
            .as_ref()
            .expect("at least one repetition ran");
        if (narrow.states, narrow.transitions) != (wide.states, wide.ops) {
            self.failed_reps = self.untraced.len() as u32 + self.traced.len() as u32;
            self.failures.push(format!(
                "wide run explored {} states / {} transitions, narrow {} / {}",
                wide.states, wide.ops, narrow.states, narrow.transitions
            ));
        }
    }

    fn record(&self, probes: Option<&Probes>, tracer: &Tracer) -> WorkloadRecord {
        let sim = self
            .simulated
            .as_ref()
            .expect("at least one repetition ran");
        let timed: Vec<f64> = self.untraced.iter().map(|s| s.timed_s).collect();
        let setup: Vec<f64> = self.untraced.iter().map(|s| s.setup_s).collect();
        let heap_peak = self.untraced.iter().map(|s| s.heap_peak).max().unwrap_or(0);
        let total_reps = (self.untraced.len() + self.traced.len()) as u64;

        let end_to_end = vec![
            metric("setup_s", stats::min(&setup), "s", Better::Lower),
            metric(
                "ops_per_s",
                sim.ops as f64 / stats::min(&timed),
                "1/s",
                Better::Higher,
            ),
            metric(
                "heap_peak_mb",
                heap_peak as f64 / (1u64 << 20) as f64,
                "MiB",
                Better::Lower,
            ),
        ];
        let per_layer = match probes {
            Some(probes) => self.layer_metrics(sim, probes, tracer),
            None => Vec::new(),
        };

        let mut counts = vec![("ops", sim.ops)];
        match &sim.counts {
            Some(c) => counts.extend([
                ("committed", c.committed),
                ("attempts", c.attempts),
                ("sim_cycles", c.cycles),
                ("fast_ops", c.fast_ops),
                ("slow_ops", c.slow_ops),
                ("grants", c.grants),
                ("l1_hits", c.core.l1_hits),
                ("l1_misses", c.core.l1_misses),
                ("tloads", c.core.tloads),
                ("tstores", c.core.tstores),
                ("cas_commits", c.core.commits),
                ("failed_commits", c.core.failed_commits),
                ("tx_aborts", c.core.tx_aborts),
            ]),
            None => counts.extend([("states", sim.states), ("transitions", sim.ops)]),
        }

        WorkloadRecord {
            name: self.spec.name,
            reps: self.untraced.len() as u32,
            correct: self.failures.is_empty(),
            ops_attempted: self.requested_per_rep * total_reps,
            ops_failed: self.requested_per_rep * u64::from(self.failed_reps),
            sim_digest: format!("{:016x}", sim.digest),
            counts,
            end_to_end,
            per_layer,
            failures: self.failures.clone(),
            timed_s: timed,
            setup_s: setup,
        }
    }

    fn layer_metrics(&self, sim: &Simulated, probes: &Probes, tracer: &Tracer) -> Vec<Metric> {
        use Better::{Higher, Lower};
        let mut out = Vec::new();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };

        // Exact counts of the timed region. A checker workload has no
        // machine report; its simulator-layer values are 0.
        let zero = Counts::default();
        let c = sim.counts.as_ref().unwrap_or(&zero);
        let ops = c.ops();
        let s = &c.core;
        let cycles = s.work_cycles + s.mem_cycles + s.stall_cycles + s.wasted_cycles;
        out.extend([
            metric("machine.fast_ops", c.fast_ops as f64, "count", Higher),
            metric("machine.slow_ops", c.slow_ops as f64, "count", Lower),
            metric("machine.grants", c.grants as f64, "count", Lower),
            metric(
                "machine.rendezvous_per_op",
                ratio(c.grants, ops),
                "1/op",
                Lower,
            ),
            metric(
                "proto.l1_hit_rate",
                ratio(s.l1_hits, s.l1_hits + s.l1_misses),
                "ratio",
                Higher,
            ),
            metric(
                "proto.l1_misses_per_op",
                ratio(s.l1_misses, ops),
                "1/op",
                Lower,
            ),
            metric(
                "proto.l2_misses_per_op",
                ratio(s.l2_misses, ops),
                "1/op",
                Lower,
            ),
            metric("proto.overflows", s.overflows as f64, "count", Lower),
            metric("proto.ot_hits", s.ot_hits as f64, "count", Lower),
            metric(
                "proto.threatened_per_op",
                ratio(s.threatened_seen, ops),
                "1/op",
                Lower,
            ),
            metric("proto.alerts", s.alerts as f64, "count", Lower),
            metric("proto.nacks", s.nacks as f64, "count", Lower),
            metric("core.commits", s.commits as f64, "count", Higher),
            metric(
                "core.failed_commits",
                s.failed_commits as f64,
                "count",
                Lower,
            ),
            metric("core.tx_aborts", s.tx_aborts as f64, "count", Lower),
            metric(
                "core.attempts_per_commit",
                ratio(c.attempts, c.committed),
                "ratio",
                Lower,
            ),
            metric(
                "sim.txn_per_mcycle",
                sim.txn_per_mcycle,
                "txn/Mcycle",
                Higher,
            ),
            metric(
                "sim.abort_ratio",
                ratio(c.attempts - c.committed, c.attempts),
                "ratio",
                Lower,
            ),
            metric(
                "sim.work_share",
                ratio(s.work_cycles, cycles),
                "ratio",
                Higher,
            ),
            metric("sim.mem_share", ratio(s.mem_cycles, cycles), "ratio", Lower),
            metric(
                "sim.stall_share",
                ratio(s.stall_cycles, cycles),
                "ratio",
                Lower,
            ),
            metric(
                "sim.wasted_share",
                ratio(s.wasted_cycles, cycles),
                "ratio",
                Lower,
            ),
        ]);

        // Host-side views of the same repetitions.
        let timed: Vec<f64> = self.untraced.iter().map(|r| r.timed_s).collect();
        let calib: Vec<f64> = self.untraced.iter().map(|r| r.calib_ns).collect();
        let first = self.untraced[0];
        out.extend([
            metric("host.reps", timed.len() as f64, "count", Higher),
            metric(
                "host.median_ops_per_s",
                sim.ops as f64 / stats::median(&timed),
                "1/s",
                Higher,
            ),
            metric("host.rep_spread", stats::spread(&timed), "ratio", Lower),
            metric("host.calib_ns", stats::median(&calib), "ns", Lower),
            metric(
                "host.allocs_per_op",
                ratio(first.timed_allocs, sim.ops),
                "1/op",
                Lower,
            ),
            metric(
                "host.alloc_bytes_per_op",
                ratio(first.timed_alloc_bytes, sim.ops),
                "B/op",
                Lower,
            ),
        ]);

        // Phase spans of the traced repetitions (fastest repetition of
        // each; a phase the workload does not have reads 0).
        for (name, span) in [
            ("span.machine_new_us", "machine_new"),
            ("span.workload_setup_us", "workload_setup"),
            ("span.l2_warm_us", "l2_warm"),
            ("span.warmup_us", "warmup"),
            ("span.timed_us", "timed"),
            ("span.report_us", "report"),
            ("span.root_new_us", "root_new"),
            ("span.explore_us", "explore"),
        ] {
            let us = stats::min(&tracer.per_rep_ns(self.spec.name, span)) / 1e3;
            out.push(metric(name, us, "us", Lower));
        }
        let traced_timed: Vec<f64> = self.traced.iter().map(|r| r.timed_s).collect();
        let timed_ns = stats::min(&timed) * 1e9;
        out.push(metric(
            "trace.overhead_ratio",
            stats::min(&traced_timed) / stats::min(&timed),
            "ratio",
            Lower,
        ));

        out.extend(probes.iter().map(|(name, unit, value)| {
            metric(
                name,
                value,
                unit,
                if unit == "ratio" { Higher } else { Lower },
            )
        }));

        // Attribution of the timed region's host time. The shares sum to
        // 1 by construction; what the probes cannot price (runtime
        // software, workload bodies, cache-footprint effects — and the
        // whole of a checker run) stays visible as `unattributed`.
        let (sched_ns, proto_ns) = match &sim.counts {
            Some(c) => {
                let threads = match &self.spec.body {
                    Body::Sim(cells) => cells[0].threads,
                    Body::Check { .. } => unreachable!("checker runs have no counts"),
                };
                let rendezvous = probes.get(match threads {
                    0..=2 => "machine.rendezvous_ns.t2",
                    3..=16 => "machine.rendezvous_ns.t16",
                    _ => "machine.rendezvous_ns.t64",
                });
                let narrow_misses = c.core.l1_misses - c.wide_l1_misses;
                let proto = c.core.l1_hits as f64 * probes.get("proto.l1_hit_load_ns")
                    + narrow_misses as f64 * probes.get("proto.miss_fill_ns.w16")
                    + c.wide_l1_misses as f64 * probes.get("proto.miss_fill_ns.w64")
                    + c.core.commits as f64 * probes.get("proto.commit_4line_ns")
                    + c.core.tx_aborts as f64 * probes.get("proto.abort_4line_ns");
                (c.slow_ops as f64 * rendezvous, proto)
            }
            None => (0.0, 0.0),
        };
        let (sched, proto) = (sched_ns / timed_ns, proto_ns / timed_ns);
        out.extend([
            metric("est.sched_share", sched, "ratio", Lower),
            metric("est.proto_share", proto, "ratio", Lower),
            metric(
                "est.unattributed_share",
                1.0 - sched - proto,
                "ratio",
                Lower,
            ),
        ]);
        out
    }
}

/// The result of [`run`].
#[derive(Debug)]
pub struct Outcome {
    /// One record per workload, in suite order.
    pub records: Vec<WorkloadRecord>,
    /// The spans of the traced repetitions (empty when untraced).
    pub tracer: Tracer,
}

/// Runs `specs` round-robin under `opts`.
pub fn run(specs: &[WorkloadSpec], opts: &Options) -> Outcome {
    let started = Instant::now();
    let mut tracer = Tracer::new(opts.traced);
    let mut running: Vec<Running<'_>> = specs
        .iter()
        .map(|spec| Running {
            spec,
            untraced: Vec::new(),
            traced: Vec::new(),
            simulated: None,
            requested_per_rep: 0,
            failed_reps: 0,
            failures: Vec::new(),
        })
        .collect();

    // `None`: as many whole rounds as fit in the time budget.
    let wanted = |spec: &WorkloadSpec| match opts.budget {
        Budget::Default if opts.traced => Some(3),
        Budget::Default => Some(spec.reps),
        Budget::Reps(n) => Some(n),
        Budget::Seconds(_) => None,
    };
    let mut round = 0u32;
    loop {
        let round_start = Instant::now();
        for r in &mut running {
            if wanted(r.spec).is_none_or(|n| round < n) {
                r.run_rep(opts.seed, &mut tracer, false, round);
                if opts.traced {
                    r.run_rep(opts.seed, &mut tracer, true, round);
                }
            }
        }
        round += 1;
        let done = match opts.budget {
            // Stop when another round like the last would overrun.
            Budget::Seconds(s) => (started.elapsed() + round_start.elapsed()).as_secs_f64() > s,
            _ => running
                .iter()
                .all(|r| wanted(r.spec).is_some_and(|n| round >= n)),
        };
        if done {
            break;
        }
    }

    for r in &mut running {
        r.cross_check_width();
    }
    let probes = opts.traced.then(probes::run_all);
    let records = running
        .iter()
        .map(|r| r.record(probes.as_ref(), &tracer))
        .collect();
    Outcome { records, tracer }
}
