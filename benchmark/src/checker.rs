//! One repetition of a model-checker workload.

use crate::alloc;
use crate::rep::{fnv1a, Rep, Simulated, FNV_OFFSET};
use crate::trace::Tracer;
use flextm_check::canon::canon;
use flextm_check::{explore_jobs, CheckConfig, Driver};
use std::hint::black_box;
use std::time::Instant;

/// Building a checker root takes microseconds, so a repetition builds
/// it this many times and reports the mean as its set-up time.
const SETUP_ITERS: u32 = 32;

/// The 2-core × 1-line configuration, on a 2-core or a 65-core machine.
pub fn config(wide: bool) -> CheckConfig {
    if wide {
        CheckConfig::wide(2, 1)
    } else {
        CheckConfig::new(2, 1)
    }
}

/// One repetition of a checker workload: explores `config(wide)`
/// breadth-first with one worker to `depth`. Set-up is what
/// `explore_jobs` does before expanding — build the configuration and
/// the root driver and hash it — timed over [`SETUP_ITERS`] iterations.
pub fn run_check_rep(
    wide: bool,
    depth: Option<usize>,
    expect: Option<(u64, u64)>,
    tracer: &mut Tracer,
) -> Rep {
    let t0 = Instant::now();
    tracer.span("root_new", || {
        for _ in 0..SETUP_ITERS {
            let root = Driver::new(config(black_box(wide)));
            black_box(canon(&root));
        }
    });
    let setup_s = t0.elapsed().as_secs_f64() / f64::from(SETUP_ITERS);

    let cfg = config(wide);
    let explore_span = tracer.begin("explore");
    let heap_before = alloc::mark();
    let t1 = Instant::now();
    let out = explore_jobs(&cfg, depth, 1, None);
    let timed_s = t1.elapsed().as_secs_f64();
    let heap_after = alloc::mark();
    tracer.end(explore_span);

    let mut failures = Vec::new();
    if let Some(v) = &out.violation {
        failures.push(format!("checker violation: {}", v.message));
    }
    if depth.is_none() && out.depth_truncated != 0 {
        failures.push("fixpoint run reported truncated nodes".to_string());
    }
    if let Some(expect) = expect {
        if (out.states, out.transitions) != expect {
            failures.push(format!(
                "explored {} states / {} transitions, expected {} / {}",
                out.states, out.transitions, expect.0, expect.1
            ));
        }
    }
    let mut digest = FNV_OFFSET;
    for word in [
        out.states,
        out.transitions,
        out.max_depth as u64,
        out.depth_truncated,
    ] {
        fnv1a(&mut digest, &word.to_le_bytes());
    }
    Rep {
        setup_s,
        timed_s,
        timed_allocs: heap_after.allocs - heap_before.allocs,
        timed_alloc_bytes: heap_after.bytes - heap_before.bytes,
        requested: out.transitions,
        simulated: Simulated {
            digest,
            ops: out.transitions,
            counts: None,
            txn_per_mcycle: 0.0,
            states: out.states,
        },
        failures,
    }
}
