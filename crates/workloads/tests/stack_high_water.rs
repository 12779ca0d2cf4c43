//! Fiber stack high-water pin.
//!
//! Every simulated thread runs on a fixed [`FIBER_STACK_BYTES`] stack,
//! and a run whose fiber reaches the lowest 4 KiB of it aborts the
//! process. This test keeps the deepest bodies well clear of that: the
//! red-black tree's recursion, Delaunay and Vacation-High on FlexTM
//! (eager and lazy) and RSTM, and a panicking body that formats a
//! backtrace — the deepest use measured — must each stay within a third
//! of the stack. A debug build paints whole stacks, so this reads the
//! deepest word any fiber changed; a release build cannot measure it,
//! nor can the thread-baton backend, whose fibers run on OS-thread
//! stacks, and the test does not exist there.
#![cfg(all(
    debug_assertions,
    target_arch = "x86_64",
    not(windows),
    not(flextm_fiber_fallback)
))]

use flextm::{CmKind, FlexTm, FlexTmConfig};
use flextm_sim::api::TmRuntime;
use flextm_sim::{Machine, MachineConfig, FIBER_STACK_BYTES};
use flextm_stm::Rstm;
use flextm_workloads::harness::{run_measured, RunConfig, Workload};
use flextm_workloads::{Contention, Delaunay, RbTree, Vacation};
use std::panic::{catch_unwind, AssertUnwindSafe};

const THREADS: usize = 4;
const LIMIT: usize = FIBER_STACK_BYTES / 3;

type MakeWorkload = fn() -> Box<dyn Workload>;
type MakeRuntime = fn(&Machine) -> Box<dyn TmRuntime>;

/// The deepest stack use of one short measured run.
fn high_water(mut workload: Box<dyn Workload>, runtime: MakeRuntime) -> usize {
    let machine = Machine::new(MachineConfig::paper_default().with_cores(THREADS));
    workload.setup(&machine);
    let tm = runtime(&machine);
    let config = RunConfig {
        threads: THREADS,
        txns_per_thread: 16,
        warmup_per_thread: 4,
        seed: 0xF1E7,
    };
    run_measured(&machine, tm.as_ref(), workload.as_ref(), config);
    (machine.fiber_stack_high_water()).expect("a debug build measures stack use")
}

#[test]
fn workload_bodies_stay_within_a_third_of_the_fiber_stack() {
    let workloads: [(&str, MakeWorkload); 3] = [
        ("RBTree", || Box::new(RbTree::paper())),
        ("Delaunay", || Box::new(Delaunay::new(THREADS))),
        ("Vacation-High", || {
            Box::new(Vacation::new(Contention::High))
        }),
    ];
    let runtimes: [(&str, MakeRuntime); 3] = [
        ("FlexTM(E)", |m| {
            Box::new(FlexTm::new(m, FlexTmConfig::eager(THREADS)))
        }),
        ("FlexTM(L)", |m| {
            Box::new(FlexTm::new(m, FlexTmConfig::lazy(THREADS)))
        }),
        ("RSTM", |m| Box::new(Rstm::new(m, THREADS, CmKind::Polka))),
    ];
    for (workload, make) in workloads {
        for (runtime, new_runtime) in runtimes {
            let used = high_water(make(), new_runtime);
            eprintln!("{workload} on {runtime}: {used} bytes");
            assert!(
                used <= LIMIT,
                "{workload} on {runtime} used {used} of {FIBER_STACK_BYTES} stack bytes"
            );
        }
    }
}

#[test]
fn a_panicking_body_stays_within_a_third_of_the_fiber_stack() {
    let machine = Machine::new(MachineConfig::small_test());
    let caught = catch_unwind(AssertUnwindSafe(|| {
        machine.run(1, |_| {
            // What the panic hook prints under `RUST_BACKTRACE=1`,
            // whether or not this process has it set.
            let trace = std::backtrace::Backtrace::force_capture().to_string();
            panic!("a {}-byte backtrace", trace.len());
        })
    }));
    assert!(caught.is_err());
    let used = (machine.fiber_stack_high_water()).expect("a debug build measures stack use");
    eprintln!("panicking body: {used} bytes");
    assert!(
        used <= LIMIT,
        "a panicking body used {used} of {FIBER_STACK_BYTES} stack bytes"
    );
}
