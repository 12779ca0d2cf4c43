//! The phase-split runner must simulate exactly what the harness's
//! `run_measured` simulates: same commits, attempts, cycles and the
//! whole `MachineReport` delta, for every runtime.

use flextm_benchmark::runner::run_phases;
use flextm_benchmark::spec::{Runtime, Structure};
use flextm_benchmark::trace::Tracer;
use flextm_sim::{Machine, MachineConfig};
use flextm_workloads::harness::{run_measured, RunConfig};

fn fresh(structure: Structure, threads: usize) -> (Machine, flextm_benchmark::spec::Built) {
    let machine = Machine::new(MachineConfig::paper_default().with_cores(threads));
    let mut built = structure.build(threads);
    built.setup(&machine);
    (machine, built)
}

#[test]
fn phase_split_runner_equals_run_measured_on_every_runtime() {
    let config = RunConfig {
        threads: 4,
        txns_per_thread: 48,
        warmup_per_thread: 12,
        seed: 0xF1E7,
    };
    for structure in [Structure::HashTable, Structure::RbTree] {
        for runtime in Runtime::ALL {
            let (machine, built) = fresh(structure, config.threads);
            let rt = runtime.build(&machine, config.threads);
            let reference = run_measured(&machine, rt.as_ref(), built.workload(), config);

            let (machine, built) = fresh(structure, config.threads);
            let rt = runtime.build(&machine, config.threads);
            let mut tracer = Tracer::new(true);
            let split =
                run_phases(&machine, rt.as_ref(), built.workload(), config, &mut tracer).measured;

            let label = format!("{structure:?} on {runtime:?}");
            assert_eq!(split.committed, reference.committed, "{label}: committed");
            assert_eq!(split.attempts, reference.attempts, "{label}: attempts");
            assert_eq!(split.cycles, reference.cycles, "{label}: cycles");
            assert_eq!(split.report, reference.report, "{label}: report delta");
            assert_eq!(split.committed, 4 * 48, "{label}: lost transactions");
            let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
            assert_eq!(names, ["l2_warm", "warmup", "timed"], "{label}: spans");
        }
    }
}
