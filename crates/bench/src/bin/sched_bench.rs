//! Scheduler microbenchmark: host-side throughput of the execution
//! engine on the 16-core hashtable workload.
//!
//! Measures *simulated operations per wall-clock second* — the number
//! the scheduling-layer refactor is judged by (see `BENCH_sched.json`
//! at the repo root for recorded before/after numbers). Plain
//! `std::time` harness; run with:
//!
//! ```text
//! cargo run --release -p flextm-bench --bin sched_bench
//! ```
//!
//! `FLEXTM_SCHED_TXNS` overrides timed transactions per thread
//! (default 96); `FLEXTM_SCHED_STRICT=1` disables the scheduler's
//! fast paths (`MachineConfig::strict_lockstep`) to measure the
//! conservative engine; `FLEXTM_SCHED_THREADS` overrides the thread
//! count (diagnostic — a 1-thread run isolates raw protocol cost from
//! scheduling cost). Passing `--protocol` forces the 1-thread
//! diagnostic (reported as `protocol_1thread_hashtable`, see
//! `BENCH_protocol.json`); `FLEXTM_SCHED_THREADS` still wins if both
//! are given. Passing `--trace` enables the per-attempt trace: the
//! abort-attribution/cycle-bucket table goes to stderr and the JSONL
//! trace to `FLEXTM_TRACE_OUT` (or stderr when unset), keeping the
//! stdout JSON line machine-readable either way. The record always
//! carries its run parameters (warm-up and seed), so a pasted sample
//! is self-describing.

use flextm::{FlexTm, FlexTmConfig};
use flextm_bench::envcfg;
use flextm_sim::{Machine, MachineConfig};
use flextm_workloads::harness::{run_measured, RunConfig, Workload};
use flextm_workloads::HashTable;
use std::time::Instant;

const WARMUP_PER_THREAD: u64 = 8;
const SEED: u64 = 0xF1E7;

fn main() {
    let txns: u64 = envcfg::or_exit(envcfg::parse("FLEXTM_SCHED_TXNS", 96));
    let strict = envcfg::or_exit(envcfg::flag("FLEXTM_SCHED_STRICT"));
    let protocol_mode = std::env::args().any(|a| a == "--protocol");
    let trace_mode = std::env::args().any(|a| a == "--trace");
    let threads: usize = envcfg::or_exit(envcfg::parse(
        "FLEXTM_SCHED_THREADS",
        if protocol_mode { 1 } else { 16 },
    ));
    let bench_name = if protocol_mode {
        "protocol_1thread_hashtable".to_string()
    } else {
        format!("sched_{threads}core_hashtable")
    };

    // The machine keeps the paper's 16-way geometry for the recorded
    // benches; wider thread counts get a correspondingly wider machine
    // (the Fig. 4-style 64-core series).
    let mut config = MachineConfig::paper_default();
    if threads > config.cores {
        config = config.with_cores(threads);
    }
    config.strict_lockstep = strict;
    let machine = Machine::new(config);
    let mut wl = HashTable::paper();
    wl.setup(&machine);
    let tm = FlexTm::new(&machine, FlexTmConfig::lazy(threads));
    tm.set_tracing(trace_mode);

    let t0 = Instant::now();
    let result = run_measured(
        &machine,
        &tm,
        &wl,
        RunConfig {
            threads,
            txns_per_thread: txns,
            warmup_per_thread: WARMUP_PER_THREAD,
            seed: SEED,
        },
    );
    let wall = t0.elapsed();

    let report = machine.report();
    let ops = report.sim_ops();
    let wall_s = wall.as_secs_f64();

    // One JSON object per line, ready to paste into BENCH_sched.json
    // or BENCH_protocol.json.
    println!(
        concat!(
            "{{\"bench\": \"{}\", ",
            "\"strict_lockstep\": {}, ",
            "\"threads\": {}, \"txns_per_thread\": {}, ",
            "\"committed\": {}, \"attempts\": {}, ",
            "\"sim_ops\": {}, \"sim_cycles\": {}, ",
            "\"fast_ops\": {}, \"slow_ops\": {}, \"grants\": {}, ",
            "\"rendezvous_per_op\": {:.4}, ",
            "\"wall_s\": {:.3}, ",
            "\"sim_ops_per_s\": {:.0}, \"sim_cycles_per_s\": {:.0}, ",
            "\"warmup_per_thread\": {}, \"seed\": \"0x{:X}\"}}"
        ),
        bench_name,
        strict,
        threads,
        txns,
        result.committed,
        result.attempts,
        ops,
        report.elapsed_cycles(),
        report.sched.fast_ops,
        report.sched.slow_ops,
        report.sched.grants,
        report.rendezvous_per_op(),
        wall_s,
        ops as f64 / wall_s,
        report.elapsed_cycles() as f64 / wall_s,
        WARMUP_PER_THREAD,
        SEED,
    );

    if trace_mode {
        eprint!("{}", result.abort_table());
        let jsonl = flextm_trace::to_jsonl(&tm.take_trace());
        match std::env::var("FLEXTM_TRACE_OUT") {
            Ok(path) => {
                std::fs::write(&path, &jsonl).unwrap_or_else(|e| {
                    panic!("writing trace to {path}: {e}");
                });
                eprintln!("trace: {} records -> {path}", jsonl.lines().count());
            }
            Err(_) => eprint!("{jsonl}"),
        }
    }
}
