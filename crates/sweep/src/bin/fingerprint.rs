//! Simulation fingerprint: stable digests of three recorded HashTable
//! runs.
//!
//! Runs the paper HashTable workload with event recording on: on the
//! 16-core machine at 96 and at 384 timed transactions per thread, and
//! on a 64-core machine at 32 (the wide schedule, whose core ids cross
//! the `ProcSet` word seam). It prints one line per run with the
//! simulated results that must stay
//! bit-identical across engine refactors: committed / attempts /
//! sim_ops / sim_cycles plus an FNV-1a digest over the full protocol
//! event log and the per-core counters.
//!
//! ```text
//! cargo run --release -p flextm-sweep --bin fingerprint
//! ```
//!
//! It takes no arguments: any argument is bad usage, exit 2 naming it,
//! before any run starts.
//!
//! Two trees implementing the same simulated machine must print the
//! same lines; anything else is a semantic change, not a refactor.
//! `scripts/verify.sh` checks the recorded digests on every run, on
//! both fiber switch backends.

use flextm::{FlexTm, FlexTmConfig};
use flextm_sim::{Machine, MachineConfig};
use flextm_sweep::cell::{counter_digest, fnv1a, FNV_OFFSET};
use flextm_workloads::harness::{run_measured, RunConfig, Workload};
use flextm_workloads::HashTable;

fn fingerprint(threads: usize, txns: u64) {
    let mut config = MachineConfig::paper_default().with_cores(threads);
    config.record_events = true;
    let machine = Machine::new(config);
    let mut wl = HashTable::paper();
    wl.setup(&machine);
    let tm = FlexTm::new(&machine, FlexTmConfig::lazy(threads));
    let result = run_measured(
        &machine,
        &tm,
        &wl,
        RunConfig {
            threads,
            txns_per_thread: txns,
            warmup_per_thread: 8,
            seed: 0xF1E7,
        },
    );

    let events = machine.with_state(|st| st.log.take());
    let report = machine.report();

    let mut digest: u64 = FNV_OFFSET;
    for ev in &events {
        fnv1a(&mut digest, format!("{ev:?}").as_bytes());
    }

    println!(
        concat!(
            "{{\"bench\": \"fingerprint_hashtable\", \"threads\": {}, ",
            "\"txns_per_thread\": {}, \"committed\": {}, \"attempts\": {}, ",
            "\"sim_ops\": {}, \"sim_cycles\": {}, \"events\": {}, ",
            "\"event_digest\": \"{:016x}\", \"counter_digest\": \"{:016x}\"}}"
        ),
        threads,
        txns,
        result.committed,
        result.attempts,
        report.sim_ops(),
        report.elapsed_cycles(),
        events.len(),
        digest,
        counter_digest(&report),
    );
}

fn main() {
    // The three runs are pinned; an argument would only look like it
    // chose another one.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unexpected argument {arg}: fingerprint takes none");
        eprintln!("usage: fingerprint");
        std::process::exit(2);
    }
    for (threads, txns) in [(16, 96), (16, 384), (64, 32)] {
        fingerprint(threads, txns);
    }
}
