//! Simulation fingerprint: stable digests of two recorded HashTable
//! runs.
//!
//! Runs the paper HashTable workload on the 16-core machine with event
//! recording on, at 96 and at 384 timed transactions per thread, and
//! prints one line per run with the simulated results that must stay
//! bit-identical across engine refactors: committed / attempts /
//! sim_ops / sim_cycles plus an FNV-1a digest over the full protocol
//! event log and the per-core counters.
//!
//! ```text
//! cargo run --release -p flextm-bench --bin fingerprint
//! ```
//!
//! Two trees implementing the same simulated machine must print the
//! same lines; anything else is a semantic change, not a refactor.
//! `scripts/verify.sh` checks the recorded digests on every run, on
//! both fiber switch backends.

use flextm::{FlexTm, FlexTmConfig};
use flextm_bench::cell::{counter_digest, fnv1a, FNV_OFFSET};
use flextm_sim::{Machine, MachineConfig};
use flextm_workloads::harness::{run_measured, RunConfig, Workload};
use flextm_workloads::HashTable;

const THREADS: usize = 16;

fn fingerprint(txns: u64) {
    let mut config = MachineConfig::paper_default().with_cores(THREADS);
    config.record_events = true;
    let machine = Machine::new(config);
    let mut wl = HashTable::paper();
    wl.setup(&machine);
    let tm = FlexTm::new(&machine, FlexTmConfig::lazy(THREADS));
    let result = run_measured(
        &machine,
        &tm,
        &wl,
        RunConfig {
            threads: THREADS,
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
        THREADS,
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
    for txns in [96, 384] {
        fingerprint(txns);
    }
}
