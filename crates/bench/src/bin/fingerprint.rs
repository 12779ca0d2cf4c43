//! Simulation fingerprint: a stable digest of a recorded HashTable run.
//!
//! Runs the paper HashTable workload at `FLEXTM_FP_THREADS` cores
//! (default 16) with event recording on, and prints the simulated
//! results that must stay bit-identical across engine refactors:
//! committed / attempts / sim_ops / sim_cycles plus an FNV-1a digest
//! over the full protocol event log and the per-core counters.
//!
//! ```text
//! FLEXTM_FP_THREADS=16 FLEXTM_FP_TXNS=96 \
//!     cargo run --release -p flextm-bench --bin fingerprint
//! ```
//!
//! Two trees implementing the same simulated machine must print the
//! same line; anything else is a semantic change, not a refactor.
//! `scripts/verify.sh` checks the recorded digests on every run, on
//! both fiber switch backends.

use flextm::{FlexTm, FlexTmConfig};
use flextm_bench::cell::{counter_digest, fnv1a, FNV_OFFSET};
use flextm_bench::envcfg;
use flextm_sim::{Machine, MachineConfig};
use flextm_workloads::harness::{run_measured, RunConfig, Workload};
use flextm_workloads::HashTable;

fn main() {
    let threads: usize = envcfg::or_exit(envcfg::parse("FLEXTM_FP_THREADS", 16));
    let txns: u64 = envcfg::or_exit(envcfg::parse("FLEXTM_FP_TXNS", 96));

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
