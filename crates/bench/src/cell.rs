//! The run-one-cell library API the sweep farm executes.
//!
//! A *cell* is one point of the evaluation matrix — workload × runtime
//! × CM policy × threads × signature size × seed × transaction count —
//! described exactly (no environment variables, no derived sizing) so
//! that the same [`CellSpec`] produces the same simulated results in
//! any process: the serial `cargo bench` path ([`crate::run_point`]
//! expands to a spec and calls [`run_cell`]), the sweep farm's child
//! processes, and tests all share this one entry point.
//!
//! [`CellResult`] carries the deterministic simulated outcome
//! (committed / attempts / sim_ops / sim_cycles plus an FNV-1a digest
//! over the per-core counter deltas, the same construction as the
//! `fingerprint` binary) and the host wall time, which is the only
//! nondeterministic field.

use crate::{RuntimeKind, WorkloadKind};
use flextm::CmKind;
use flextm_sim::{Machine, MachineConfig, MachineReport};
use flextm_workloads::harness::{run_measured, RunConfig, RunResult};
use std::time::Instant;

/// The op metric shared by every bench binary: executed simulated
/// instructions that went through the scheduler (memory ops +
/// commit-path instructions). Derived from machine counters so the
/// same formula applies to any engine version.
pub fn sim_ops(r: &MachineReport) -> u64 {
    r.total(|c| c.loads + c.stores + c.tloads + c.tstores)
        + r.total(|c| c.commits + c.failed_commits + c.tx_aborts)
}

/// FNV-1a over `bytes`, continuing `h`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable label for a CM policy (the `flextm` crate's `CmKind`).
pub fn cm_label(cm: CmKind) -> &'static str {
    match cm {
        CmKind::Polka => "Polka",
        CmKind::Aggressive => "Aggressive",
        CmKind::Timid => "Timid",
        CmKind::Polite => "Polite",
    }
}

/// Inverse of [`cm_label`].
pub fn cm_from_label(s: &str) -> Option<CmKind> {
    [
        CmKind::Polka,
        CmKind::Aggressive,
        CmKind::Timid,
        CmKind::Polite,
    ]
    .into_iter()
    .find(|&cm| cm_label(cm) == s)
}

/// One fully-described point of the evaluation matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Benchmark.
    pub workload: WorkloadKind,
    /// System under test.
    pub runtime: RuntimeKind,
    /// Contention management policy (ignored by CGL and TL2).
    pub cm: CmKind,
    /// Worker threads; the machine is `threads.max(16)`-wide (the
    /// paper's fixed 16-way CMP — idle cores cost nothing).
    pub threads: usize,
    /// Signature size in bits (paper: 2048, 4-banked H3).
    pub sig_bits: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Timed transactions per thread.
    pub txns_per_thread: u64,
    /// Untimed warm-up transactions per thread.
    pub warmup_per_thread: u64,
}

impl CellSpec {
    /// The canonical JSON encoding: fixed field order, fixed spacing,
    /// seed in hex. This string (not the struct) is what the sweep
    /// farm hashes for its content-addressed store, and what a child
    /// process receives on its command line — one form serves both so
    /// the hash can never drift from what actually runs.
    pub fn canonical_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\": \"{}\", \"runtime\": \"{}\", \"cm\": \"{}\", ",
                "\"threads\": {}, \"sig_bits\": {}, \"seed\": \"0x{:X}\", ",
                "\"txns_per_thread\": {}, \"warmup_per_thread\": {}}}"
            ),
            self.workload.label(),
            self.runtime.label(),
            cm_label(self.cm),
            self.threads,
            self.sig_bits,
            self.seed,
            self.txns_per_thread,
            self.warmup_per_thread,
        )
    }

    /// Short human label for progress output.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}T cm={} sig={} seed=0x{:X} txns={}",
            self.workload.label(),
            self.runtime.label(),
            self.threads,
            cm_label(self.cm),
            self.sig_bits,
            self.seed,
            self.txns_per_thread,
        )
    }
}

/// Deterministic simulated outcome of one cell, plus host wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Transactions committed in the timed region.
    pub committed: u64,
    /// Attempts in the timed region (≥ committed).
    pub attempts: u64,
    /// Simulated operations of the timed region ([`sim_ops`] over the
    /// counter deltas).
    pub sim_ops: u64,
    /// Elapsed simulated cycles of the timed region.
    pub sim_cycles: u64,
    /// FNV-1a digest over the per-core counter deltas — the
    /// bit-identity witness (same construction as the `fingerprint`
    /// binary's counter digest).
    pub digest: String,
    /// Host wall-clock seconds of the measured run (the only
    /// nondeterministic field; excluded from emitted tables).
    pub wall_s: f64,
}

impl CellResult {
    /// Transactions per million simulated cycles (the paper's Fig. 4
    /// y-axis before normalization).
    pub fn throughput(&self) -> f64 {
        if self.sim_cycles == 0 {
            0.0
        } else {
            self.committed as f64 * 1e6 / self.sim_cycles as f64
        }
    }

    /// Summarizes a harness [`RunResult`].
    pub fn from_run(run: &RunResult, wall_s: f64) -> Self {
        let mut digest = FNV_OFFSET;
        for (i, core) in run.report.cores.iter().enumerate() {
            fnv1a(
                &mut digest,
                format!("{i}:{core:?}:{}", run.report.core_cycles[i]).as_bytes(),
            );
        }
        CellResult {
            committed: run.committed,
            attempts: run.attempts,
            sim_ops: sim_ops(&run.report),
            sim_cycles: run.cycles,
            digest: format!("{digest:016x}"),
            wall_s,
        }
    }

    /// One-line JSON record a cell child process prints on stdout:
    /// the spec echoed back (so the parent can verify nothing was
    /// mangled in transit) followed by the result fields.
    pub fn to_json(&self, spec: &CellSpec) -> String {
        let spec_json = spec.canonical_json();
        format!(
            concat!(
                "{}, \"committed\": {}, \"attempts\": {}, ",
                "\"sim_ops\": {}, \"sim_cycles\": {}, ",
                "\"digest\": \"{}\", \"wall_s\": {:.6}}}"
            ),
            &spec_json[..spec_json.len() - 1],
            self.committed,
            self.attempts,
            self.sim_ops,
            self.sim_cycles,
            self.digest,
            self.wall_s,
        )
    }
}

/// Runs one cell on a fresh machine, exactly as described by `spec`.
///
/// This is the entry point everything shares: [`crate::run_point`]
/// (the serial bench path) and the sweep farm's `--run-cell` child
/// mode both call it, which is what makes "sweep output is
/// bit-identical to the serial path" a property of construction rather
/// than a hope.
pub fn run_cell(spec: &CellSpec) -> RunResult {
    let mut config = MachineConfig::paper_default().with_cores(spec.threads.max(16));
    config.signature.total_bits = spec.sig_bits;
    let machine = Machine::new(config);
    let mut workload = spec.workload.build(spec.threads);
    workload.setup(&machine);
    let runtime = spec.runtime.build_with_cm(&machine, spec.threads, spec.cm);
    run_measured(
        &machine,
        runtime.as_ref(),
        workload.as_ref(),
        RunConfig {
            threads: spec.threads,
            txns_per_thread: spec.txns_per_thread,
            warmup_per_thread: spec.warmup_per_thread,
            seed: spec.seed,
        },
    )
}

/// [`run_cell`] plus host timing, summarized for transport.
pub fn run_cell_timed(spec: &CellSpec) -> CellResult {
    let t0 = Instant::now();
    let run = run_cell(spec);
    CellResult::from_run(&run, t0.elapsed().as_secs_f64())
}

/// Run parameters appended to the `sched_bench` stdout record under
/// `--json` — everything a sampling harness needs to archive the
/// sample without consulting the invoking environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedRunParams {
    /// Untimed warm-up transactions per thread.
    pub warmup_per_thread: u64,
    /// Workload RNG seed, in hex.
    pub seed: String,
}

/// The `sched_bench` stdout record. The binary builds one of these and
/// prints [`SchedRecord::to_json`]; the schema round-trip test in the
/// sweep crate parses that same encoding, so producer and consumer
/// cannot drift apart silently.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedRecord {
    /// Bench name ("sched_16core_hashtable", …).
    pub bench: String,
    /// Whether the conservative lockstep engine was forced.
    pub strict_lockstep: bool,
    /// Worker threads.
    pub threads: usize,
    /// Timed transactions per thread.
    pub txns_per_thread: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Attempts (≥ committed).
    pub attempts: u64,
    /// Simulated operations ([`sim_ops`]).
    pub sim_ops: u64,
    /// Elapsed simulated cycles.
    pub sim_cycles: u64,
    /// Scheduler fast-path ops.
    pub fast_ops: u64,
    /// Full-rendezvous ops.
    pub slow_ops: u64,
    /// Lease grants.
    pub grants: u64,
    /// Rendezvous per simulated op.
    pub rendezvous_per_op: f64,
    /// Host wall seconds.
    pub wall_s: f64,
    /// Simulated ops per host second.
    pub sim_ops_per_s: f64,
    /// Simulated cycles per host second.
    pub sim_cycles_per_s: f64,
    /// Present under `--json`.
    pub params: Option<SchedRunParams>,
}

impl SchedRecord {
    /// The one-line JSON encoding `sched_bench` prints.
    pub fn to_json(&self) -> String {
        let mut line = format!(
            concat!(
                "{{\"bench\": \"{}\", ",
                "\"strict_lockstep\": {}, ",
                "\"threads\": {}, \"txns_per_thread\": {}, ",
                "\"committed\": {}, \"attempts\": {}, ",
                "\"sim_ops\": {}, \"sim_cycles\": {}, ",
                "\"fast_ops\": {}, \"slow_ops\": {}, \"grants\": {}, ",
                "\"rendezvous_per_op\": {:.4}, ",
                "\"wall_s\": {:.3}, ",
                "\"sim_ops_per_s\": {:.0}, \"sim_cycles_per_s\": {:.0}"
            ),
            self.bench,
            self.strict_lockstep,
            self.threads,
            self.txns_per_thread,
            self.committed,
            self.attempts,
            self.sim_ops,
            self.sim_cycles,
            self.fast_ops,
            self.slow_ops,
            self.grants,
            self.rendezvous_per_op,
            self.wall_s,
            self.sim_ops_per_s,
            self.sim_cycles_per_s,
        );
        if let Some(p) = &self.params {
            line.push_str(&format!(
                ", \"warmup_per_thread\": {}, \"seed\": \"{}\"",
                p.warmup_per_thread, p.seed,
            ));
        }
        line.push('}');
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm_labels_round_trip() {
        for cm in [
            CmKind::Polka,
            CmKind::Aggressive,
            CmKind::Timid,
            CmKind::Polite,
        ] {
            assert_eq!(cm_from_label(cm_label(cm)), Some(cm));
        }
        assert_eq!(cm_from_label("Karma"), None);
    }

    #[test]
    fn run_cell_is_deterministic_across_calls() {
        let spec = CellSpec {
            workload: WorkloadKind::HashTable,
            runtime: RuntimeKind::FlexTmLazy,
            cm: CmKind::Polka,
            threads: 2,
            sig_bits: 2048,
            seed: 0xF1E7,
            txns_per_thread: 12,
            warmup_per_thread: 3,
        };
        let a = run_cell_timed(&spec);
        let b = run_cell_timed(&spec);
        assert_eq!(a.committed, 24);
        assert_eq!(
            (a.committed, a.attempts, a.sim_ops, a.sim_cycles, &a.digest),
            (b.committed, b.attempts, b.sim_ops, b.sim_cycles, &b.digest),
        );
    }

    #[test]
    fn cell_json_echoes_the_spec() {
        let spec = CellSpec {
            workload: WorkloadKind::RbTree,
            runtime: RuntimeKind::Rstm,
            cm: CmKind::Timid,
            threads: 4,
            sig_bits: 1024,
            seed: 0xABCD,
            txns_per_thread: 8,
            warmup_per_thread: 2,
        };
        let result = CellResult {
            committed: 32,
            attempts: 40,
            sim_ops: 1000,
            sim_cycles: 2000,
            digest: "00ff00ff00ff00ff".to_string(),
            wall_s: 0.25,
        };
        let line = result.to_json(&spec);
        assert!(line.starts_with("{\"workload\": \"RBTree\", \"runtime\": \"RSTM\""));
        assert!(line.contains("\"cm\": \"Timid\""));
        assert!(line.contains("\"seed\": \"0xABCD\""));
        assert!(line.contains("\"digest\": \"00ff00ff00ff00ff\""));
        assert!(line.ends_with('}'));
    }
}
