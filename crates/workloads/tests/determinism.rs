//! Determinism regression suite for the execution engine.
//!
//! The scheduler must replay the exact op interleaving of the original
//! lockstep engine: ops retire in min-(clock, id) order, so two runs of the
//! same workload produce the same protocol events, the same counters
//! and the same simulated cycle counts. These tests pin that down:
//!
//! * the same workload run twice yields bit-identical event logs and
//!   machine reports (scheduler wall-clock excluded by `SchedStats`'s
//!   `PartialEq`) under lazy and eager conflict management, while a
//!   different seed yields a different run, and
//! * a `strict_lockstep` run — every fast path disabled, every op
//!   through the full rendezvous — yields the same protocol
//!   events and simulated state as the default engine, proving the
//!   fast paths are pure performance, not semantics.

//!
//! It also pins the observability layer added on top:
//!
//! * per-core accounting invariants hold on every suite workload
//!   (abort causes sum to the abort counters; the four cycle buckets
//!   sum to the core clock), and
//! * turning the event log off does not perturb simulated counters.

use flextm::Mode::{self, Eager, Lazy};
use flextm::{FlexTm, FlexTmConfig};
use flextm_sim::{Event, Machine, MachineConfig, MachineReport};
use flextm_workloads::harness::{run_measured, RunConfig, Workload};
use flextm_workloads::{HashTable, LfuCache, RandomGraph, RbTree};

const THREADS: usize = 8;

fn small_run() -> RunConfig {
    RunConfig {
        threads: THREADS,
        txns_per_thread: 24,
        warmup_per_thread: 4,
        seed: 0xF1E7,
    }
}

/// One complete lazy measured run on a fresh machine; returns every
/// recorded protocol event plus the final whole-machine report.
fn run_once(workload: Box<dyn Workload>, strict: bool) -> (Vec<Event>, MachineReport) {
    run_on(workload, small_run(), Lazy, strict)
}

/// [`run_once`] in conflict-management `mode`, on a machine exactly as
/// wide as `run.threads`.
fn run_on(
    mut workload: Box<dyn Workload>,
    run: RunConfig,
    mode: Mode,
    strict: bool,
) -> (Vec<Event>, MachineReport) {
    let mut config = MachineConfig::paper_default().with_cores(run.threads);
    config.record_events = true;
    config.strict_lockstep = strict;
    let machine = Machine::new(config);
    workload.setup(&machine);
    let mut tm = FlexTmConfig::lazy(run.threads);
    tm.mode = mode;
    let tm = FlexTm::new(&machine, tm);
    run_measured(&machine, &tm, workload.as_ref(), run);
    let events = machine.with_state(|st| st.log.take());
    (events, machine.report())
}

fn assert_identical(name: &str, mode: Mode, make: fn() -> Box<dyn Workload>) {
    let (events_a, report_a) = run_on(make(), small_run(), mode, false);
    let (events_b, report_b) = run_on(make(), small_run(), mode, false);
    assert!(
        !events_a.is_empty(),
        "{name}: no protocol events recorded — the comparison is vacuous"
    );
    assert_eq!(
        events_a, events_b,
        "{name}: two identical runs diverged in protocol events"
    );
    assert_eq!(
        report_a, report_b,
        "{name}: two identical runs diverged in machine counters"
    );
}

/// Asserts the two accounting invariants the observability layer
/// guarantees per core: every abort-counter increment carries exactly
/// one cause, and work + mem + stall + wasted account for every cycle
/// on the core clock.
fn assert_accounting_invariants(name: &str, report: &MachineReport) {
    let mut aborts_seen = 0u64;
    for (i, core) in report.cores.iter().enumerate() {
        assert_eq!(
            core.abort_causes.cause_sum(),
            core.tx_aborts + core.failed_commits,
            "{name}: core {i} abort causes do not sum to tx_aborts + failed_commits"
        );
        assert_eq!(
            core.cycle_sum(),
            report.core_cycles[i],
            "{name}: core {i} cycle buckets do not sum to the core clock"
        );
        aborts_seen += core.tx_aborts;
    }
    assert!(
        aborts_seen > 0,
        "{name}: contention produced no aborts — the invariant check is vacuous"
    );
}

#[test]
fn hashtable_replays_identically() {
    assert_identical("HashTable", Lazy, || Box::new(HashTable::paper()));
}

#[test]
fn rbtree_replays_identically() {
    assert_identical("RBTree", Lazy, || Box::new(RbTree::paper()));
}

/// LFUCache's Zipf-skewed keys make it the most contended workload.
#[test]
fn contended_lazy_runs_are_bit_identical() {
    assert_identical("LFUCache", Lazy, || Box::new(LfuCache::paper()));
}

#[test]
fn contended_eager_runs_are_bit_identical() {
    assert_identical("LFUCache(E)", Eager, || Box::new(LfuCache::paper()));
}

#[test]
fn graph_final_state_is_reproducible() {
    assert_identical("RandomGraph", Lazy, || Box::new(RandomGraph::new(24)));
}

/// The replays are not vacuous: the seed reaches the run.
#[test]
fn different_seeds_differ() {
    let mut reseeded = small_run();
    reseeded.seed += 1;
    let (other, _) = run_on(Box::new(LfuCache::paper()), reseeded, Lazy, false);
    assert_ne!(run_once(Box::new(LfuCache::paper()), false).0, other);
}

#[test]
fn hashtable_accounting_invariants_hold() {
    let (_, report) = run_once(Box::new(HashTable::paper()), false);
    assert_accounting_invariants("HashTable", &report);
}

#[test]
fn rbtree_accounting_invariants_hold() {
    let (_, report) = run_once(Box::new(RbTree::paper()), false);
    assert_accounting_invariants("RBTree", &report);
}

/// One measured run at an arbitrary machine width; returns the event
/// log and the machine report.
fn run_wide(threads: usize) -> (Vec<Event>, MachineReport) {
    let mut config = MachineConfig::paper_default().with_cores(threads);
    config.record_events = true;
    let machine = Machine::new(config);
    let mut workload: Box<dyn Workload> = Box::new(HashTable::paper());
    workload.setup(&machine);
    let tm = FlexTm::new(&machine, FlexTmConfig::lazy(threads));
    run_measured(
        &machine,
        &tm,
        workload.as_ref(),
        RunConfig {
            threads,
            txns_per_thread: 8,
            warmup_per_thread: 2,
            seed: 0xF1E7,
        },
    );
    let events = machine.with_state(|st| st.log.take());
    (events, machine.report())
}

/// The determinism and accounting guarantees must not be a property of
/// the 8/16-core comfort zone: machines wider than one CST word (and
/// the 32-core midpoint) replay byte-identically and keep the
/// per-core accounting invariants.
#[test]
fn wide_machines_replay_identically_with_invariants() {
    for threads in [32usize, 64, 128] {
        let name = format!("HashTable/{threads}c");
        let (events_a, report_a) = run_wide(threads);
        let (events_b, report_b) = run_wide(threads);
        assert!(
            !events_a.is_empty(),
            "{name}: no protocol events recorded — the comparison is vacuous"
        );
        assert_eq!(
            events_a, events_b,
            "{name}: two identical runs diverged in protocol events"
        );
        assert_eq!(
            report_a, report_b,
            "{name}: two identical runs diverged in machine counters"
        );
        assert_accounting_invariants(&name, &report_a);
    }
}

/// The event log is pure observation: disabling it must not change
/// one simulated counter or cycle.
#[test]
fn event_log_off_does_not_perturb_counters() {
    let run = |record_events: bool| {
        let mut config = MachineConfig::paper_default().with_cores(THREADS);
        config.record_events = record_events;
        let machine = Machine::new(config);
        let mut workload: Box<dyn Workload> = Box::new(HashTable::paper());
        workload.setup(&machine);
        let tm = FlexTm::new(&machine, FlexTmConfig::lazy(THREADS));
        run_measured(&machine, &tm, workload.as_ref(), small_run());
        machine.report()
    };
    let with_events = run(true);
    let without = run(false);
    assert_eq!(with_events.cores, without.cores);
    assert_eq!(with_events.core_cycles, without.core_cycles);
}

/// Strict lockstep (all scheduler fast paths off) must be an exact
/// semantic no-op: same events, same per-core counters, same simulated
/// cycles. Only the host-side fast/slow split may differ. The 128-core
/// run puts the top core id into the packed issue key and checks the
/// one-compare fast-path test against the rendezvous-only reference.
#[test]
fn strict_lockstep_is_semantically_identical() {
    let wide = RunConfig {
        threads: 128,
        txns_per_thread: 3,
        warmup_per_thread: 1,
        seed: 0xF1E7,
    };
    for run in [small_run(), wide] {
        let threads = run.threads;
        let (events_fast, report_fast) = run_on(Box::new(HashTable::paper()), run, Lazy, false);
        let (events_strict, report_strict) = run_on(Box::new(HashTable::paper()), run, Lazy, true);
        assert_eq!(
            events_fast, events_strict,
            "{threads} threads: strict_lockstep changed the protocol event stream"
        );
        assert_eq!(
            report_fast.cores, report_strict.cores,
            "{threads} threads: strict_lockstep changed simulated per-core counters"
        );
        assert_eq!(
            report_fast.core_cycles, report_strict.core_cycles,
            "{threads} threads: strict_lockstep changed simulated time"
        );
        assert_eq!(
            report_strict.sched.fast_ops, 0,
            "{threads} threads: strict_lockstep left a fast path enabled"
        );
        assert!(
            report_fast.sched.fast_ops > 0,
            "{threads} threads: no op took the fast path — the comparison is vacuous"
        );
    }
}
