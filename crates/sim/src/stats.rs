//! Counters and the optional event log.
//!
//! Per-core counters cover the memory system (hits/misses), the
//! transactional machinery (conflicts observed, alerts, overflows,
//! NACKs), and are aggregated into a [`MachineReport`] at the end of a
//! run. The event log is a test aid: with
//! [`crate::MachineConfig::record_events`] set, every interesting
//! protocol action is recorded in order.

use crate::cst::CstKind;
use flextm_sig::{LineAddr, ProcSet};

/// Why a transaction abort (or failed commit) happened.
///
/// Every increment of `tx_aborts` or `failed_commits` is paired with
/// exactly one [`AbortBreakdown`] cause increment, so per core
/// `AbortBreakdown::cause_sum() == tx_aborts + failed_commits` holds at
/// all times. This is the attribution taxonomy the paper's evaluation
/// (and the Bobba et al. pathology vocabulary its §7 leans on) needs:
/// it distinguishes CST-mediated commit-time losses from AOU kills,
/// strong-isolation kills, and contention-manager decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// An AOU alert fired on the transaction's ALoaded TSW — an enemy
    /// CAS'd it ABORTED (CM-directed enemy abort, or a lazy committer
    /// clearing its W-R/W-W conflictors).
    AouAlert,
    /// A conflicting *non-transactional* access killed the transaction
    /// (strong isolation, §3.5).
    StrongIsolation,
    /// CAS-Commit found the TSW already changed: the transaction was
    /// aborted remotely and only discovered it at commit time.
    LostTsw,
    /// CAS-Commit failed because the W-R/W-W CSTs were non-zero —
    /// write conflicts still pending arbitration.
    CommitConflicts,
    /// The contention manager directed this transaction to abort
    /// itself (it lost the conflict).
    CmSelf,
    /// A conflict against a descheduled transaction's summary
    /// signature forced this transaction to abort.
    SummaryTrap,
    /// Explicit software abort with no finer attribution (user retry,
    /// migration, test harness).
    Explicit,
}

/// Per-core abort-attribution counters (see [`AbortCause`]).
///
/// The first seven fields are the in-sum taxonomy: their total
/// ([`AbortBreakdown::cause_sum`]) equals `tx_aborts + failed_commits`
/// on the owning [`CoreStats`]. The trailing fields are out-of-sum
/// diagnostics recorded by contention-management code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortBreakdown {
    /// Aborts attributed to [`AbortCause::AouAlert`].
    pub aou_alert: u64,
    /// Aborts attributed to [`AbortCause::StrongIsolation`].
    pub strong_isolation: u64,
    /// Aborts/failed commits attributed to [`AbortCause::LostTsw`].
    pub lost_tsw: u64,
    /// Failed commits attributed to [`AbortCause::CommitConflicts`].
    pub commit_conflicts: u64,
    /// Aborts attributed to [`AbortCause::CmSelf`].
    pub cm_self: u64,
    /// Aborts attributed to [`AbortCause::SummaryTrap`].
    pub summary_trap: u64,
    /// Aborts attributed to [`AbortCause::Explicit`].
    pub explicit: u64,
    /// Diagnostic (not in `cause_sum`): equal-priority conflicts that
    /// the contention manager resolved by the deterministic id
    /// tie-break — each of these would have been a mutual abort under
    /// the old `>=` arbitration.
    pub mutual_abort: u64,
    /// Diagnostic (not in `cause_sum`): enemy TSWs this core
    /// successfully CAS'd to ABORTED (CM-directed enemy kills).
    pub cm_enemy_kills: u64,
}

impl AbortBreakdown {
    /// Records one abort (or failed commit) under `cause`.
    pub fn record(&mut self, cause: AbortCause) {
        match cause {
            AbortCause::AouAlert => self.aou_alert += 1,
            AbortCause::StrongIsolation => self.strong_isolation += 1,
            AbortCause::LostTsw => self.lost_tsw += 1,
            AbortCause::CommitConflicts => self.commit_conflicts += 1,
            AbortCause::CmSelf => self.cm_self += 1,
            AbortCause::SummaryTrap => self.summary_trap += 1,
            AbortCause::Explicit => self.explicit += 1,
        }
    }

    /// Sum of the in-sum cause counters. Invariant: equals
    /// `tx_aborts + failed_commits` on the owning core.
    pub fn cause_sum(&self) -> u64 {
        self.aou_alert
            + self.strong_isolation
            + self.lost_tsw
            + self.commit_conflicts
            + self.cm_self
            + self.summary_trap
            + self.explicit
    }

    /// Counter-wise difference against an earlier snapshot.
    pub fn minus(&self, earlier: &AbortBreakdown) -> AbortBreakdown {
        AbortBreakdown {
            aou_alert: self.aou_alert - earlier.aou_alert,
            strong_isolation: self.strong_isolation - earlier.strong_isolation,
            lost_tsw: self.lost_tsw - earlier.lost_tsw,
            commit_conflicts: self.commit_conflicts - earlier.commit_conflicts,
            cm_self: self.cm_self - earlier.cm_self,
            summary_trap: self.summary_trap - earlier.summary_trap,
            explicit: self.explicit - earlier.explicit,
            mutual_abort: self.mutual_abort - earlier.mutual_abort,
            cm_enemy_kills: self.cm_enemy_kills - earlier.cm_enemy_kills,
        }
    }
}

/// Zero-latency contention-management notes recorded through the
/// processor interface into [`AbortBreakdown`] diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmEvent {
    /// An equal-priority conflict was resolved by the id tie-break.
    PriorityTie,
    /// This core successfully CAS'd an enemy TSW to ABORTED.
    EnemyAbort,
}

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Plain loads executed.
    pub loads: u64,
    /// Plain stores executed.
    pub stores: u64,
    /// Transactional loads executed.
    pub tloads: u64,
    /// Transactional stores executed.
    pub tstores: u64,
    /// Accesses satisfied by the local L1 (including victim buffer).
    pub l1_hits: u64,
    /// Accesses that went to the L2/directory.
    pub l1_misses: u64,
    /// L1 misses that also missed in the L2 tags.
    pub l2_misses: u64,
    /// L1 misses satisfied from the local overflow table. OT fills are
    /// *also* counted in `l1_misses` (the access missed the L1 first,
    /// then hit the OT lookaside), so
    /// [`MachineReport::l1_hit_rate`] treats them as misses.
    pub ot_hits: u64,
    /// `Threatened` responses received.
    pub threatened_seen: u64,
    /// `Exposed-Read` responses received.
    pub exposed_seen: u64,
    /// Alerts delivered (AOU fires + strong-isolation aborts).
    pub alerts: u64,
    /// TMI lines that overflowed into the OT.
    pub overflows: u64,
    /// Requests NACKed against a committing OT.
    pub nacks: u64,
    /// Successful CAS-Commits.
    pub commits: u64,
    /// Failed CAS-Commits.
    pub failed_commits: u64,
    /// Explicit abort instructions executed.
    pub tx_aborts: u64,
    /// Writebacks of M lines (evictions + first-TStore-to-M).
    pub writebacks: u64,
    /// Cycles spent in `work` (computation) during attempts that went
    /// on to commit and during non-transactional execution. Work done
    /// inside an attempt that ultimately aborted is reclassified into
    /// `wasted_cycles` when the abort instruction retires.
    pub work_cycles: u64,
    /// Cycles spent waiting on the memory system during attempts that
    /// went on to commit and during non-transactional execution (same
    /// reclassification rule as `work_cycles`).
    pub mem_cycles: u64,
    /// Cycles spent in contention-manager stalls and backoff spins
    /// (never reclassified — a stall is a stall whether or not the
    /// attempt later aborted). Also absorbs end-of-run clock alignment.
    pub stall_cycles: u64,
    /// Work + memory cycles of attempts that ultimately aborted — the
    /// paper's key lazy-vs-eager metric.
    pub wasted_cycles: u64,
    /// Abort-cause attribution (invariant:
    /// `abort_causes.cause_sum() == tx_aborts + failed_commits`).
    pub abort_causes: AbortBreakdown,
}

impl CoreStats {
    /// Counter-wise difference against an `earlier` snapshot of the
    /// same core. All counters are monotone between snapshot points:
    /// wasted-cycle reclassification moves cycles between buckets only
    /// within a single attempt, and attempts never span a report
    /// snapshot (snapshots are taken between runs).
    pub fn minus(&self, earlier: &CoreStats) -> CoreStats {
        CoreStats {
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            tloads: self.tloads - earlier.tloads,
            tstores: self.tstores - earlier.tstores,
            l1_hits: self.l1_hits - earlier.l1_hits,
            l1_misses: self.l1_misses - earlier.l1_misses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            ot_hits: self.ot_hits - earlier.ot_hits,
            threatened_seen: self.threatened_seen - earlier.threatened_seen,
            exposed_seen: self.exposed_seen - earlier.exposed_seen,
            alerts: self.alerts - earlier.alerts,
            overflows: self.overflows - earlier.overflows,
            nacks: self.nacks - earlier.nacks,
            commits: self.commits - earlier.commits,
            failed_commits: self.failed_commits - earlier.failed_commits,
            tx_aborts: self.tx_aborts - earlier.tx_aborts,
            writebacks: self.writebacks - earlier.writebacks,
            work_cycles: self.work_cycles - earlier.work_cycles,
            mem_cycles: self.mem_cycles - earlier.mem_cycles,
            stall_cycles: self.stall_cycles - earlier.stall_cycles,
            wasted_cycles: self.wasted_cycles - earlier.wasted_cycles,
            abort_causes: self.abort_causes.minus(&earlier.abort_causes),
        }
    }

    /// Sum of the four cycle buckets. Invariant: equals this core's
    /// final clock in a [`MachineReport`].
    pub fn cycle_sum(&self) -> u64 {
        self.work_cycles + self.mem_cycles + self.stall_cycles + self.wasted_cycles
    }
}

/// Execution-engine counters: how the scheduler serviced a run's
/// operations. Host-side observability — these have no simulated-time
/// meaning, but every benchmark gets a built-in before/after
/// measurement of the engine itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Operations completed on a fast path (below the lease horizon, or
    /// the local `work`/`stall`/`now` paths) — no scheduler rendezvous.
    pub fast_ops: u64,
    /// Operations that went through the full rendezvous.
    pub slow_ops: u64,
    /// Lease grants that switched to another core's fiber (grants a
    /// core gave itself while posting are not counted).
    pub grants: u64,
}

impl SchedStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn minus(&self, earlier: &SchedStats) -> SchedStats {
        SchedStats {
            fast_ops: self.fast_ops - earlier.fast_ops,
            slow_ops: self.slow_ops - earlier.slow_ops,
            grants: self.grants - earlier.grants,
        }
    }
}

/// Whole-machine report returned by [`crate::Machine::report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineReport {
    /// Final per-core cycle counts.
    pub core_cycles: Vec<u64>,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Scheduler counters — functions of the deterministic schedule,
    /// so the determinism suite compares whole reports across runs.
    pub sched: SchedStats,
}

impl MachineReport {
    /// The run's elapsed time: the maximum core clock.
    pub fn elapsed_cycles(&self) -> u64 {
        self.core_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Sum of a counter over all cores.
    pub fn total(&self, f: impl Fn(&CoreStats) -> u64) -> u64 {
        self.cores.iter().map(f).sum()
    }

    /// Total committed CAS-Commits.
    pub fn commits(&self) -> u64 {
        self.total(|c| c.commits)
    }

    /// Total explicit aborts.
    pub fn aborts(&self) -> u64 {
        self.total(|c| c.tx_aborts)
    }

    /// Overall L1 hit rate in `[0, 1]` (1 if there were no accesses).
    /// Accesses satisfied from the overflow table (`ot_hits`) count as
    /// misses here: they are a subset of `l1_misses`.
    pub fn l1_hit_rate(&self) -> f64 {
        let hits = self.total(|c| c.l1_hits);
        let total = hits + self.total(|c| c.l1_misses);
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Executed simulated operations: memory operations plus
    /// commit-path instructions. The scheduler-throughput metric.
    pub fn sim_ops(&self) -> u64 {
        self.total(|c| c.loads + c.stores + c.tloads + c.tstores)
            + self.total(|c| c.commits + c.failed_commits + c.tx_aborts)
    }

    /// Scheduler rendezvous per simulated operation: lease grants
    /// divided by `sim_ops` (0.0 when no ops ran). The lease-batching
    /// figure of merit — strict lockstep pays ~1 grant per op, batched
    /// horizons push this toward 0.
    pub fn rendezvous_per_op(&self) -> f64 {
        let ops = self.sim_ops();
        if ops == 0 {
            0.0
        } else {
            self.sched.grants as f64 / ops as f64
        }
    }

    /// The difference between this report and an earlier snapshot of
    /// the same machine — the counters attributable to the runs in
    /// between. Used by the workload harness to separate a measured
    /// phase from its warm-up.
    ///
    /// # Panics
    ///
    /// Panics if the two reports have different core counts: snapshots
    /// of the *same* machine always have identical `cores` /
    /// `core_cycles` lengths, so a mismatch means the caller diffed
    /// reports from different machines (previously this was silently
    /// truncated by `zip`).
    pub fn delta(&self, earlier: &MachineReport) -> MachineReport {
        assert_eq!(
            self.cores.len(),
            earlier.cores.len(),
            "MachineReport::delta: reports are from different machines \
             ({} vs {} cores)",
            self.cores.len(),
            earlier.cores.len(),
        );
        assert_eq!(
            self.core_cycles.len(),
            earlier.core_cycles.len(),
            "MachineReport::delta: reports are from different machines \
             ({} vs {} core clocks)",
            self.core_cycles.len(),
            earlier.core_cycles.len(),
        );
        MachineReport {
            core_cycles: self
                .core_cycles
                .iter()
                .zip(&earlier.core_cycles)
                .map(|(now, then)| now - then)
                .collect(),
            cores: self
                .cores
                .iter()
                .zip(&earlier.cores)
                .map(|(now, then)| now.minus(then))
                .collect(),
            sched: self.sched.minus(&earlier.sched),
        }
    }
}

/// A recorded protocol event (only with `record_events`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A coherence response indicated a conflict; `requester` and
    /// `responder` both updated CSTs.
    Conflict {
        /// Requesting processor.
        requester: usize,
        /// Responding processor.
        responder: usize,
        /// Table updated at the requester (`responder` updates the
        /// mirror-image table).
        requester_cst: CstKind,
        /// The contested line.
        line: LineAddr,
    },
    /// An AOU alert fired on `core`.
    Alert {
        /// Alerted processor.
        core: usize,
        /// The invalidated, marked line.
        line: LineAddr,
    },
    /// A strong-isolation abort: a non-transactional access killed a
    /// transaction.
    StrongIsolationAbort {
        /// Processor whose transaction died.
        victim: usize,
        /// Non-transactional requester.
        requester: usize,
        /// The contested line.
        line: LineAddr,
    },
    /// A TMI line overflowed to the OT.
    Overflow {
        /// Processor that overflowed.
        core: usize,
        /// Line spilled.
        line: LineAddr,
    },
    /// An L1 miss was satisfied from the overflow table.
    OtFill {
        /// Processor served.
        core: usize,
        /// Line fetched.
        line: LineAddr,
    },
    /// A request was NACKed against a committed, copying-back OT.
    Nack {
        /// Requesting processor.
        requester: usize,
        /// Owning (committing) processor.
        owner: usize,
        /// The contested line.
        line: LineAddr,
    },
    /// CAS-Commit executed.
    CasCommit {
        /// Committing processor.
        core: usize,
        /// Whether the commit succeeded.
        success: bool,
    },
    /// Explicit abort instruction.
    TxAbort {
        /// Aborting processor.
        core: usize,
        /// Attribution recorded with the abort.
        cause: AbortCause,
    },
    /// An L1 miss hit the directory's summary signatures and trapped to
    /// software.
    SummaryHit {
        /// Requesting processor.
        core: usize,
        /// The contested line.
        line: LineAddr,
        /// Descheduled thread ids implicated.
        threads: ProcSet,
    },
    /// Directory info was recreated from L1 signatures after an L2 miss.
    DirRecreated {
        /// The line whose entry was rebuilt.
        line: LineAddr,
    },
}

/// Ordered event log.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<Event>,
    enabled: bool,
}

impl EventLog {
    /// Creates a log; a disabled log discards everything.
    pub fn new(enabled: bool) -> Self {
        EventLog {
            events: Vec::new(),
            enabled,
        }
    }

    /// Whether pushed events are recorded. Callers use this to skip
    /// building payloads (e.g. cloning hit lists) for a disabled log.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event if enabled.
    pub fn push(&mut self, e: Event) {
        if self.enabled {
            self.events.push(e);
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events (0 when disabled). The scheduler's
    /// run-ahead debug guard snapshots this to assert a relaxed op
    /// emitted nothing.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the log (tests consume between phases).
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_elapsed_is_max_clock() {
        let r = MachineReport {
            core_cycles: vec![10, 99, 5],
            cores: vec![CoreStats::default(); 3],
            sched: SchedStats::default(),
        };
        assert_eq!(r.elapsed_cycles(), 99);
    }

    #[test]
    fn hit_rate_handles_no_accesses() {
        let r = MachineReport::default();
        assert_eq!(r.l1_hit_rate(), 1.0);
    }

    #[test]
    fn report_equality_covers_sched_and_core_counters() {
        let mut a = MachineReport {
            core_cycles: vec![7],
            cores: vec![CoreStats::default()],
            sched: SchedStats {
                fast_ops: 3,
                slow_ops: 2,
                grants: 1,
            },
        };
        let mut b = a.clone();
        assert_eq!(a, b);
        b.sched.fast_ops = 4;
        assert_ne!(a, b);
        b.sched.fast_ops = 3;
        b.sched.grants = 2;
        assert_ne!(a, b, "grants must participate in equality");
        b.sched.grants = 1;
        a.cores[0].commits = 1;
        assert_ne!(a, b);
    }

    #[test]
    fn rendezvous_per_op_divides_grants_by_ops() {
        let mut r = MachineReport {
            core_cycles: vec![0],
            cores: vec![CoreStats::default()],
            sched: SchedStats::default(),
        };
        assert_eq!(r.rendezvous_per_op(), 0.0, "no ops must not divide by zero");
        r.cores[0].loads = 8;
        r.cores[0].commits = 2;
        r.sched.grants = 5;
        assert!((r.rendezvous_per_op() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_counters() {
        let mut before = MachineReport {
            core_cycles: vec![100, 50],
            cores: vec![CoreStats::default(); 2],
            sched: SchedStats {
                fast_ops: 10,
                slow_ops: 5,
                grants: 2,
            },
        };
        before.cores[0].loads = 8;
        let mut after = before.clone();
        after.core_cycles = vec![160, 90];
        after.cores[0].loads = 20;
        after.cores[1].commits = 3;
        after.sched.fast_ops = 25;
        let d = after.delta(&before);
        assert_eq!(d.core_cycles, vec![60, 40]);
        assert_eq!(d.cores[0].loads, 12);
        assert_eq!(d.cores[1].commits, 3);
        assert_eq!(d.sched.fast_ops, 15);
        assert_eq!(d.sim_ops(), 15); // 12 loads + 3 commits
    }

    #[test]
    #[should_panic(expected = "different machines")]
    fn delta_panics_on_core_count_mismatch() {
        let a = MachineReport {
            core_cycles: vec![10, 20],
            cores: vec![CoreStats::default(); 2],
            sched: SchedStats::default(),
        };
        let b = MachineReport {
            core_cycles: vec![5],
            cores: vec![CoreStats::default(); 1],
            sched: SchedStats::default(),
        };
        let _ = a.delta(&b);
    }

    #[test]
    fn abort_breakdown_records_and_sums() {
        let mut b = AbortBreakdown::default();
        b.record(AbortCause::AouAlert);
        b.record(AbortCause::AouAlert);
        b.record(AbortCause::LostTsw);
        b.record(AbortCause::CommitConflicts);
        b.record(AbortCause::CmSelf);
        b.record(AbortCause::StrongIsolation);
        b.record(AbortCause::SummaryTrap);
        b.record(AbortCause::Explicit);
        b.mutual_abort = 5;
        b.cm_enemy_kills = 7;
        assert_eq!(b.aou_alert, 2);
        // Diagnostics stay out of the in-sum total.
        assert_eq!(b.cause_sum(), 8);
        let mut earlier = AbortBreakdown::default();
        earlier.record(AbortCause::AouAlert);
        let d = b.minus(&earlier);
        assert_eq!(d.aou_alert, 1);
        assert_eq!(d.cause_sum(), 7);
        assert_eq!(d.mutual_abort, 5);
    }

    #[test]
    fn cycle_sum_adds_all_four_buckets() {
        let s = CoreStats {
            work_cycles: 10,
            mem_cycles: 20,
            stall_cycles: 30,
            wasted_cycles: 40,
            ..CoreStats::default()
        };
        assert_eq!(s.cycle_sum(), 100);
    }

    #[test]
    fn disabled_log_discards() {
        let mut log = EventLog::new(false);
        log.push(Event::TxAbort {
            core: 0,
            cause: AbortCause::Explicit,
        });
        assert!(log.events().is_empty());
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = EventLog::new(true);
        log.push(Event::TxAbort {
            core: 0,
            cause: AbortCause::Explicit,
        });
        log.push(Event::CasCommit {
            core: 1,
            success: true,
        });
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.take().len(), 2);
        assert!(log.events().is_empty());
    }
}
