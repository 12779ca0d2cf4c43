//! The FlexTM runtime: BEGIN/END transaction machinery over the
//! simulator's hardware mechanisms (paper §3.5–§3.6).
//!
//! A transaction:
//!
//! 1. **begins** by publishing its contention priority, setting its TSW
//!    to `ACTIVE` and ALoading it (so any enemy abort alerts us);
//! 2. **executes** its body with `TLoad`/`TStore`; in *eager* mode,
//!    `Threatened`/`Exposed-Read` responses trap into the contention
//!    manager, which stalls, aborts the enemy, or aborts us; in *lazy*
//!    mode conflicts merely accumulate in the CSTs;
//! 3. **commits** via the Fig. 3 routine: lazy transactions
//!    copy-and-clear `W-R`/`W-W`, CAS every recorded enemy's TSW from
//!    `ACTIVE` to `ABORTED`, then CAS-Commit their own TSW — retrying
//!    if new conflicts slipped in. All of it is local: no token,
//!    broadcast, or global arbitration.

use crate::cm::{CmContext, CmDecision, ContentionManager};
use crate::os::Cmt;
use crate::tsw::{tsw_tag, tsw_word, DescriptorTable, TSW_ABORTED, TSW_ACTIVE, TSW_COMMITTED};
use flextm_sim::api::{AttemptOutcome, TmRuntime, TmThread, TxRetry, Txn, TxnBody};
use flextm_sim::{
    procs_in_mask, Addr, AlertCause, Conflict, ConflictList, CstKind, Machine, ProcHandle, ProcSet,
};
use flextm_sim::{AbortCause, AccessResult, CasCommitOutcome, CmEvent};

/// Maps a hardware alert to the abort-attribution cause recorded when
/// software reacts to it by aborting the local attempt.
fn alert_cause(alert: AlertCause) -> AbortCause {
    match alert {
        AlertCause::AouInvalidated(_) => AbortCause::AouAlert,
        AlertCause::StrongIsolation(_) => AbortCause::StrongIsolation,
        // Watchpoint alerts never abort transactions in this runtime;
        // if a body treats one as fatal, attribute it as explicit.
        AlertCause::WatchRead(_) | AlertCause::WatchWrite(_) => AbortCause::Explicit,
    }
}

/// Conflict-detection mode (the `E/L` descriptor field of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Resolve conflicts the moment a response reports them.
    Eager,
    /// Note conflicts in CSTs; settle everything at commit time.
    #[default]
    Lazy,
}

/// FlexTM runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct FlexTmConfig {
    /// Eager or lazy conflict management.
    pub mode: Mode,
    /// Contention-management policy (paper default: Polka).
    pub cm: crate::cm::CmKind,
    /// Number of software threads (descriptors to allocate). May exceed
    /// the core count when some threads are descheduled.
    pub threads: usize,
    /// Ablation switch: serialize commits through a global token, like
    /// TCC/Bulk-style arbitration. FlexTM's CSTs make this unnecessary
    /// (commits are local and parallel — the paper's Result 1b); turn
    /// it on to measure what that decoupling buys.
    pub serialized_commits: bool,
}

impl FlexTmConfig {
    /// Lazy Polka for `threads` threads.
    pub fn lazy(threads: usize) -> Self {
        FlexTmConfig {
            mode: Mode::Lazy,
            cm: crate::cm::CmKind::Polka,
            threads,
            serialized_commits: false,
        }
    }

    /// Eager Polka for `threads` threads.
    pub fn eager(threads: usize) -> Self {
        FlexTmConfig {
            mode: Mode::Eager,
            cm: crate::cm::CmKind::Polka,
            threads,
            serialized_commits: false,
        }
    }
}

/// The FlexTM runtime. One instance per machine; shared by reference
/// across worker threads.
#[derive(Debug)]
pub struct FlexTm {
    mode: Mode,
    cm: crate::cm::CmKind,
    descriptors: DescriptorTable,
    pub(crate) cmt: Cmt,
    sig_config: flextm_sig::SignatureConfig,
    /// Global commit token (serialized-commit ablation only).
    commit_token: Option<Addr>,
    name: String,
}

impl FlexTm {
    /// Allocates descriptors in the machine's memory and builds the
    /// runtime. Call before `Machine::run`.
    pub fn new(machine: &Machine, config: FlexTmConfig) -> Self {
        let descriptors = DescriptorTable::allocate(machine, config.threads);
        let sig_config = machine.with_state(|st| st.config.signature.clone());
        let commit_token = config.serialized_commits.then(|| {
            machine.with_state(|st| {
                let mut arena = flextm_sim::Heap::arena(60);
                let token = arena.alloc(flextm_sim::WORDS_PER_LINE as u64);
                st.mem.write(token, 0);
                token
            })
        });
        let mut name = match config.mode {
            Mode::Eager => "FlexTM-Eager".to_string(),
            Mode::Lazy => "FlexTM-Lazy".to_string(),
        };
        if commit_token.is_some() {
            name.push_str("+Token");
        }
        FlexTm {
            mode: config.mode,
            cm: config.cm,
            descriptors,
            cmt: Cmt::new(),
            sig_config,
            commit_token,
            name,
        }
    }

    /// The conflict-detection mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The descriptor table (tests inspect TSWs directly).
    pub fn descriptors(&self) -> &DescriptorTable {
        &self.descriptors
    }

    /// Number of currently suspended transactions in the CMT.
    pub fn cmt_len(&self) -> usize {
        self.cmt.len()
    }

    /// Builds the concrete per-thread handle (exposes the §5
    /// virtualization entry points that the `dyn TmThread` interface
    /// does not).
    pub fn flex_thread(&self, thread_id: usize, proc: ProcHandle) -> FlexTmThread<'_> {
        FlexTmThread {
            rt: self,
            tid: thread_id,
            cm: self.cm.build(thread_id),
            proc,
            suspended_enemies: Vec::new(),
            enemies_this_txn: ProcSet::empty(),
            seq: 0,
            // A commit can conflict with at most MAX_CORES-1 peers;
            // reserving up front keeps the commit path's resize
            // allocation-free in steady state.
            conflict_histogram: Vec::with_capacity(flextm_sim::MAX_CORES),
            pending_abort: None,
        }
    }
}

impl TmRuntime for FlexTm {
    fn name(&self) -> &str {
        &self.name
    }

    fn thread<'r>(&'r self, thread_id: usize, proc: ProcHandle) -> Box<dyn TmThread + 'r> {
        Box::new(self.flex_thread(thread_id, proc))
    }
}

/// Per-thread FlexTM handle.
pub struct FlexTmThread<'r> {
    rt: &'r FlexTm,
    tid: usize,
    cm: Box<dyn ContentionManager>,
    proc: ProcHandle,
    /// Descheduled thread ids this transaction write-conflicted with;
    /// aborted during commit (virtualized CST, §5).
    suspended_enemies: Vec<usize>,
    /// Set of distinct processors this attempt conflicted with (feeds
    /// the Fig. 4 conflict histogram).
    enemies_this_txn: ProcSet,
    /// Per-transaction sequence number (TSW versioning; see `tsw_word`).
    seq: u64,
    /// Histogram over committed transactions of the number of distinct
    /// transactions each conflicted with (the set bits of `W-R | W-W`
    /// plus eagerly-resolved enemies) — the Fig. 4 side-table metric,
    /// read through [`TmThread::conflict_histogram`].
    conflict_histogram: Vec<u64>,
    /// Cause to attribute if the current attempt aborts. First cause
    /// wins; `abort_attempt` consumes it.
    pending_abort: Option<AbortCause>,
}

impl std::fmt::Debug for FlexTmThread<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlexTmThread")
            .field("tid", &self.tid)
            .field("conflict_histogram", &self.conflict_histogram)
            .finish_non_exhaustive()
    }
}

impl<'r> FlexTmThread<'r> {
    fn tsw(&self) -> Addr {
        self.rt.descriptors.descriptor(self.tid).tsw
    }

    /// This thread's id.
    pub fn thread_id(&self) -> usize {
        self.tid
    }

    /// Records the abort cause for a hardware alert, unless an earlier
    /// cause already claimed this attempt.
    fn note_alert(&mut self, alert: AlertCause) {
        if self.pending_abort.is_none() {
            self.pending_abort = Some(alert_cause(alert));
        }
    }

    /// BEGIN_TRANSACTION: drain stale alerts, publish priority, arm the
    /// TSW.
    fn begin(&mut self) {
        while self.proc.take_alert().is_some() {}
        self.proc.begin_attempt();
        self.pending_abort = None;
        self.cm.on_begin();
        self.seq += 1;
        let d = self.rt.descriptors.descriptor(self.tid);
        self.proc.store(d.priority, self.cm.priority());
        self.proc.store(d.tsw, tsw_word(self.seq, TSW_ACTIVE));
        self.proc.aload(d.tsw);
        // Register-checkpoint cost (setjmp of spilled locals, §7.1).
        self.proc.work(20);
    }

    /// Clears our CST bits for a resolved enemy so a later CAS-Commit
    /// is not blocked by stale conflicts.
    fn clear_enemy_bits(&self, enemy: usize) {
        self.proc.clear_cst_bit(CstKind::RW, enemy);
        self.proc.clear_cst_bit(CstKind::WR, enemy);
        self.proc.clear_cst_bit(CstKind::WW, enemy);
    }

    /// Eager-mode conflict resolution (the CMPC handler). Returns
    /// `false` when the local transaction must abort.
    fn resolve_conflicts(&mut self, conflicts: &ConflictList) -> bool {
        for c in conflicts.iter() {
            let enemy = c.with;
            if enemy == self.proc.core() {
                continue;
            }
            self.enemies_this_txn.insert(enemy);
            let edesc = self.rt.descriptors.descriptor(enemy);
            let mut stalls = 0u32;
            loop {
                let etsw = self.proc.load(edesc.tsw);
                if tsw_tag(etsw) != TSW_ACTIVE {
                    self.clear_enemy_bits(enemy);
                    break;
                }
                let eprio = self.proc.load(edesc.priority);
                let ctx = CmContext {
                    my_priority: self.cm.priority(),
                    enemy_priority: eprio,
                    my_id: self.proc.core(),
                    enemy_id: enemy,
                    stalls_so_far: stalls,
                };
                if stalls == 0 && ctx.priority_tie() {
                    self.proc.note_cm_event(CmEvent::PriorityTie);
                }
                match self.cm.on_conflict(ctx) {
                    CmDecision::Stall(cycles) => {
                        // Fused backoff + alert poll: one check per
                        // scheduling grant, not one rendezvous per spin
                        // step. Stalling may have got us aborted
                        // meanwhile.
                        let alert = self.proc.stall_poll(cycles);
                        stalls += 1;
                        if let Some(alert) = alert {
                            self.note_alert(alert);
                            return false;
                        }
                    }
                    CmDecision::AbortEnemy => {
                        let prev = self.proc.cas(edesc.tsw, etsw, (etsw & !3) | TSW_ABORTED);
                        if prev == etsw {
                            self.proc.note_cm_event(CmEvent::EnemyAbort);
                        }
                        self.clear_enemy_bits(enemy);
                        break;
                    }
                    CmDecision::AbortSelf => {
                        if self.pending_abort.is_none() {
                            self.pending_abort = Some(AbortCause::CmSelf);
                        }
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Handles directory summary hits: conflicts with *descheduled*
    /// transactions, resolved in software via the CMT (§5). Returns
    /// `false` if the local transaction must abort.
    fn handle_summary_hits(&mut self, addr: Addr, is_write: bool, hits: ProcSet) -> bool {
        // Charge the trap + software handler.
        self.proc.work(80);
        for tid in hits.iter() {
            let core = self.proc.core();
            let cmt = &self.rt.cmt;
            let info = self
                .proc
                .with_sync(|| cmt.note_conflict(tid, addr.line(), is_write, core));
            let Some(info) = info else { continue };
            // They wrote, we write or read → someone must die before
            // both commit. We read / they wrote: they will abort us at
            // their commit (their virtual W-R now has our bit). We
            // write: we must abort them at ours.
            if is_write {
                match self.rt.mode {
                    Mode::Eager => {
                        // Stalling behind a suspended transaction risks
                        // convoying (the LogTM-SE failure mode the paper
                        // calls out); FlexTM can simply abort it.
                        self.kill_enemy(info.tsw);
                    }
                    Mode::Lazy => {
                        if !self.suspended_enemies.contains(&tid) {
                            self.suspended_enemies.push(tid);
                        }
                    }
                }
            }
        }
        true
    }

    /// Aborts the transaction whose status word is `tsw` if it is
    /// still active: load the word, CAS its tag from ACTIVE to ABORTED,
    /// and count an enemy abort when the CAS wins.
    fn kill_enemy(&self, tsw: Addr) {
        let old = self.proc.load(tsw);
        if tsw_tag(old) == TSW_ACTIVE && self.proc.cas(tsw, old, (old & !3) | TSW_ABORTED) == old {
            self.proc.note_cm_event(CmEvent::EnemyAbort);
        }
    }

    fn attempt_result(&mut self, res: &AccessResult, addr: Addr, is_write: bool) -> bool {
        self.cm.on_open();
        if !res.summary_hits.is_empty()
            && !self.handle_summary_hits(addr, is_write, res.summary_hits)
        {
            return false;
        }
        if self.rt.mode == Mode::Eager && !res.conflicts.is_empty() {
            return self.resolve_conflicts(&res.conflicts);
        }
        true
    }

    /// The Commit() routine (Fig. 3). Returns `true` on commit.
    fn commit(&mut self) -> bool {
        // Serialized-commit ablation: arbitrate through the global
        // token like TCC/Bulk before doing any commit work.
        if let Some(token) = self.rt.commit_token {
            let mut backoff = 16u64;
            // First poll stands alone; every later one is fused into
            // the backoff stall so each spin iteration takes one
            // rendezvous fewer. The op order an observer sees is
            // unchanged: poll, load, [cas], stall, poll, load, …
            let mut alert = self.proc.take_alert();
            loop {
                if let Some(alert) = alert {
                    self.note_alert(alert);
                    return false;
                }
                if self.proc.load(token) == 0 && self.proc.cas(token, 0, 1) == 0 {
                    break;
                }
                alert = self.proc.stall_poll(backoff);
                backoff = (backoff * 2).min(512);
            }
            let committed = self.commit_inner();
            self.proc.store(token, 0);
            return committed;
        }
        self.commit_inner()
    }

    fn commit_inner(&mut self) -> bool {
        let tsw = self.tsw();
        loop {
            // An enemy may have aborted us since the last body op;
            // notice before attacking others.
            if let Some(alert) = self.proc.take_alert() {
                self.note_alert(alert);
                return false;
            }
            if self.rt.mode == Mode::Lazy {
                // Line 1: copy-and-clear W-R and W-W.
                let wr = self.proc.copy_and_clear_cst(CstKind::WR);
                let ww = self.proc.copy_and_clear_cst(CstKind::WW);
                self.enemies_this_txn |= wr | ww;
                // Lines 2–3: abort every conflicting peer.
                for enemy in procs_in_mask(wr | ww) {
                    if enemy == self.proc.core() || enemy >= self.rt.descriptors.len() {
                        continue;
                    }
                    self.kill_enemy(self.rt.descriptors.descriptor(enemy).tsw);
                }
            }
            // Virtualized enemies (descheduled transactions we
            // write-conflicted with).
            for tid in std::mem::take(&mut self.suspended_enemies) {
                let cmt = &self.rt.cmt;
                if let Some(info) = self.proc.with_sync(|| cmt.lookup(tid)) {
                    self.kill_enemy(info.tsw);
                }
            }
            // Line 4: CAS-Commit our own status word.
            match self.proc.cas_commit(
                tsw,
                tsw_word(self.seq, TSW_ACTIVE),
                tsw_word(self.seq, TSW_COMMITTED),
            ) {
                Err(alert) => {
                    self.note_alert(alert);
                    return false;
                }
                Ok(CasCommitOutcome::Committed(_)) => return true,
                Ok(CasCommitOutcome::LostTsw(_)) => {
                    // The hardware already recorded LostTsw for both
                    // base counters; attribute the software retry path
                    // the same way.
                    if self.pending_abort.is_none() {
                        self.pending_abort = Some(AbortCause::LostTsw);
                    }
                    return false;
                }
                Ok(CasCommitOutcome::ConflictsPending { wr, ww }) => {
                    // Line 5: still active with fresh conflicts → loop.
                    if self.rt.mode == Mode::Eager {
                        let conflicts: ConflictList = procs_in_mask(wr | ww)
                            .map(|p| Conflict {
                                with: p,
                                kind: flextm_sim::ConflictKind::Threatened,
                            })
                            .collect();
                        if !self.resolve_conflicts(&conflicts) {
                            return false;
                        }
                    }
                }
            }
        }
    }

    /// Abort path: ensure the TSW is not left `ACTIVE`, flash-clear the
    /// hardware, back off per the contention manager.
    fn abort_attempt(&mut self) {
        let tsw = self.tsw();
        self.proc.cas(
            tsw,
            tsw_word(self.seq, TSW_ACTIVE),
            tsw_word(self.seq, TSW_ABORTED),
        );
        let cause = self.pending_abort.take().unwrap_or(AbortCause::Explicit);
        self.proc.abort_tx(cause);
        self.suspended_enemies.clear();
        self.enemies_this_txn = ProcSet::empty();
        let backoff = self.cm.on_abort();
        self.proc.stall(backoff);
    }

    /// Access to the underlying processor handle.
    pub fn proc_handle(&self) -> &ProcHandle {
        &self.proc
    }

    pub(crate) fn descriptor_tsw(&self) -> Addr {
        self.tsw()
    }

    pub(crate) fn runtime_cmt(&self) -> &Cmt {
        &self.rt.cmt
    }

    pub(crate) fn sig_config(&self) -> &flextm_sig::SignatureConfig {
        &self.rt.sig_config
    }
}

impl TmThread for FlexTmThread<'_> {
    fn txn_once(&mut self, body: &mut TxnBody<'_>) -> AttemptOutcome {
        self.begin();
        let (body_result, doomed) = {
            let mut txn = FlexTxn {
                th: self,
                doomed: false,
            };
            let r = body(&mut txn);
            (r, txn.doomed)
        };
        if body_result.is_err() || doomed {
            self.abort_attempt();
            return AttemptOutcome::Aborted;
        }
        if self.commit() {
            self.cm.on_commit();
            let n = std::mem::take(&mut self.enemies_this_txn).count() as usize;
            if self.conflict_histogram.len() <= n {
                self.conflict_histogram.resize(n + 1, 0);
            }
            self.conflict_histogram[n] += 1;
            AttemptOutcome::Committed
        } else {
            self.abort_attempt();
            AttemptOutcome::Aborted
        }
    }

    fn proc(&self) -> &ProcHandle {
        &self.proc
    }

    fn conflict_histogram(&self) -> &[u64] {
        &self.conflict_histogram
    }
}

/// The in-transaction view: maps the generic [`Txn`] operations onto
/// `TLoad`/`TStore` and runs the eager conflict handler.
struct FlexTxn<'a, 'r> {
    th: &'a mut FlexTmThread<'r>,
    doomed: bool,
}

impl FlexTxn<'_, '_> {
    fn on_alert(&mut self, cause: AlertCause) -> TxRetry {
        self.th.note_alert(cause);
        self.doomed = true;
        TxRetry
    }
}

impl Txn for FlexTxn<'_, '_> {
    fn read(&mut self, addr: Addr) -> Result<u64, TxRetry> {
        if self.doomed {
            return Err(TxRetry);
        }
        match self.th.proc.tload(addr) {
            Err(cause) => Err(self.on_alert(cause)),
            Ok(res) => {
                if !self.th.attempt_result(&res, addr, false) {
                    self.doomed = true;
                    return Err(TxRetry);
                }
                Ok(res.value)
            }
        }
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), TxRetry> {
        if self.doomed {
            return Err(TxRetry);
        }
        match self.th.proc.tstore(addr, value) {
            Err(cause) => Err(self.on_alert(cause)),
            Ok(res) => {
                if !self.th.attempt_result(&res, addr, true) {
                    self.doomed = true;
                    return Err(TxRetry);
                }
                Ok(())
            }
        }
    }

    fn work(&mut self, cycles: u64) -> Result<(), TxRetry> {
        if self.doomed {
            return Err(TxRetry);
        }
        self.th.proc.work(cycles);
        Ok(())
    }

    fn escape_read(&mut self, addr: Addr) -> Result<u64, TxRetry> {
        if self.doomed {
            return Err(TxRetry);
        }
        // FlexTM has real escape instructions: a plain load that
        // bypasses Rsig/TI semantics.
        Ok(self.th.proc.load(addr))
    }

    fn escape_write(&mut self, addr: Addr, value: u64) -> Result<(), TxRetry> {
        if self.doomed {
            return Err(TxRetry);
        }
        // Plain store: immediate, abort-surviving (the simulator folds
        // it into both views when the line is locally speculative).
        self.th.proc.store(addr, value);
        Ok(())
    }
}
