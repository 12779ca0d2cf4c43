//! An RSTM-style software TM (Marathe et al., TRANSACT 2006): the
//! "STM" baseline of Workload-Set 1.
//!
//! Configured as the paper configures RSTM: **invisible readers with
//! self-validation**. The cost profile the paper measures — and that
//! this model reproduces by running the real algorithm over simulated
//! memory — is:
//!
//! * *metadata indirection*: every access reads an ownership record
//!   first (extra cache misses — the ~2× miss-rate inflation seen in
//!   Delaunay);
//! * *incremental validation*: because readers are invisible, every new
//!   read re-validates the entire read set (the O(n²) term that is 80%
//!   of RandomGraph's execution time);
//! * *copying*: writers acquire orecs eagerly and buffer a clone,
//!   charged per write.
//!
//! Conflict arbitration uses the shared [`flextm::cm`] managers (the
//! paper runs Polka everywhere); enemies are aborted by CAS on their
//! status word, exactly like the real non-blocking RSTM.

use crate::orec::{lockword, OrecTable};
use flextm::cm::{CmContext, CmDecision, CmKind, ContentionManager};
use flextm::{DescriptorTable, TSW_ABORTED, TSW_ACTIVE, TSW_COMMITTED};
use flextm_sim::api::{AttemptOutcome, TmRuntime, TmThread, TxRetry, Txn, TxnBody};
use flextm_sim::{Addr, Machine, ProcHandle};

/// Cycle charges for thread-local bookkeeping.
pub mod costs {
    /// Write-set lookup on each access.
    pub const WSET_CHECK: u64 = 6;
    /// Read-set append.
    pub const READ_LOG: u64 = 5;
    /// Object clone on first write (the "copying" overhead).
    pub const CLONE: u64 = 40;
    /// Per-entry commit processing.
    pub const COMMIT_ENTRY: u64 = 4;
}

/// The RSTM-like runtime.
#[derive(Debug)]
pub struct Rstm {
    orecs: OrecTable,
    descriptors: DescriptorTable,
    cm: CmKind,
}

impl Rstm {
    /// Allocates orecs and per-thread status words.
    pub fn new(machine: &Machine, threads: usize, cm: CmKind) -> Self {
        let (orecs, _clock) = OrecTable::allocate(machine, 16 * 1024);
        let descriptors = DescriptorTable::allocate(machine, threads);
        Rstm {
            orecs,
            descriptors,
            cm,
        }
    }
}

impl TmRuntime for Rstm {
    fn name(&self) -> &str {
        "RSTM"
    }

    fn thread<'r>(&'r self, thread_id: usize, proc: ProcHandle) -> Box<dyn TmThread + 'r> {
        Box::new(RstmThread {
            rt: self,
            tid: thread_id,
            cm: self.cm.build(thread_id),
            proc,
        })
    }
}

struct RstmThread<'r> {
    rt: &'r Rstm,
    tid: usize,
    cm: Box<dyn ContentionManager>,
    proc: ProcHandle,
}

struct RstmTxn<'a, 'r> {
    th: &'a mut RstmThread<'r>,
    status: Addr,
    /// (orec, version observed) — revalidated on every new read.
    read_set: Vec<(Addr, u64)>,
    /// Redo log.
    write_set: Vec<(Addr, u64)>,
    /// Orecs this transaction write-owns, with the pre-lock version.
    owned: Vec<(Addr, u64)>,
    doomed: bool,
}

impl RstmTxn<'_, '_> {
    fn find_write(&self, addr: Addr) -> Option<u64> {
        self.write_set
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map(|(_, v)| *v)
    }

    /// Full read-set validation (the invisible-reader tax), plus the
    /// self-status check that notices enemy aborts.
    fn validate(&mut self) -> bool {
        if self.th.proc.load(self.status) == TSW_ABORTED {
            return false;
        }
        for &(orec, seen) in &self.read_set {
            let o = self.th.proc.load(orec);
            // An orec this transaction has locked since the read passes
            // only at the version the read saw: a commit in between
            // made the value read stale.
            let still_mine = lockword::is_locked(o)
                && lockword::owner(o) == self.th.tid
                && lockword::version(o) == lockword::version(seen);
            if o != seen && !still_mine {
                return false;
            }
        }
        true
    }

    /// Acquires write ownership of `orec`, arbitrating via the
    /// contention manager. Returns the pre-lock version, or `None` if
    /// we must abort.
    fn acquire(&mut self, orec: Addr) -> Option<u64> {
        let mut stalls = 0u32;
        loop {
            let o = self.th.proc.load(orec);
            if lockword::is_locked(o) {
                let owner = lockword::owner(o);
                if owner == self.th.tid {
                    return Some(lockword::version(o));
                }
                // Check the owner's status: a dead owner's orec can be
                // cleaned by anyone (non-blocking property).
                let owner_desc = self.th.rt.descriptors.descriptor(owner);
                let owner_status = self.th.proc.load(owner_desc.tsw);
                if owner_status != TSW_ACTIVE {
                    // Clean: bump the version past the dead owner.
                    let cleaned = lockword::free(lockword::version(o) + 1);
                    self.th.proc.cas(orec, o, cleaned);
                    continue;
                }
                let my_prio = self.th.cm.priority();
                let enemy_prio = self.th.proc.load(owner_desc.priority);
                match self.th.cm.on_conflict(CmContext {
                    my_priority: my_prio,
                    enemy_priority: enemy_prio,
                    my_id: self.th.tid,
                    enemy_id: owner,
                    stalls_so_far: stalls,
                }) {
                    CmDecision::Stall(cycles) => {
                        self.th.proc.stall(cycles);
                        stalls += 1;
                    }
                    CmDecision::AbortEnemy => {
                        self.th.proc.cas(owner_desc.tsw, TSW_ACTIVE, TSW_ABORTED);
                        // Loop: next iteration cleans the orec.
                    }
                    CmDecision::AbortSelf => return None,
                }
            } else {
                let locked = lockword::locked(lockword::version(o), self.th.tid);
                if self.th.proc.cas(orec, o, locked) == o {
                    self.owned.push((orec, lockword::version(o)));
                    return Some(lockword::version(o));
                }
            }
        }
    }

    fn release_owned(&mut self, committed_version_bump: bool) {
        for &(orec, ver) in &self.owned {
            let v = if committed_version_bump { ver + 1 } else { ver };
            self.th.proc.store(orec, lockword::free(v));
        }
        self.owned.clear();
    }
}

impl Txn for RstmTxn<'_, '_> {
    fn read(&mut self, addr: Addr) -> Result<u64, TxRetry> {
        if self.doomed {
            return Err(TxRetry);
        }
        self.th.proc.work(costs::WSET_CHECK);
        if let Some(v) = self.find_write(addr) {
            return Ok(v);
        }
        // Metadata indirection: orec first, then data.
        let orec = self.th.rt.orecs.orec_for(addr);
        let o = self.th.proc.load(orec);
        if lockword::is_locked(o) && lockword::owner(o) != self.th.tid {
            // Reader-writer conflict: invisible readers just retry.
            self.doomed = true;
            return Err(TxRetry);
        }
        let value = self.th.proc.load(addr);
        self.read_set.push((orec, o));
        self.th.proc.work(costs::READ_LOG);
        // Incremental validation of everything read so far.
        if !self.validate() {
            self.doomed = true;
            return Err(TxRetry);
        }
        Ok(value)
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), TxRetry> {
        if self.doomed {
            return Err(TxRetry);
        }
        self.th.proc.work(costs::WSET_CHECK);
        let orec = self.th.rt.orecs.orec_for(addr);
        let newly_owned = !self.owned.iter().any(|(a, _)| *a == orec);
        if newly_owned {
            if self.acquire(orec).is_none() {
                self.doomed = true;
                return Err(TxRetry);
            }
            // Clone-on-first-write.
            self.th.proc.work(costs::CLONE);
        }
        self.write_set.push((addr, value));
        Ok(())
    }

    fn work(&mut self, cycles: u64) -> Result<(), TxRetry> {
        if self.doomed {
            return Err(TxRetry);
        }
        self.th.proc.work(cycles);
        Ok(())
    }
}

impl TmThread for RstmThread<'_> {
    fn txn_once(&mut self, body: &mut TxnBody<'_>) -> AttemptOutcome {
        let status = self.rt.descriptors.descriptor(self.tid).tsw;
        self.proc.store(status, TSW_ACTIVE);
        self.proc.store(
            self.rt.descriptors.descriptor(self.tid).priority,
            self.cm.priority(),
        );
        self.cm.on_begin();
        let mut txn = RstmTxn {
            th: self,
            status,
            read_set: Vec::new(),
            write_set: Vec::new(),
            owned: Vec::new(),
            doomed: false,
        };
        let ok = body(&mut txn).is_ok() && !txn.doomed && txn.validate();
        if ok {
            // Linearize: status ACTIVE → COMMITTED, then write back and
            // release orecs at a bumped version.
            let prev = txn.th.proc.cas(status, TSW_ACTIVE, TSW_COMMITTED);
            if prev == TSW_ACTIVE {
                let writes = std::mem::take(&mut txn.write_set);
                for (a, v) in writes {
                    txn.th.proc.store(a, v);
                    txn.th.proc.work(costs::COMMIT_ENTRY);
                }
                txn.release_owned(true);
                drop(txn);
                self.cm.on_commit();
                return AttemptOutcome::Committed;
            }
        }
        // Abort: release ownership unchanged so values stay old.
        txn.release_owned(false);
        drop(txn);
        let _ = self.proc.cas(status, TSW_ACTIVE, TSW_ABORTED);
        let backoff = self.cm.on_abort();
        self.proc.stall(backoff);
        AttemptOutcome::Aborted
    }

    fn proc(&self) -> &ProcHandle {
        &self.proc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextm_sim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small_test())
    }

    #[test]
    fn rstm_counter_is_serializable() {
        let m = machine();
        let rstm = Rstm::new(&m, 4, CmKind::Polka);
        let counter = Addr::new(0x10_000);
        m.run(4, |proc| {
            let mut th = rstm.thread(proc.core(), proc);
            for _ in 0..25 {
                th.txn(&mut |tx| {
                    let v = tx.read(counter)?;
                    tx.write(counter, v + 1)?;
                    Ok(())
                });
            }
        });
        m.with_state(|st| assert_eq!(st.mem.read(counter), 100));
    }

    #[test]
    fn incremental_validation_catches_interleaved_writer() {
        let m = machine();
        let rstm = Rstm::new(&m, 2, CmKind::Polka);
        let x = Addr::new(0x20_000);
        let y = Addr::new(0x30_000);
        let torn = m.run(2, |proc| {
            let core = proc.core();
            let mut th = rstm.thread(core, proc);
            let mut torn = 0u32;
            if core == 0 {
                for i in 1..=20u64 {
                    th.txn(&mut |tx| {
                        tx.write(x, i)?;
                        tx.write(y, i)?;
                        Ok(())
                    });
                }
            } else {
                for _ in 0..20 {
                    let mut pair = (0, 0);
                    th.txn(&mut |tx| {
                        pair.0 = tx.read(x)?;
                        tx.work(40)?;
                        pair.1 = tx.read(y)?;
                        Ok(())
                    });
                    if pair.0 != pair.1 {
                        torn += 1;
                    }
                }
            }
            torn
        });
        assert_eq!(torn[1], 0, "committed RSTM reader saw a torn pair");
    }

    #[test]
    fn dead_owner_orec_is_cleaned_by_competitor() {
        // Thread 0 acquires an orec and aborts; thread 1 must be able
        // to clean it and proceed (non-blocking property).
        let m = machine();
        let rstm = Rstm::new(&m, 2, CmKind::Polka);
        let x = Addr::new(0x40_000);
        m.run(2, |proc| {
            let core = proc.core();
            let mut th = rstm.thread(core, proc);
            if core == 0 {
                // Self-abort after acquiring.
                let _ = th.txn_once(&mut |tx| {
                    tx.write(x, 1)?;
                    Err(flextm_sim::api::TxRetry)
                });
            } else {
                proc_sleep(th.as_ref(), 2000);
                th.txn(&mut |tx| {
                    tx.write(x, 2)?;
                    Ok(())
                });
            }
        });
        m.with_state(|st| assert_eq!(st.mem.read(x), 2));
    }

    fn proc_sleep(th: &(dyn TmThread + '_), cycles: u64) {
        th.proc().work(cycles);
    }
}
