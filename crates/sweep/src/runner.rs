//! The batch scheduler: fans cells across host cores on worker
//! threads.
//!
//! Workers are plain scoped threads pulling from one shared queue
//! (idle workers take the next pending cell the moment they finish, so
//! the tail of the batch stays packed no matter how uneven the cells
//! are). A worker calls [`run_cell_timed`] directly — a
//! `Machine` is built and dropped entirely on the thread that runs the
//! cell, so no process boundary is needed to spend host cores. Each
//! cell runs under `catch_unwind`: a panicking cell (bad width,
//! protocol assert, fiber panic) costs exactly that cell, is reported
//! with its original panic message, and the rest of the matrix
//! completes regardless. A cell that never terminates or aborts the
//! process takes the sweep with it, exactly as it would take `cargo
//! test` (DESIGN.md, "Sweep farm").

use crate::cell::{run_cell_timed, CellResult, CellSpec};
use crate::store::Store;
use std::collections::VecDeque;
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How the runner schedules cells.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Concurrent worker threads (the `sweep` binary defaults this to
    /// the host's parallelism).
    pub jobs: usize,
    /// Print per-cell progress lines to stderr.
    pub progress: bool,
}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The cell.
    pub cell: CellSpec,
    /// Its result.
    pub result: CellResult,
    /// Served from the store instead of executing.
    pub from_cache: bool,
}

/// One failed cell.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// The cell.
    pub cell: CellSpec,
    /// Why it failed (a panicking cell's panic message).
    pub error: String,
}

/// What a sweep did, cell by cell. `outcomes` preserves the input
/// (canonical expansion) order so emitters are deterministic however
/// the workers interleaved.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Completed cells in input order.
    pub outcomes: Vec<Outcome>,
    /// Failed cells (empty on a clean sweep).
    pub failures: Vec<CellFailure>,
    /// Cells that executed (store misses).
    pub executed: usize,
    /// Cells served from the store.
    pub cached: usize,
}

enum Slot {
    Done(Outcome),
    Failed(CellFailure),
}

/// Runs every cell, consulting (and filling) `store`. The store is
/// what makes this incremental: only cells whose (config, binary)
/// key misses actually execute.
pub fn run_sweep(cells: &[CellSpec], store: &Store, config: &RunnerConfig) -> SweepOutcome {
    let total = cells.len();
    let queue: Mutex<VecDeque<(usize, &CellSpec)>> = Mutex::new(cells.iter().enumerate().collect());
    let slots: Vec<Mutex<Option<Slot>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let done = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);

    let worker = || loop {
        let Some((index, cell)) = queue.lock().unwrap().pop_front() else {
            return;
        };
        let t0 = Instant::now();
        let (slot, status) = match run_one(cell, store) {
            Ok((result, from_cache)) => {
                if from_cache {
                    cached.fetch_add(1, Ordering::Relaxed);
                } else {
                    executed.fetch_add(1, Ordering::Relaxed);
                }
                (
                    Slot::Done(Outcome {
                        cell: cell.clone(),
                        result,
                        from_cache,
                    }),
                    if from_cache { "cache" } else { "ran" },
                )
            }
            Err(error) => (
                Slot::Failed(CellFailure {
                    cell: cell.clone(),
                    error,
                }),
                "FAILED",
            ),
        };
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if config.progress {
            eprintln!(
                "[{finished}/{total}] {} ({status}, {:.2}s)",
                cell.label(),
                t0.elapsed().as_secs_f64(),
            );
        }
        *slots[index].lock().unwrap() = Some(slot);
    };
    // The calling thread is worker 0, so `jobs = 1` spawns nothing and
    // a sweep's cells run on the process's main thread.
    let workers = config.jobs.max(1).min(total.max(1));
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });

    let mut outcomes = Vec::with_capacity(total);
    let mut failures = Vec::new();
    for slot in slots {
        match slot.into_inner().unwrap() {
            Some(Slot::Done(outcome)) => outcomes.push(outcome),
            Some(Slot::Failed(failure)) => failures.push(failure),
            None => unreachable!("worker exited without filling its slot"),
        }
    }
    SweepOutcome {
        outcomes,
        failures,
        executed: executed.into_inner(),
        cached: cached.into_inner(),
    }
}

fn run_one(cell: &CellSpec, store: &Store) -> Result<(CellResult, bool), String> {
    if let Some(hit) = store.lookup(cell).map_err(|e| e.to_string())? {
        return Ok((hit.result, true));
    }
    let result = catch_cell(|| run_cell_timed(cell))?;
    store
        .insert(cell, &result)
        .map_err(|e| format!("storing result: {e}"))?;
    Ok((result, false))
}

/// Runs one cell body, turning a panic into its message. The default
/// panic hook has already printed the message and location to stderr
/// by the time this returns.
fn catch_cell(
    body: impl FnOnce() -> CellResult + std::panic::UnwindSafe,
) -> Result<CellResult, String> {
    catch_unwind(body).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|msg| msg.to_string()))
            .unwrap_or_else(|| "cell panicked with a non-string payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextm_sim::{Addr, Machine, MachineConfig};

    /// No `CellSpec` reaches a fiber-internal panic (bad widths and
    /// signature sizes die in `Machine::new`), so this drives the
    /// worker's own catch with a body that panics several granted ops
    /// into a 4-fiber run, then runs a real cell on the same thread.
    #[test]
    fn a_panic_inside_a_fiber_is_reported_and_the_thread_keeps_running_cells() {
        let cell = crate::spec::MatrixSpec::builtin("smoke2x2")
            .unwrap()
            .expand()
            .remove(3);
        let before = catch_cell(|| run_cell_timed(&cell)).expect("cell runs");

        let err = catch_cell(|| {
            let machine = Machine::new(MachineConfig::small_test());
            machine.run(4, |p| {
                let a = Addr::new(0x1000 + p.core() as u64 * 0x400);
                for i in 0..8 {
                    p.store(a, i);
                    if p.core() == 2 && i == 5 {
                        panic!("boom at op {i}");
                    }
                }
            });
            unreachable!("the run propagates the fiber's panic");
        })
        .unwrap_err();
        assert_eq!(err, "boom at op 5");

        let after = catch_cell(|| run_cell_timed(&cell)).expect("cell still runs");
        assert_eq!(
            (after.committed, after.sim_cycles, &after.digest),
            (before.committed, before.sim_cycles, &before.digest),
        );
    }
}
