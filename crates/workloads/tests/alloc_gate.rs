//! Host heap gates: steady state allocates nothing, and a machine
//! allocates its fiber stacks once.
//!
//! The protocol hot path (access service, conflict recording, commit,
//! abort) is supposed to run out of preallocated state: SoA cache
//! planes, the banked directory, the inline `ConflictList`, the
//! recycled commit scratch and line-data pool. The first gate pins that
//! property with a counting global allocator: once a 16-core HashTable
//! run reaches steady state, doubling the number of transactions must
//! not add a single host heap allocation.
//!
//! Methodology: every `Machine::run` has constant per-run overhead (the
//! job and result vectors, one boxed `TmThread` per worker; fiber
//! stacks are the machine's, allocated by its first run of a width), so
//! the gate differences two otherwise identical measured runs of N and
//! 2N transactions per thread. Any per-transaction allocation shows up
//! as `delta(2N) - delta(N) = leak * N * threads`; the assertion
//! demands exactly zero.
//!
//! Simulated-page faults are kept out of the measured region by
//! pre-touching every arena page the workers will carve nodes from and
//! then sweeping all touched pages through the protocol once, so the
//! directory banks are grown to their final size before counting
//! starts.
//!
//! The second gate bounds what a fresh machine's first run adds to the
//! live heap by its fiber stacks plus 1 MiB, and holds a second run of
//! the same width to allocating no stack at all. The counters are
//! process-wide, so the two gates take turns through [`SERIAL`].

// The counting `GlobalAlloc` below needs `unsafe impl`; everything it
// does is delegate to `System` around relaxed counter updates.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use flextm::{FlexTm, FlexTmConfig};
use flextm_sim::api::TmRuntime;
use flextm_sim::{Addr, Heap, Machine, MachineConfig, FIBER_STACK_BYTES};
use flextm_workloads::alloc::NodeAlloc;
use flextm_workloads::harness::{ThreadCtx, Workload};
use flextm_workloads::rng::WlRng;
use flextm_workloads::HashTable;

/// Counts allocation *calls* (alloc, alloc_zeroed, realloc) by size,
/// and live and peak bytes.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static SIZE_BUCKETS: [AtomicU64; 1024] = [const { AtomicU64::new(0) }; 1024];
/// Allocation calls of at least a fiber stack's size.
static STACK_SIZED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Held by each gate for its whole run: every allocation in the
/// process lands in the same counters.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A gate that failed while holding the lock leaves nothing behind.
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn bump(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    SIZE_BUCKETS[size.min(1023)].fetch_add(1, Ordering::Relaxed);
    if size >= FIBER_STACK_BYTES {
        STACK_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

fn grow(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        grow(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const THREADS: usize = 16;
const TXNS: u64 = 96;
const PAGE_BYTES: u64 = 4096;
/// Address space pre-touched per worker arena — generous headroom over
/// the ~100 one-line nodes a thread actually carves across all phases.
const PRETOUCH_BYTES: u64 = 32 * 1024;

/// One measured phase: `txns` transactions per thread, nodes carved
/// from the arena block starting at `arena_base + tid`.
fn run_phase(machine: &Machine, tm: &FlexTm, wl: &HashTable, txns: u64, arena_base: usize) {
    machine.run(THREADS, |proc| {
        let tid = proc.core();
        let mut th = tm.thread(tid, proc);
        let mut ctx = ThreadCtx {
            tid,
            rng: WlRng::new(0xF1E7, tid),
            alloc: NodeAlloc::for_thread(arena_base + tid),
        };
        for _ in 0..txns {
            wl.run_once(th.as_mut(), &mut ctx);
        }
    });
    machine.align_clocks();
}

#[test]
fn steady_state_adds_zero_host_allocations() {
    let _serial = serial();
    let machine = Machine::new(MachineConfig::paper_default().with_cores(THREADS));
    let mut wl = HashTable::paper();
    wl.setup(&machine);
    let tm = FlexTm::new(&machine, FlexTmConfig::lazy(THREADS));

    // Pre-fault every simulated page the four phases will carve nodes
    // from (warm-up block at 128, settle at 64, phase A at 0, phase B
    // at 32 — each worker arena is single-use, mirroring the harness
    // convention).
    machine.with_state(|st| {
        for tid in 0..THREADS {
            for block in [0, 32, 64, 128] {
                let base = Heap::arena(block + tid + 1).alloc(1).raw();
                for off in (0..PRETOUCH_BYTES).step_by(PAGE_BYTES as usize) {
                    st.mem.write(Addr::new(base + off), 0);
                }
            }
        }
    });

    // Functional sweep of all touched pages through the protocol, so
    // every line the workers will ever access already has its
    // directory entry and the banks are at final capacity.
    let pages = machine.with_state(|st| st.mem.touched_page_addrs());
    machine.run(1, |proc| {
        for &page in &pages {
            for line in 0..(PAGE_BYTES / flextm_sim::LINE_BYTES) {
                proc.load(Addr::new(page + line * flextm_sim::LINE_BYTES));
            }
        }
    });
    machine.align_clocks();

    // Warm-up: populate the runtime's recycled scratch, the cache data
    // pool, lazy statics, and the fiber machinery; then a
    // full-length settle phase so every retained buffer (victim
    // vectors, spill scratch, data pools) reaches its steady-state
    // capacity before counting starts.
    run_phase(&machine, &tm, &wl, 16, 128);
    run_phase(&machine, &tm, &wl, TXNS, 64);

    let snap = || -> Vec<u64> {
        SIZE_BUCKETS
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    };
    let h0 = snap();
    let t0 = ALLOC_CALLS.load(Ordering::Relaxed);
    run_phase(&machine, &tm, &wl, TXNS, 0);
    let t1 = ALLOC_CALLS.load(Ordering::Relaxed);
    let h1 = snap();
    run_phase(&machine, &tm, &wl, 2 * TXNS, 32);
    let t2 = ALLOC_CALLS.load(Ordering::Relaxed);
    let h2 = snap();
    for sz in 0..1024 {
        let a = h1[sz] - h0[sz];
        let b = h2[sz] - h1[sz];
        if b != a {
            eprintln!(
                "size {sz}: run A {a}, run B {b} (leak {})",
                b as i64 - a as i64
            );
        }
    }

    let delta_a = t1 - t0;
    let delta_b = t2 - t1;
    let leak = delta_b as i64 - delta_a as i64;
    assert_eq!(
        delta_b,
        delta_a,
        "steady-state leak: {} extra heap allocations for {} extra \
         transactions ({:.3} allocs/txn); per-run baseline was {}",
        leak,
        TXNS * THREADS as u64,
        leak as f64 / (TXNS * THREADS as u64) as f64,
        delta_a,
    );
}

/// On the thread-baton backend fiber stacks are OS-thread stacks, not
/// heap allocations; its runs spawn threads instead.
#[cfg(all(target_arch = "x86_64", not(windows), not(flextm_fiber_fallback)))]
#[test]
fn a_machine_allocates_its_fiber_stacks_once() {
    const CORES: usize = 64;
    let _serial = serial();
    let machine = Machine::new(MachineConfig::paper_default().with_cores(CORES));
    let stacks = || STACK_SIZED.load(Ordering::Relaxed);

    let stacks_0 = stacks();
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    machine.run(CORES, |_| ());
    let raised = PEAK.load(Ordering::Relaxed) - live;
    let stacks_1 = stacks();
    let bound = (CORES * FIBER_STACK_BYTES + (1 << 20)) as i64;
    assert!(
        raised <= bound,
        "an empty {CORES}-thread run on a fresh machine raised the heap peak by \
         {raised} bytes, over {bound}"
    );
    assert_eq!(stacks_1 - stacks_0, CORES as u64, "one stack per fiber");

    machine.run(CORES, |_| ());
    assert_eq!(
        stacks() - stacks_1,
        0,
        "a second run allocated fiber stacks"
    );
}
