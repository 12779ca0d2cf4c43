//! What a transition costs, and what a kept state costs, follow the
//! cores a schedule drives, not the machine's width.
//!
//! `CheckConfig::wide(2, 1)` explores the same state graph as
//! `CheckConfig::new(2, 1)` on a 65-core machine whose other 63 cores
//! no transition ever touches. Three costs follow from that:
//!
//! - The per-transition refill and invariant sweep visit the machine's
//!   `touched` cores only (`flextm_sim::Cores`). After the same four
//!   ops the set is exactly the two driven cores on either machine, so
//!   both are 2-core work at any width.
//! - A kept state is a record (`Driver::save`) of what the state holds:
//!   the touched cores, each L1 reduced to its resident ways, the
//!   occupied L2 slots, the live directory entries and memory's
//!   non-zero words. A counting allocator pins it: the wide record owns
//!   exactly the narrow record's bytes, the narrow one fits 4 KiB, its
//!   `heap_bytes` accounting is what it really owns, and writing it
//!   back into a warm scratch (`Driver::restore`) allocates nothing.
//! - An owned copy (`Driver::fork`, for quiescence checks and shrink
//!   replay — no longer on the explorer's path) is a refill of a fresh
//!   driver. Per-core heap state is allocated on first touch (the L1
//!   planes materialise on the first fill, the OT on the first
//!   overflow), so an undriven core may cost only what it still owns
//!   eagerly — its two signature word vectors (making those lazy too
//!   was measured and rejected, DESIGN.md "Cost follows touched
//!   state") — plus the inline `CoreState` and its scheduler lane.

// The counting `GlobalAlloc` below needs `unsafe impl`; everything it
// does is delegate to `System` around two thread-local counter bumps.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flextm_check::canon::canon;
use flextm_check::{CheckConfig, Driver, Op, Snapshot};
use flextm_sim::{CoreState, ProcSet};

/// Counts allocation calls, requested bytes and live bytes on the
/// calling thread only, so the libtest harness thread cannot perturb a
/// measurement.
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(size: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + size as u64));
    LIVE.with(|l| l.set(l.get() + size as i64));
}

fn release(size: usize) {
    LIVE.with(|l| l.set(l.get() - size as i64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        release(layout.size());
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Both cores read and write the one line: every driven core has
/// materialised L1 planes, live signatures and CST bits by the fork.
const PREFIX: [Op; 4] = [
    Op::TRead(0, 0),
    Op::TWrite(1, 0),
    Op::TRead(1, 0),
    Op::TWrite(0, 0),
];

/// A driver after [`PREFIX`].
fn after_prefix(cfg: CheckConfig) -> Driver {
    let mut d = Driver::new(cfg);
    for op in PREFIX {
        assert!(d.enabled_ops().contains(&op), "{op} is not enabled");
        d.apply(op);
    }
    d
}

/// Replays [`PREFIX`] and forks, returning the fork with the
/// allocation calls and bytes the fork alone performed. The fork must
/// be the state it was forked from.
fn fork_after_prefix(cfg: CheckConfig) -> (Driver, u64, u64) {
    let d = after_prefix(cfg);
    let (calls, bytes) = (CALLS.get(), BYTES.get());
    let fork = d.fork();
    let (calls, bytes) = (CALLS.get() - calls, BYTES.get() - bytes);
    assert_eq!(canon(&fork), canon(&d), "fork changed the canonical state");
    (fork, calls, bytes)
}

#[test]
fn fork_cost_follows_driven_cores() {
    let (narrow, narrow_calls, narrow_bytes) = fork_after_prefix(CheckConfig::new(2, 1));
    let (wide, wide_calls, wide_bytes) = fork_after_prefix(CheckConfig::wide(2, 1));
    let undriven = (wide.st.cores.len() - narrow.st.cores.len()) as u64;
    assert_eq!(undriven, 63, "wide(2, 1) is a 65-core machine");

    // The refill and the sweep visit these cores and no others.
    let set = |ids: [usize; 2]| ids.into_iter().collect::<ProcSet>();
    assert_eq!(narrow.st.cores.touched(), set([0, 1]));
    assert_eq!(wide.st.cores.touched(), set([0, 64]));

    // Eight allocations per undriven core before first-touch planes
    // and the shared H3 matrix (~500 in all); two now.
    let extra_calls = wide_calls - narrow_calls;
    assert!(
        extra_calls <= 2 * undriven,
        "wide fork made {wide_calls} allocations, narrow {narrow_calls}: \
         {extra_calls} extra is more than two per undriven core"
    );

    // Per undriven core: the inline `CoreState`, a 32-byte scheduler
    // lane and two one-word signatures. Nothing else may scale — and
    // the inline part may not grow: a field added to it is copied for
    // every core of every fork (the L1's victim set paid for its 16
    // bytes by narrowing the geometry fields beside it).
    assert!(
        std::mem::size_of::<CoreState>() <= 968,
        "CoreState grew to {} bytes",
        std::mem::size_of::<CoreState>()
    );
    let per_core = std::mem::size_of::<CoreState>() as u64 + 32 + 2 * 8;
    let extra_bytes = wide_bytes - narrow_bytes;
    assert!(
        extra_bytes <= undriven * per_core,
        "wide fork allocated {wide_bytes} B, narrow {narrow_bytes} B: \
         {extra_bytes} B extra exceeds {undriven} x {per_core} B"
    );

    // Same point of the same graph (canonical hashes name machine core
    // ids, so they differ by the wide mapping; the enabled ops are in
    // checker-core terms).
    assert_eq!(
        narrow.enabled_ops(),
        wide.enabled_ops(),
        "the wide fork is not at the narrow fork's state"
    );
}

/// A transition's copy and its sweeps are allocation-free. The
/// explorer refills one scratch driver per transition
/// (`Driver::fork_into`): onto a scratch that last held a same-shaped
/// state — here the same point of the graph, one L1 hit later, so its
/// clocks, counters and LRU plane all differ — the refill must reuse
/// every buffer, on the narrow machine and on the wide one. The shadow
/// access sets are inline for the same reason. And the invariant sweep
/// that follows every protocol step must prove what it proves without
/// building a set or a list.
#[test]
fn refill_and_sweep_allocate_nothing() {
    for cfg in [CheckConfig::new(2, 1), CheckConfig::wide(2, 1)] {
        let width = cfg.machine_cores();
        let (d, _, _) = fork_after_prefix(cfg);
        let mut scratch = d.fork();
        scratch.apply(Op::TRead(0, 0));
        assert_ne!(
            scratch.st.now(0),
            d.st.now(0),
            "the scratch should differ from the state it is refilled with"
        );

        let calls = CALLS.get();
        d.fork_into(&mut scratch);
        let calls = CALLS.get() - calls;
        assert_eq!(
            calls, 0,
            "{width}-core refill onto a same-shaped scratch made {calls} allocations"
        );
        assert_eq!(canon(&scratch), canon(&d), "refill changed the state");
        assert_eq!(scratch.st.now(0), d.st.now(0), "refill kept a stale clock");

        let calls = CALLS.get();
        scratch.st.check_invariants();
        let calls = CALLS.get() - calls;
        assert_eq!(
            calls, 0,
            "{width}-core invariant sweep made {calls} allocations"
        );
    }
}

/// Records `d`, returning the record and the heap bytes it holds live
/// once built — what the allocator says, to hold its own accounting to.
fn save_measured(d: &Driver) -> (Snapshot, i64) {
    let live = LIVE.get();
    let snap = d.save();
    (snap, LIVE.get() - live)
}

/// A kept state costs what it holds. After [`PREFIX`] the narrow and
/// the wide record hold the same two cores, lines, directory entries
/// and words, so they own the same bytes — a record has no per-core
/// part for the 63 undriven cores — and the narrow one fits 4 KiB
/// (a forked driver is ~19 KiB). `Snapshot::heap_bytes`, which the
/// explorer sums into its frontier peak, must be what the allocator
/// says the record owns, plus its inline part.
#[test]
fn a_record_costs_what_it_holds() {
    let (narrow, narrow_live) = save_measured(&after_prefix(CheckConfig::new(2, 1)));
    let (wide, wide_live) = save_measured(&after_prefix(CheckConfig::wide(2, 1)));
    let inline = std::mem::size_of::<Snapshot>();
    for (what, snap, live) in [("narrow", &narrow, narrow_live), ("wide", &wide, wide_live)] {
        assert_eq!(
            snap.heap_bytes(),
            inline + live as usize,
            "{what} record: heap_bytes is not what the record owns ({live} B) plus {inline} B inline"
        );
    }
    assert_eq!(
        wide.heap_bytes(),
        narrow.heap_bytes(),
        "a record of the wide machine owns more than the narrow one's"
    );
    assert!(
        narrow.heap_bytes() <= 4096,
        "a 2x1 record takes {} B (limit 4 KiB)",
        narrow.heap_bytes()
    );
}

/// Writing a record back into a scratch that has held a state as large
/// — here the same point of the graph one L1 hit later, so its clocks,
/// counters and LRU plane all differ — reuses every buffer, on the
/// narrow machine and on the wide one.
#[test]
fn a_warm_restore_allocates_nothing() {
    for cfg in [CheckConfig::new(2, 1), CheckConfig::wide(2, 1)] {
        let width = cfg.machine_cores();
        let d = after_prefix(cfg);
        let snap = d.save();
        let mut scratch = d.fork();
        scratch.apply(Op::TRead(0, 0));
        assert_ne!(
            scratch.st.now(0),
            d.st.now(0),
            "the scratch should differ from the state it is restored to"
        );

        let calls = CALLS.get();
        scratch.restore(&snap);
        let calls = CALLS.get() - calls;
        assert_eq!(
            calls, 0,
            "{width}-core restore onto a warm scratch made {calls} allocations"
        );
        assert_eq!(canon(&scratch), canon(&d), "restore changed the state");
        assert_eq!(scratch.st.now(0), d.st.now(0), "restore kept a stale clock");
    }
}
