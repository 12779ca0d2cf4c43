//! The machine: simulator state plus the deterministic scheduler that
//! simulated threads synchronize through.
//!
//! # The deterministic order
//!
//! Each simulated operation (load, store, CAS-Commit, `work`, …) is a
//! call into the machine. Operations execute one at a time in a fixed
//! total order: always the operation issued by the live core with the
//! smallest `(local clock, core id)`, and only once *every* live core
//! has an operation posted (conservative lockstep). The order therefore
//! depends only on the program and its seeds — fully repeatable, which
//! the test suite relies on.
//!
//! # How it is scheduled
//!
//! Every simulated thread is a stackful fiber (`fiber.rs`) on the one
//! host thread that called [`Machine::run`]; exactly one of them — or
//! the driver loop in `run` — executes at any instant.
//!
//! * **Post.** To run an operation a core inserts its issue key
//!   `(clock, id)` into the [`GrantQueue`] and parks. The operation
//!   itself (a closure over `&mut SimState`) stays on the fiber's
//!   stack — only the key travels.
//! * **Grant.** Whenever a post or a thread exit leaves every live
//!   core posted, the minimum key is popped and its core granted the
//!   *lease*; the poster switches straight into the grantee's context
//!   (or carries on, if it granted itself).
//! * **Horizon.** A grant carries the smallest key still queued — the
//!   strict second minimum. While the holder's next operation is
//!   issued strictly below it the scheduler would pick this core again
//!   anyway (every rival is parked, its key frozen), so the operation
//!   runs at once with no rendezvous. A single-threaded run has horizon
//!   `(∞, ∞)`: after the first operation every call is a plain
//!   function call. DESIGN.md shows why nothing may run *past* the
//!   horizon.
//! * **Local ops.** `work(n)` adds to the issuing core's clock and
//!   `now()` reads it; neither touches protocol state, produces events,
//!   or observes other cores, so they commute with every remote
//!   operation and complete without a rendezvous even when the core
//!   does not hold the lease (see `local_op`).
//!
//! [`crate::MachineConfig::strict_lockstep`] disables the horizon and
//! the local-op paths, forcing one rendezvous per operation. The
//! schedule — and therefore every event, counter and clock — is
//! identical either way; `tests/determinism.rs` pins that equivalence,
//! which makes the knob the reference the fast paths are tested
//! against.
//!
//! # Safety discipline
//!
//! Nothing here is shared between host threads: [`Machine`] and
//! [`crate::ProcHandle`] hold an `Rc` and are neither `Send` nor
//! `Sync`, so the compiler confines a machine, its handles and its run
//! bodies to one host thread. Scheduler fields are `Cell`s; the state
//! and the queue sit in `RefCell`s that are borrowed for the length of
//! one operation or one post and never across a fiber switch — a
//! borrow that did straddle a switch would make the next fiber's
//! borrow panic rather than alias. The only `unsafe` left is the
//! context switch itself and the hand-off of each fiber's job pointer.

use crate::config::ConfigError;
use crate::config::MachineConfig;
use crate::core_state::{Cores, CoresRecord};
use crate::fiber;
use crate::l2::{L2Record, L2};
use crate::mem::{MemRecord, Memory};
use crate::proc::ProcHandle;
use crate::stats::{EventLog, MachineReport, SchedStats};
use flextm_sig::{LineAddr, LineHasher, ProcSet, SigKey};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// One core's clock and the counters the scheduler's local paths bump
/// without entering the protocol. Plain fields: [`SimRecord`], which
/// keeps lanes, must stay `Send + Sync` (the model checker's kept
/// states cross worker threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Lane {
    /// The core's local clock, in cycles.
    clock: u64,
    /// Cycles charged through `work`; folded into
    /// [`crate::CoreStats::work_cycles`] at report time.
    work_cycles: u64,
    /// Cycles charged through `stall` (contention-manager backoff and
    /// stall spins) plus clock alignment; folded into
    /// [`crate::CoreStats::stall_cycles`] at report time.
    stall_cycles: u64,
    /// Operations completed without a scheduler rendezvous.
    fast_ops: u64,
}

// The checker shares its kept states' records across its workers.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimRecord>();
};

/// A [`SimState`] as a kept model-checker state stores it
/// ([`SimState::save`], [`SimState::restore`]): the touched cores and
/// their scheduler lanes, the L2's occupied slots, the live directory
/// entries, memory's non-zero words, the activity masks. Nothing of
/// the configuration is kept — a record restores only onto a state of
/// the configuration it was saved from.
#[derive(Debug)]
pub struct SimRecord {
    mem: MemRecord,
    cores: CoresRecord,
    /// One lane per touched core, in ascending core order.
    lanes: Box<[Lane]>,
    l2: L2Record,
    log: EventLog,
    sig_live: ProcSet,
    ot_present: ProcSet,
    check_every_op: bool,
}

impl SimRecord {
    /// Bytes the record owns on the heap, not counting its inline part
    /// (nor a logged event's own payload; the model checker logs none).
    pub fn heap_bytes(&self) -> usize {
        self.mem.heap_bytes()
            + self.cores.heap_bytes()
            + std::mem::size_of_val(&*self.lanes)
            + self.l2.heap_bytes()
            + std::mem::size_of_val(self.log.events())
    }
}

/// All mutable simulator state. During a run it is reached only through
/// the scheduler (one operation at a time, see the module doc); between
/// runs through [`Machine::with_state`].
#[derive(Debug)]
pub struct SimState {
    /// Machine configuration (immutable after construction).
    pub config: MachineConfig,
    /// Committed memory contents.
    pub mem: Memory,
    /// Per-processor hardware state, and which cores have left their
    /// initial state (see [`Cores`]).
    pub cores: Cores,
    /// Shared L2 + directory + summary signatures.
    pub l2: L2,
    /// Optional protocol event log.
    pub log: EventLog,
    /// Per-core clocks and local-op counters.
    lanes: Vec<Lane>,
    /// The signature hasher every core shares (same configuration), so
    /// one access hashes its line exactly once into a [`SigKey`].
    hasher: LineHasher,
    /// Set of cores with a non-empty `Rsig` or `Wsig`. A **superset**
    /// of the truth: bits are set eagerly on every insert but may linger
    /// after clears until the owner's next [`SimState::sync_core_masks`];
    /// consumers re-check the signatures, so staleness costs only a
    /// wasted test, never a missed one.
    sig_live: ProcSet,
    /// Set of cores with an allocated OT. Same superset discipline.
    ot_present: ProcSet,
    /// Reusable buffer for commit-time TMI drains, so steady-state
    /// commits never allocate. Always empty between commits.
    pub(crate) commit_scratch: Vec<(LineAddr, Box<[u64; crate::mem::WORDS_PER_LINE]>)>,
    /// Runtime switch for the invariant layer: when true, every
    /// protocol transition (`access`, `cas_commit`, `abort_tx`) ends in
    /// [`SimState::check_invariants`]. Off by default (production runs
    /// pay one predicted branch); [`SimState::for_tests`] turns it on,
    /// so the unit suites and the model checker sweep invariants after
    /// every step.
    check_every_op: bool,
}

impl SimState {
    fn new(config: MachineConfig) -> Self {
        let cores = Cores::new(&config);
        let l2 = L2::new(config.l2_sets(), config.l2_ways, config.signature.clone());
        let log = EventLog::new(config.record_events);
        let lanes = vec![Lane::default(); config.cores];
        let hasher = config.signature.hasher();
        SimState {
            config,
            mem: Memory::new(),
            cores,
            l2,
            log,
            lanes,
            hasher,
            sig_live: ProcSet::empty(),
            ot_present: ProcSet::empty(),
            commit_scratch: Vec::new(),
            check_every_op: false,
        }
    }

    /// Hashes `line` once; the resulting key works against every
    /// signature in the machine (all share one configuration).
    #[inline]
    pub fn sig_key(&self, line: LineAddr) -> SigKey {
        self.hasher.key(line)
    }

    /// Set of cores whose `Rsig`/`Wsig` may be non-empty (superset).
    #[inline]
    pub(crate) fn sig_live_mask(&self) -> ProcSet {
        self.sig_live
    }

    /// Set of cores that may have an OT allocated (superset).
    #[inline]
    pub(crate) fn ot_present_mask(&self) -> ProcSet {
        self.ot_present
    }

    /// Marks `core` as having live signature state (insert sites call
    /// this eagerly to preserve the superset invariant).
    #[inline]
    pub(crate) fn mark_sig_live(&mut self, core: usize) {
        self.sig_live.insert(core);
    }

    /// Marks `core` as having an OT.
    #[inline]
    pub(crate) fn mark_ot_present(&mut self, core: usize) {
        self.ot_present.insert(core);
    }

    /// Recomputes `core`'s bits in the activity masks from its actual
    /// state. Called after clears (abort, commit, context switch) to
    /// shed stale bits; everything stays correct if a call is missed,
    /// just slower.
    pub(crate) fn sync_core_masks(&mut self, core: usize) {
        let c = &self.cores[core];
        if c.rsig.is_empty() && c.wsig.is_empty() {
            self.sig_live.remove(core);
        } else {
            self.sig_live.insert(core);
        }
        if c.ot.is_some() {
            self.ot_present.insert(core);
        } else {
            self.ot_present.remove(core);
        }
    }

    /// Builds a standalone state for unit tests that drive the protocol
    /// directly, without the thread scheduler. Invariant checking after
    /// every transition is enabled.
    #[doc(hidden)]
    pub fn for_tests(config: MachineConfig) -> Self {
        let mut st = Self::new(config);
        st.check_every_op = true;
        st
    }

    /// Turns per-transition invariant sweeps on or off (the model
    /// checker leaves them on; throughput comparisons turn them off).
    pub fn set_check_every_op(&mut self, on: bool) {
        self.check_every_op = on;
    }

    /// Runs the full invariant sweep if per-transition checking is
    /// enabled.
    #[inline]
    pub(crate) fn maybe_check_invariants(&self) {
        if self.check_every_op {
            self.check_invariants();
        }
    }

    /// Advances `core`'s clock by `cycles`. Unmarked, like every
    /// protocol step: its callers' entry points marked `core`.
    pub(crate) fn advance(&mut self, core: usize, cycles: u64) {
        self.lanes[core].clock += cycles;
    }

    /// The current local time of `core`.
    pub fn now(&self, core: usize) -> u64 {
        self.lanes[core].clock
    }

    /// Advances `core` by `cycles` and charges them to the memory
    /// bucket — the single helper every protocol latency goes through
    /// so the four cycle buckets provably sum to the clock.
    pub(crate) fn charge_mem(&mut self, core: usize, cycles: u64) {
        self.advance(core, cycles);
        self.cores.unmarked(core).stats.mem_cycles += cycles;
    }

    /// Snapshots `core`'s work/mem cycle counters at the start of a
    /// transaction attempt. If the attempt later aborts,
    /// [`SimState::abandon_attempt`] reclassifies everything accrued
    /// since this mark into `wasted_cycles`.
    pub fn begin_attempt(&mut self, core: usize) {
        self.cores.mark(core);
        let work = self.lanes[core].work_cycles;
        let c = self.cores.unmarked(core);
        c.attempt_mark = Some((work, c.stats.mem_cycles));
    }

    /// Clears the attempt mark without reclassifying — called when an
    /// attempt commits (its cycles were real work).
    pub(crate) fn clear_attempt_mark(&mut self, core: usize) {
        self.cores.unmarked(core).attempt_mark = None;
    }

    /// Moves the work/mem cycles accrued since the attempt mark into
    /// `wasted_cycles` — the attempt aborted, so its computation and
    /// memory time bought nothing. Stall cycles are never reclassified.
    /// No-op when no mark is set (runtimes that don't mark attempts
    /// simply report zero waste).
    pub(crate) fn abandon_attempt(&mut self, core: usize) {
        let c = self.cores.unmarked(core);
        let Some((work0, mem0)) = c.attempt_mark.take() else {
            return;
        };
        let dw = self.lanes[core].work_cycles - work0;
        let dm = c.stats.mem_cycles - mem0;
        self.lanes[core].work_cycles -= dw;
        c.stats.mem_cycles -= dm;
        c.stats.wasted_cycles += dw + dm;
    }

    /// Makes `self` a copy of `src` in place — the model checker's one
    /// copy routine for a machine: it refills one scratch state per
    /// transition instead of building and dropping a clone, and builds
    /// an owned copy by refilling a fresh state. Every plane, page,
    /// bank and word buffer the destination already owns is reused.
    /// Both states must come from one configuration (hence the same
    /// hasher and core count). Cores and lanes are copied only where
    /// either side is touched ([`Cores::assign_for_check`]). The
    /// destructuring is exhaustive on purpose: a field added to the
    /// machine must be assigned here or fail to compile, not leak from
    /// one sibling child into the next.
    pub fn assign_for_check(&mut self, src: &SimState) {
        let SimState {
            config: _,
            mem,
            cores,
            l2,
            log,
            lanes,
            hasher: _,
            sig_live,
            ot_present,
            // Empty between commits on both sides; the scratch keeps
            // its buffer.
            commit_scratch: _,
            check_every_op,
        } = src;
        let either = self.cores.touched() | cores.touched();
        self.cores.assign_for_check(cores);
        for i in either {
            self.lanes[i] = lanes[i];
        }
        self.mem.assign_for_check(mem);
        self.l2.assign_for_check(l2);
        self.log.clone_from(log);
        self.sig_live = *sig_live;
        self.ot_present = *ot_present;
        self.check_every_op = *check_every_op;
    }

    /// The record a kept model-checker state stores for the machine
    /// ([`SimRecord`]): what it holds, and nothing for a core no
    /// schedule touched. Exhaustive destructuring, as in
    /// [`SimState::assign_for_check`].
    pub fn save(&self) -> SimRecord {
        let SimState {
            config: _,
            mem,
            cores,
            l2,
            log,
            lanes,
            hasher: _,
            sig_live,
            ot_present,
            commit_scratch: _,
            check_every_op,
        } = self;
        let cores = cores.save();
        SimRecord {
            lanes: cores.touched().iter().map(|i| lanes[i]).collect(),
            mem: mem.save(),
            cores,
            l2: l2.save(),
            log: log.clone(),
            sig_live: *sig_live,
            ot_present: *ot_present,
            check_every_op: *check_every_op,
        }
    }

    /// Makes `self` the machine `rec` was saved from, in place. `self`
    /// may hold any state of the same configuration: a core or lane it
    /// touched that the record does not hold returns to its initial
    /// state. Restoring onto a state that last held as many lines,
    /// line buffers, pages and directory entries allocates nothing.
    pub fn restore(&mut self, rec: &SimRecord) {
        let SimRecord {
            mem,
            cores,
            lanes,
            l2,
            log,
            sig_live,
            ot_present,
            check_every_op,
        } = rec;
        for i in self.cores.touched().minus(cores.touched()) {
            self.lanes[i] = Lane::default();
        }
        for (i, lane) in cores.touched().iter().zip(lanes.iter()) {
            self.lanes[i] = *lane;
        }
        self.cores.restore(cores);
        self.mem.restore(mem);
        self.l2.restore(l2);
        self.log.clone_from(log);
        self.sig_live = *sig_live;
        self.ot_present = *ot_present;
        self.check_every_op = *check_every_op;
    }

    /// The full machine-level invariant sweep: per-core state checks
    /// plus the cross-core properties that define TMESI — SWMR modulo
    /// TMI, TI legality, directory coverage, activity-mask supersets,
    /// and cycle/abort accounting conservation. Panics (asserts) on the
    /// first violation; the model checker catches the panic and reports
    /// the op path that led here.
    ///
    /// Every loop visits the touched cores only: an untouched core is
    /// pristine, and a pristine core satisfies every per-core property
    /// and holds nothing a cross-core one could see. Debug builds
    /// check that first, naming any core that left its initial state
    /// unmarked.
    pub fn check_invariants(&self) {
        use crate::cache::L1State;

        let ncores = self.config.cores;
        let touched = self.cores.touched();
        if cfg!(debug_assertions) {
            for i in (0..ncores).filter(|&i| !touched.contains(i)) {
                assert!(
                    self.cores[i].is_pristine() && self.lanes[i] == Lane::default(),
                    "core {i}: left its initial state but is not marked touched"
                );
            }
        }
        for i in touched {
            let core = &self.cores[i];
            core.check_invariants(i, ncores);

            // Activity masks are supersets of the truth: a live
            // signature or allocated OT must have its bit set (stale
            // set bits after clears are fine, missed ones are not).
            if core.has_tx_footprint() {
                assert!(
                    self.sig_live.contains(i),
                    "core {i}: live signatures but sig_live bit clear"
                );
            }
            if core.ot.is_some() {
                assert!(
                    self.ot_present.contains(i),
                    "core {i}: OT allocated but ot_present bit clear"
                );
            }

            // Accounting conservation: the four cycle buckets sum to
            // the core clock at every instant (work and stall live in
            // the lanes until report time), and every abort/failed
            // commit carries exactly one recorded cause.
            let s = &core.stats;
            let buckets = self.lanes[i].work_cycles
                + s.work_cycles
                + self.lanes[i].stall_cycles
                + s.stall_cycles
                + s.mem_cycles
                + s.wasted_cycles;
            assert_eq!(
                buckets,
                self.now(i),
                "core {i}: cycle buckets diverge from the clock"
            );
            assert_eq!(
                s.abort_causes.cause_sum(),
                s.tx_aborts + s.failed_commits,
                "core {i}: abort causes do not sum to tx_aborts + failed_commits"
            );
        }

        // Cross-core sweep over every resident line, each visited once,
        // at its lowest-numbered holder — no list of lines is built.
        for (first, line) in touched
            .iter()
            .flat_map(|i| self.cores[i].l1.iter_all().map(move |e| (i, e.line)))
        {
            if touched
                .iter()
                .take_while(|&j| j < first)
                .any(|j| self.cores[j].l1.peek(line).is_some())
            {
                continue;
            }
            let mut exclusive_holders = ProcSet::empty();
            let mut shared_holders = ProcSet::empty();
            for i in touched.iter_from(first) {
                let Some(e) = self.cores[i].l1.peek(line) else {
                    continue;
                };
                match e.state {
                    L1State::M | L1State::E => exclusive_holders.insert(i),
                    L1State::S => shared_holders.insert(i),
                    L1State::Tmi | L1State::Ti => {}
                }
            }
            // SWMR modulo TMI: conventional ownership stays singular.
            // Any number of TMI owners may coexist with it — a doomed
            // speculative writer legitimately persists past the point
            // where a conventional owner (or a committed rival's M
            // line) appears; its CSTs guarantee it can never commit.
            assert!(
                exclusive_holders.count() <= 1,
                "line {line:?}: multiple M/E holders {exclusive_holders:?}"
            );
            assert!(
                exclusive_holders.is_empty() || shared_holders.is_empty(),
                "line {line:?}: M/E holder {exclusive_holders:?} coexists \
                 with sharers {shared_holders:?}"
            );

            // TI legality lives next to the threat test it mirrors;
            // directory coverage next to the handlers that maintain
            // the bits.
            self.check_threat_invariants(line, touched);
            self.check_directory_invariants(line, touched);
        }
    }
}

/// The horizon of a grant with no rival left in the queue: every key a
/// core can issue sorts below it.
const NO_RIVAL: (u64, usize) = (u64::MAX, usize::MAX);

/// The horizon while nobody holds the lease: no key sorts below it, so
/// every op takes the rendezvous.
const NO_LEASE: (u64, usize) = (0, 0);

/// The scheduler's mailbox: the issue key `(clock, core)` of every
/// posted operation in a min-heap, plus the number of live cores. A
/// post that leaves some core computing is a push; the post that
/// completes the set is also the grant, and swaps the poster's key for
/// the minimum in one sift. The horizon is a peek at what remains —
/// the queue always holds *every* posted key, so no grant ever rescans
/// the cores. (A sorted `Vec` was measured as the alternative and lost
/// to the heap on every interleaved pair at 16 and 64 cores;
/// CHANGES.md, PR 12.)
///
/// Public (but hidden) only so `tests/grant_queue_props.rs` can drive
/// it against a full-scan oracle.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct GrantQueue {
    /// Posted keys, minimum on top.
    keys: BinaryHeap<Reverse<(u64, usize)>>,
    /// Cores between run entry and deregister. A grant needs a key from
    /// each of them (the conservative all-posted rule), which is
    /// `keys.len() == live`.
    live: usize,
}

impl GrantQueue {
    /// A queue for a machine of `cores` cores, sized so that no post
    /// ever allocates.
    pub fn with_capacity(cores: usize) -> Self {
        GrantQueue {
            keys: BinaryHeap::with_capacity(cores),
            live: 0,
        }
    }

    /// Starts a run of `live` cores, none of them posted.
    pub fn start(&mut self, live: usize) {
        self.keys.clear();
        self.live = live;
    }

    /// Number of cores that have not deregistered.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Posts `core`'s next operation, issued at `clock`, and — if that
    /// makes `core` the last live core to post — grants: returns the
    /// core holding the minimum key with the grant's horizon, the
    /// smallest key left (the strict second minimum, frozen while its
    /// poster is parked). `None` while some live core is still
    /// computing; the key stays queued.
    ///
    /// The granting post never grows the heap. A poster below the root
    /// grants itself and the heap is untouched; otherwise the root is
    /// the grantee and the poster's key takes its place, settled by
    /// one sift — half the work of a push followed by a pop.
    pub fn post_and_grant(&mut self, clock: u64, core: usize) -> Option<(usize, (u64, usize))> {
        debug_assert!(
            self.keys.iter().all(|k| k.0 .1 != core),
            "core {core} posted twice"
        );
        let key = (clock, core);
        if self.keys.len() + 1 != self.live {
            self.keys.push(Reverse(key));
            return None;
        }
        let Some(mut root) = self.keys.peek_mut() else {
            return Some((core, NO_RIVAL));
        };
        if key < root.0 {
            return Some((core, root.0));
        }
        let grantee = root.0 .1;
        // Dropping the written-through `PeekMut` sifts the new root
        // down.
        *root = Reverse(key);
        drop(root);
        let rival = self.keys.peek().expect("the poster's key is queued");
        Some((grantee, rival.0))
    }

    /// Grants after an exit, if that exit left every live core posted:
    /// removes the minimum key and returns its core with the grant's
    /// horizon, as [`GrantQueue::post_and_grant`] does. `None` while
    /// some live core is still computing, or when no core is live.
    pub fn grant(&mut self) -> Option<(usize, (u64, usize))> {
        if self.keys.len() != self.live {
            return None;
        }
        let Reverse((_, next)) = self.keys.pop()?;
        Some((next, self.keys.peek().map_or(NO_RIVAL, |rival| rival.0)))
    }

    /// Removes an exiting core. A worker normally exits while computing
    /// (nothing posted); one bailing out of a poisoned run unwinds out
    /// of a rendezvous and takes its key with it.
    pub fn deregister(&mut self, core: usize) {
        self.live -= 1;
        self.keys.retain(|k| k.0 .1 != core);
    }
}

/// A context slot holding no suspended fiber. Both backends hand out
/// non-zero contexts (a stack pointer, a heap address).
const DEAD: u64 = 0;

/// The message every use of a poisoned machine panics with.
const POISONED: &str = "a simulated thread panicked; the machine is poisoned";

/// Scheduler state touched only inside a post or an exit.
#[derive(Debug)]
struct Sched {
    queue: GrantQueue,
    /// Rendezvous counters, folded into [`MachineReport`].
    stats: SchedStats,
}

/// Everything a [`Machine`] and its [`ProcHandle`]s share. One host
/// thread owns it (see the module doc), so the fields are plain cells.
pub(crate) struct Shared {
    state: RefCell<SimState>,
    sched: RefCell<Sched>,
    /// The lease: the running fiber may run an op issued at
    /// `(clock, id)` strictly below this horizon without a rendezvous.
    /// [`NO_LEASE`] between a post or an exit and the next grant; once
    /// granted, the grantee is the only fiber that runs until it posts
    /// or exits, so the horizon needs no owner field beside it.
    horizon: Cell<(u64, usize)>,
    /// A run body panicked; every fiber must bail out and the machine
    /// refuses further use rather than expose half-mutated state.
    poisoned: Cell<bool>,
    strict: bool,
    /// The driver loop's suspended context while a fiber runs.
    driver: Cell<u64>,
    /// Each fiber's suspended (or prepared initial) context; [`DEAD`]
    /// once its job has returned.
    ctx: Box<[Cell<u64>]>,
}

pub(crate) type SharedMachine = Rc<Shared>;

/// Publishes a grant's horizon — the lease now belongs to the grantee,
/// which is returned.
fn lease(shared: &Shared, grant: Option<(usize, (u64, usize))>) -> Option<usize> {
    let (next, horizon) = grant?;
    shared.horizon.set(horizon);
    Some(next)
}

/// Executes one simulated operation for `core`: `f` runs exactly when
/// the deterministic order reaches the op's `(issue clock, core)`.
///
/// Fast path: while `core` holds the lease and the op is issued below
/// the horizon, the one-at-a-time scheduler would pick `core` again
/// anyway — run `f` directly. `f` may touch anything in the state:
/// rivals never run ahead of it.
pub(crate) fn sync_op<R>(shared: &Shared, core: usize, f: impl FnOnce(&mut SimState) -> R) -> R {
    if !shared.strict {
        let mut st = shared.state.borrow_mut();
        if (st.now(core), core) < shared.horizon.get() {
            st.lanes[core].fast_ops += 1;
            return f(&mut st);
        }
    }
    rendezvous(shared, core);
    f(&mut shared.state.borrow_mut())
}

/// The slow path: post the issue key, give the lease up, and park until
/// it comes back — by switching into the grantee's context, or to the
/// driver while the schedule waits on a fiber that has not started.
/// Returns with the lease held; a core that grants itself never leaves.
#[cold]
fn rendezvous(shared: &Shared, core: usize) {
    assert!(!shared.poisoned.get(), "{POISONED}");
    let clock = shared.state.borrow().now(core);
    let next = {
        let mut sched = shared.sched.borrow_mut();
        sched.stats.slow_ops += 1;
        shared.horizon.set(NO_LEASE);
        let next = lease(shared, sched.queue.post_and_grant(clock, core));
        if next.is_some_and(|n| n != core) {
            sched.stats.grants += 1;
        }
        next
    };
    if next == Some(core) {
        return;
    }
    let resume = next.map_or(shared.driver.get(), |n| shared.ctx[n].get());
    // SAFETY: `resume` is the suspended context of a live parked fiber
    // (the grantee just picked, which parked right here) or of the
    // driver — saved by this same switch on this host thread and
    // resumed exactly once, now. `save` is this core's own slot, which
    // whoever grants us next will resume. No `RefCell` borrow is live.
    #[allow(unsafe_code)]
    unsafe {
        fiber::switch(shared.ctx[core].as_ptr(), resume)
    };
    // Resumed: either granted, or the driver is unwinding a poisoned
    // run and this panic unwinds our stack into the job's
    // `catch_unwind`.
    assert!(!shared.poisoned.get(), "{POISONED}");
}

/// Which cycle bucket a local op charges.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bucket {
    /// `work`: computation.
    Work,
    /// `stall`: contention-manager backoff and stall spins.
    Stall,
}

/// `work` / `stall`: charges `cycles` to the issuing core's clock and
/// one bucket. Touches only that core's lane — no protocol traffic, no
/// events, no reads of shared state — so it commutes with every remote
/// operation: removing it from the rendezvous changes no other core's
/// issue clocks and therefore no scheduling decision.
pub(crate) fn local_op(shared: &Shared, core: usize, cycles: u64, bucket: Bucket) {
    let charge = |st: &mut SimState| {
        let lane = &mut st.lanes[core];
        lane.clock += cycles;
        match bucket {
            Bucket::Work => lane.work_cycles += cycles,
            Bucket::Stall => lane.stall_cycles += cycles,
        }
    };
    if shared.strict {
        return sync_op(shared, core, charge);
    }
    let mut st = shared.state.borrow_mut();
    charge(&mut st);
    st.lanes[core].fast_ops += 1;
}

/// `now`: reads the issuing core's clock, which only it advances — the
/// direct read returns exactly what the rendezvous would.
pub(crate) fn now_op(shared: &Shared, core: usize) -> u64 {
    if shared.strict {
        return sync_op(shared, core, |st| st.now(core));
    }
    let mut st = shared.state.borrow_mut();
    st.lanes[core].fast_ops += 1;
    st.now(core)
}

/// An exiting fiber's last act: leave the schedule — its absence may
/// make the remaining cores runnable — and name the context to resume
/// in its place: the grantee its exit unblocked, else the driver. A
/// panicked body poisons the machine instead; the driver then resumes
/// each parked survivor so it unwinds its own stack.
fn deregister(shared: &Shared, core: usize, panicked: bool) -> u64 {
    shared.ctx[core].set(DEAD);
    shared.horizon.set(NO_LEASE);
    if panicked {
        shared.poisoned.set(true);
    }
    let mut sched = shared.sched.borrow_mut();
    sched.queue.deregister(core);
    if shared.poisoned.get() {
        return shared.driver.get();
    }
    match lease(shared, sched.queue.grant()) {
        Some(next) => {
            sched.stats.grants += 1;
            shared.ctx[next].get()
        }
        None => shared.driver.get(),
    }
}

/// A fiber's one-shot job, reached through the thin pointer its stack
/// was prepared with. Returns the context to resume once it is done.
type Job<'a> = Option<Box<dyn FnOnce() -> u64 + 'a>>;

extern "C" fn fiber_main(arg: *mut u8) -> u64 {
    // SAFETY: `arg` is the `*mut Job` this fiber was prepared with in
    // `Machine::run`, which keeps the slot alive and untouched until
    // every fiber has returned. The cast also erases the job's borrow
    // lifetime: every job runs to completion — normally or by
    // poison-unwinding — inside `run`'s driver loop, strictly before
    // the results, the body and the stacks it borrows are dropped.
    #[allow(unsafe_code)]
    let job = unsafe { &mut *arg.cast::<Job<'static>>() };
    (job.take().expect("fiber started twice"))()
}

/// The simulated chip multiprocessor.
///
/// # Example
///
/// ```
/// use flextm_sim::{Addr, Machine, MachineConfig};
///
/// let machine = Machine::new(MachineConfig::small_test());
/// let results = machine.run(2, |proc| {
///     let a = Addr::new(0x1000 + proc.core() as u64 * 0x1000);
///     proc.store(a, 7);
///     proc.load(a)
/// });
/// assert_eq!(results, vec![7, 7]);
/// ```
///
/// A machine belongs to the host thread that built it: scheduler state
/// is unsynchronized by design, so sharing one is a compile error.
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<flextm_sim::Machine>();
/// ```
pub struct Machine {
    shared: SharedMachine,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine").finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine per `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`]
    /// (e.g. more cores than the per-processor bit vectors can name);
    /// [`Machine::try_new`] is the non-panicking form.
    pub fn new(config: MachineConfig) -> Self {
        match Self::try_new(config) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a machine per `config`, rejecting invalid configurations
    /// instead of panicking.
    pub fn try_new(config: MachineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let cores = config.cores;
        let strict = config.strict_lockstep;
        Ok(Machine {
            shared: Rc::new(Shared {
                state: RefCell::new(SimState::new(config)),
                sched: RefCell::new(Sched {
                    queue: GrantQueue::with_capacity(cores),
                    stats: SchedStats::default(),
                }),
                horizon: Cell::new(NO_LEASE),
                poisoned: Cell::new(false),
                strict,
                driver: Cell::new(DEAD),
                ctx: (0..cores).map(|_| Cell::new(DEAD)).collect(),
            }),
        })
    }

    /// Checks that the state may be borrowed through this handle: the
    /// machine is healthy and no run is live (a run body calling back
    /// into its own machine is the one way to get here mid-run).
    fn assert_quiesced(&self, caller: &str) {
        assert!(!self.shared.poisoned.get(), "{caller}: {POISONED}");
        assert!(
            self.shared.sched.borrow().queue.live() == 0,
            "{caller} called while a run is in progress"
        );
    }

    /// Direct access to simulator state. Only valid while no `run` is
    /// in progress — used to build data structures in memory before a
    /// run and to inspect state afterwards. Accesses made here cost no
    /// simulated time and leave caches untouched.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut SimState) -> R) -> R {
        self.assert_quiesced("with_state");
        f(&mut self.shared.state.borrow_mut())
    }

    /// Runs `threads` simulated threads to completion; thread `i`
    /// executes `body(ProcHandle(core i))`. Returns each thread's
    /// result, in core order. Core clocks continue from any previous
    /// run (take a [`Machine::report`] before and after to measure a
    /// region).
    ///
    /// Every thread is a fiber on the calling host thread. The driver
    /// loop below starts them one at a time; each runs natively until
    /// its first rendezvous. Once all are started, grants flow directly
    /// fiber-to-fiber and the driver is only resumed when everyone has
    /// finished — or, after a poisoning panic, to resume each parked
    /// survivor so it unwinds its own stack before the stacks are
    /// freed.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds the configured core count or a body
    /// panics (the first panic is propagated; the machine is then
    /// poisoned).
    pub fn run<R>(&self, threads: usize, body: impl Fn(ProcHandle) -> R) -> Vec<R> {
        let shared = &self.shared;
        self.assert_quiesced("run");
        let cores = shared.ctx.len();
        assert!(
            threads <= cores,
            "asked for {threads} threads on a {cores}-core machine"
        );
        shared.sched.borrow_mut().queue.start(threads);
        shared.horizon.set(NO_LEASE);
        // Every op a body issues acts on its own core, which is marked
        // here once instead of on each protocol step.
        {
            let mut st = shared.state.borrow_mut();
            (0..threads).for_each(|i| st.cores.mark(i));
        }

        let results: Vec<Cell<Option<R>>> = (0..threads).map(|_| Cell::new(None)).collect();
        let first_panic: RefCell<Option<Box<dyn Any + Send>>> = RefCell::new(None);
        let mut jobs: Vec<Job<'_>> = (0..threads)
            .map(|i| {
                let (body, results, first_panic) = (&body, &results, &first_panic);
                let job: Box<dyn FnOnce() -> u64 + '_> = Box::new(move || {
                    let proc = ProcHandle::new(Rc::clone(shared), i);
                    let panicked = match catch_unwind(AssertUnwindSafe(|| body(proc))) {
                        Ok(r) => {
                            results[i].set(Some(r));
                            false
                        }
                        Err(payload) => {
                            // Keep the original: the survivors' poison
                            // bail-outs land here after it.
                            first_panic.borrow_mut().get_or_insert(payload);
                            true
                        }
                    };
                    // Deregister even on panic, or the schedule would
                    // wait forever on this core's key.
                    deregister(shared, i, panicked)
                });
                Some(job)
            })
            .collect();
        let stacks: Vec<fiber::FiberStack> = jobs
            .iter_mut()
            .enumerate()
            .map(|(i, job)| {
                let (stack, ctx) =
                    fiber::FiberStack::prepare(fiber_main, std::ptr::from_mut(job).cast());
                shared.ctx[i].set(ctx);
                stack
            })
            .collect();

        let mut started = 0;
        loop {
            let i = if shared.poisoned.get() {
                // Never-started fibers have nothing to unwind.
                match (0..started).find(|&i| shared.ctx[i].get() != DEAD) {
                    Some(parked) => parked,
                    None => break,
                }
            } else if started < threads {
                started += 1;
                started - 1
            } else {
                // With every fiber started, grants flow fiber-to-fiber:
                // the schedule hands control back only when all are
                // done (or the run is poisoned).
                assert!(
                    shared.ctx[..threads].iter().all(|c| c.get() == DEAD),
                    "fiber driver resumed while fibers are runnable"
                );
                break;
            };
            // SAFETY: `ctx[i]` is the prepared context of a fiber not
            // yet started or the suspended context of a started,
            // unfinished one (not `DEAD`); either is resumed once
            // before being saved again. The driver's own context goes
            // to `driver`, which the fiber that hands control back
            // resumes. No `RefCell` borrow is live.
            #[allow(unsafe_code)]
            unsafe {
                fiber::switch(shared.driver.as_ptr(), shared.ctx[i].get())
            };
        }
        drop(stacks);
        drop(jobs);

        if let Some(payload) = first_panic.into_inner() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.into_inner().expect("fiber finished without a result"))
            .collect()
    }

    /// Aligns every core's local clock to the current global maximum —
    /// a synchronization barrier between measurement phases.
    ///
    /// Threads that did different amounts of work in a previous
    /// [`Machine::run`] leave their cores' clocks skewed; a later run
    /// would then execute them in disjoint simulated-time windows,
    /// making serialized work look concurrent. Call this between a
    /// warm-up phase and a timed phase (the workload harness does).
    ///
    /// # Panics
    ///
    /// Panics if called while a run is in progress.
    pub fn align_clocks(&self) {
        self.assert_quiesced("align_clocks");
        let mut st = self.shared.state.borrow_mut();
        st.cores.mark_all();
        let max = st.lanes.iter().map(|l| l.clock).max().unwrap_or(0);
        for lane in &mut st.lanes {
            // The alignment skip is idle waiting at a barrier: charge
            // it to the stall bucket so the four buckets keep summing
            // to the clock.
            lane.stall_cycles += max - lane.clock;
            lane.clock = max;
        }
    }

    /// Snapshot of counters, clocks and scheduler statistics.
    pub fn report(&self) -> MachineReport {
        self.assert_quiesced("report");
        let st = self.shared.state.borrow();
        let mut sched = self.shared.sched.borrow().stats;
        sched.fast_ops = st.lanes.iter().map(|l| l.fast_ops).sum();
        MachineReport {
            core_cycles: st.lanes.iter().map(|l| l.clock).collect(),
            cores: (st.cores.iter().zip(&st.lanes))
                .map(|(c, lane)| {
                    let mut s = c.stats;
                    s.work_cycles = lane.work_cycles;
                    s.stall_cycles = lane.stall_cycles;
                    s
                })
                .collect(),
            sched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_runs_to_completion() {
        let m = Machine::new(MachineConfig::small_test());
        let out = m.run(1, |proc| {
            proc.work(10);
            proc.core()
        });
        assert_eq!(out, vec![0]);
        assert_eq!(m.report().core_cycles[0], 10);
    }

    #[test]
    fn operations_execute_in_clock_order() {
        // Core 0 does cheap ops, core 1 one expensive op; the cheap ops
        // must interleave deterministically before core 1's clock is
        // passed.
        let m = Machine::new(MachineConfig::small_test());
        m.run(2, |proc| {
            if proc.core() == 0 {
                for _ in 0..10 {
                    proc.work(1);
                }
            } else {
                proc.work(100);
            }
        });
        let r = m.report();
        assert_eq!(r.core_cycles[0], 10);
        assert_eq!(r.core_cycles[1], 100);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let m = Machine::new(MachineConfig::small_test());
            m.with_state(|st| st.mem.write(crate::mem::Addr::new(0x1000), 5));
            m.run(3, |proc| {
                let a = crate::mem::Addr::new(0x1000);
                let v = proc.load(a);
                proc.store(a.offset(1 + proc.core() as u64), v + proc.core() as u64);
                proc.work(proc.core() as u64 * 3);
            });
            let r = m.report();
            (r.core_cycles.clone(), r.total(|c| c.l1_misses))
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "threads on a")]
    fn too_many_threads_panics() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(99, |_| {});
    }

    #[test]
    fn try_new_rejects_unsupported_core_counts() {
        let err = Machine::try_new(MachineConfig::small_test().with_cores(200)).unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyCores {
                requested: 200,
                max: flextm_sig::MAX_CORES
            }
        );
        assert!(Machine::try_new(MachineConfig::small_test().with_cores(128)).is_ok());
    }

    #[test]
    #[should_panic(expected = "200 cores")]
    fn new_panics_with_the_requested_core_count() {
        let _ = Machine::new(MachineConfig::small_test().with_cores(200));
    }

    #[test]
    fn sequential_runs_accumulate_clocks() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(1, |p| p.work(5));
        m.run(2, |p| p.work(7));
        let r = m.report();
        assert_eq!(r.core_cycles[0], 12);
        assert_eq!(r.core_cycles[1], 7);
    }

    #[test]
    fn strict_and_fast_schedules_match() {
        // The knob must change scheduling mechanics only: same clocks,
        // same counters, same event order.
        let run = |strict: bool| {
            let mut cfg = MachineConfig::small_test();
            cfg.strict_lockstep = strict;
            let m = Machine::new(cfg);
            m.with_state(|st| st.mem.write(crate::mem::Addr::new(0x40), 1));
            m.run(3, |p| {
                let a = crate::mem::Addr::new(0x40);
                for i in 0..8 {
                    let v = p.load(a.offset((p.core() as u64 + i) % 5));
                    p.store(a.offset(5 + v % 3), v + 1);
                    p.work(1 + p.core() as u64);
                }
            });
            let r = m.report();
            let events = m.with_state(|st| st.log.take());
            (r.core_cycles.clone(), r.cores.clone(), events)
        };
        let (fast_clocks, fast_cores, fast_events) = run(false);
        let (strict_clocks, strict_cores, strict_events) = run(true);
        assert_eq!(fast_clocks, strict_clocks);
        assert_eq!(fast_cores, strict_cores);
        assert_eq!(fast_events, strict_events);
    }

    #[test]
    fn fast_path_is_used_and_counted() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(1, |p| {
            for _ in 0..100 {
                p.work(1);
            }
            p.store(crate::mem::Addr::new(0x80), 9);
        });
        let r = m.report();
        assert!(r.sched.fast_ops >= 100, "fast_ops = {}", r.sched.fast_ops);
        assert!(r.sched.slow_ops >= 1);
        assert_eq!(r.cores[0].work_cycles, 100);
    }

    #[test]
    fn strict_mode_disables_fast_paths() {
        let mut cfg = MachineConfig::small_test();
        cfg.strict_lockstep = true;
        let m = Machine::new(cfg);
        m.run(2, |p| {
            p.work(5);
            p.now();
        });
        let r = m.report();
        assert_eq!(r.sched.fast_ops, 0);
        assert!(r.sched.slow_ops >= 4);
    }

    #[test]
    fn stall_and_wasted_buckets_sum_to_clock() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(1, |p| {
            p.work(10);
            p.stall(7);
            p.begin_attempt();
            p.work(5);
            p.load(crate::mem::Addr::new(0x400));
            p.abort_tx(crate::stats::AbortCause::Explicit);
        });
        let r = m.report();
        let c = &r.cores[0];
        // The aborted attempt's work and memory time moved to wasted;
        // the stall stayed a stall.
        assert_eq!(c.work_cycles, 10);
        assert_eq!(c.stall_cycles, 7);
        assert_eq!(c.mem_cycles, 0);
        assert!(c.wasted_cycles > 5, "wasted = {}", c.wasted_cycles);
        assert_eq!(c.cycle_sum(), r.core_cycles[0]);
        assert_eq!(c.abort_causes.cause_sum(), c.tx_aborts + c.failed_commits);
    }

    #[test]
    fn align_clocks_charges_skew_to_stall() {
        let m = Machine::new(MachineConfig::small_test());
        m.run(2, |p| p.work(if p.core() == 0 { 3 } else { 40 }));
        m.align_clocks();
        let r = m.report();
        // Every core (including idle ones) aligns to the max clock and
        // charges the skipped span to stall.
        assert!(r.core_cycles.iter().all(|&c| c == 40));
        assert_eq!(r.cores[0].stall_cycles, 37);
        for (i, c) in r.cores.iter().enumerate() {
            assert_eq!(c.cycle_sum(), r.core_cycles[i]);
        }
    }

    #[test]
    fn worker_panic_propagates_and_poisons() {
        let m = Machine::new(MachineConfig::small_test());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(2, |p| {
                if p.core() == 1 {
                    panic!("boom");
                }
                for _ in 0..4 {
                    p.load(crate::mem::Addr::new(0x100));
                }
            });
        }));
        assert!(result.is_err());
        // The machine must refuse further use rather than expose
        // half-mutated state.
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.report())).is_err());
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("did not panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => (*payload.downcast::<&str>().expect("non-string panic")).to_owned(),
        }
    }

    /// The sweep skips untouched cores because they are pristine; a
    /// protocol step that changed an idle core without marking it —
    /// its state or its lane — must be named, not skipped.
    #[test]
    #[cfg(debug_assertions)]
    fn an_unmarked_change_to_an_idle_core_is_named_by_the_next_sweep() {
        type Change = fn(&mut SimState);
        let cases: [(usize, Change); 2] = [
            (2, |st| st.cores.unmarked(2).stats.loads += 1),
            (3, |st| st.advance(3, 1)),
        ];
        for (idle, change) in cases {
            let mut st = SimState::for_tests(MachineConfig::small_test());
            st.access(0, crate::mem::Addr::new(0x1000), crate::AccessKind::Load, 0);
            st.check_invariants();
            change(&mut st);
            let msg = panic_message(|| st.check_invariants());
            assert_eq!(
                msg,
                format!("core {idle}: left its initial state but is not marked touched")
            );
        }
    }

    fn assert_poisoned(m: &Machine) {
        let msg = panic_message(|| drop(m.report()));
        assert_eq!(msg, format!("report: {POISONED}"));
    }

    #[test]
    fn reentering_the_machine_from_a_run_body_panics_and_poisons() {
        // The scheduler mutex used to serialize these against a live
        // run; now the live-core count does, and the body's panic
        // poisons the machine like any other.
        type Reenter = fn(&Machine);
        let cases: [(&str, Reenter); 4] = [
            ("with_state", |m| m.with_state(|_| ())),
            ("report", |m| drop(m.report())),
            ("align_clocks", |m| m.align_clocks()),
            ("run", |m| drop(m.run(1, |_| ()))),
        ];
        for (name, reenter) in cases {
            let m = Machine::new(MachineConfig::small_test());
            let msg = panic_message(|| {
                m.run(2, |p| {
                    p.load(crate::mem::Addr::new(0x100));
                    if p.core() == 1 {
                        reenter(&m);
                    }
                });
            });
            assert_eq!(msg, format!("{name} called while a run is in progress"));
            assert_poisoned(&m);
        }
    }

    #[test]
    fn nested_operation_panics_instead_of_aliasing_the_state() {
        // An op issued from inside another op's closure would need a
        // second `&mut SimState`; the `RefCell` refuses it.
        let m = Machine::new(MachineConfig::small_test());
        let msg = panic_message(|| {
            m.run(2, |p| p.with_sync(|| p.load(crate::mem::Addr::new(0x100))));
        });
        assert!(msg.contains("already"), "unexpected panic: {msg}");
        assert_poisoned(&m);
    }

    #[test]
    fn panic_mid_lease_unwinds_parked_siblings_and_keeps_the_payload() {
        // One core panics several granted ops into the run, holding the
        // lease, while its three siblings are parked in a rendezvous —
        // each with a guard on its fiber stack. The original payload
        // must come out of `run` (not a sibling's poison bail-out), and
        // every stack must be unwound, not just freed.
        struct Guard<'a>(&'a Cell<usize>);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let m = Machine::new(MachineConfig::small_test());
        let unwound = Cell::new(0);
        let msg = panic_message(|| {
            m.run(4, |p| {
                let _guard = Guard(&unwound);
                let a = crate::mem::Addr::new(0x1000 + p.core() as u64 * 0x400);
                for i in 0..8 {
                    p.store(a, i);
                    if p.core() == 2 && i == 5 {
                        panic!("boom at op {i}");
                    }
                }
            });
        });
        assert_eq!(msg, "boom at op 5");
        assert_eq!(unwound.get(), 4, "a parked sibling's stack was not unwound");
        assert_poisoned(&m);
    }
}
