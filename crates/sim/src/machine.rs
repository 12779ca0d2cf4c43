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
//! * **Key.** An operation's issue key is one `u64`, `clock << 7 |
//!   id`, whose order is the order of `(clock, id)`: 7 bits name any of
//!   [`flextm_sig::MAX_CORES`], and every clock stays below
//!   [`CLOCK_BOUND`] (2^57 − 1) — a post or a `work`/`stall` that would
//!   reach it panics, naming the core and the clock.
//! * **Post.** To run an operation a core inserts its key into the
//!   [`GrantQueue`], a winner tree, and parks. The operation itself (a
//!   closure over `&mut SimState`) stays on the fiber's stack — only
//!   the key travels.
//! * **Grant.** Whenever a post or a thread exit leaves every live
//!   core posted, the minimum key is taken and its core granted the
//!   *lease*; the poster switches straight into the grantee's context
//!   (or carries on, if it granted itself).
//! * **Horizon.** A grant carries the smallest key still queued — the
//!   strict second minimum — as one word. While the holder's next
//!   operation has a key strictly below it the scheduler would pick
//!   this core again anyway (every rival is parked, its key frozen), so
//!   the operation runs at once with no rendezvous: the test is one
//!   word compare. A grant with no rival has horizon `u64::MAX`, above
//!   every key, so after a single-threaded run's first operation every
//!   call is a plain function call. DESIGN.md shows why nothing may
//!   run *past* the horizon.
//! * **Local ops.** `work(n)` adds to the issuing core's clock and
//!   `now()` reads it; neither touches protocol state, produces events,
//!   or observes other cores, so they commute with every remote
//!   operation and complete without a rendezvous even when the core
//!   does not hold the lease (see `local_op`).
//!
//! [`crate::MachineConfig::strict_lockstep`] disables the horizon (it
//! stays 0, below every key) and the local-op paths, forcing one
//! rendezvous per operation. The
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

use crate::cache::{L1State, LineView};
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
use std::io::Write;
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

/// A [`SimState`] as a model-checker record stores it
/// ([`SimState::record`], [`SimState::restore`]): the touched cores and
/// their scheduler lanes, the L2's occupied slots, the live directory
/// entries, memory's non-zero words, the activity masks — not the
/// configuration, the invariant switch nor its sweep count, so a record restores only
/// onto a state of its configuration. A clone is exact-size.
#[derive(Debug, Clone, Default)]
pub struct SimRecord {
    mem: MemRecord,
    cores: CoresRecord,
    /// One lane per touched core, in ascending core order.
    lanes: Vec<Lane>,
    l2: L2Record,
    log: EventLog,
    sig_live: ProcSet,
    ot_present: ProcSet,
}

impl SimRecord {
    /// Bytes the record owns on the heap, not counting its inline part
    /// (nor a logged event's own payload; the model checker logs none).
    pub fn heap_bytes(&self) -> usize {
        self.mem.heap_bytes()
            + self.cores.heap_bytes()
            + self.lanes.capacity() * std::mem::size_of::<Lane>()
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
    /// Invariant sweeps run on this state ([`SimState::sweeps`]). A
    /// host-side count, not machine state: records do not keep it.
    sweeps: Cell<u64>,
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
            sweeps: Cell::new(0),
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

    /// Invariant sweeps ([`SimState::check_invariants`]) this state
    /// has run since it was built; a restore leaves the count as it is.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.get()
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

    /// Writes the machine's record ([`SimRecord`]) into `rec` in place,
    /// reusing its buffers: with [`SimState::restore`], the model
    /// checker's one way to copy a machine. The destructuring is
    /// exhaustive on purpose: a field added to the machine must be
    /// recorded here or fail to compile, not leak from one restored
    /// state into the next.
    pub fn record(&self, rec: &mut SimRecord) {
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
            // Empty between commits; a restored state keeps its own
            // buffer.
            commit_scratch: _,
            // A switch, not state: a restored state keeps its own.
            check_every_op: _,
            // A host-side count; a restored state keeps counting.
            sweeps: _,
        } = self;
        cores.record(&mut rec.cores);
        rec.lanes.clear();
        rec.lanes.extend(cores.touched().iter().map(|i| lanes[i]));
        mem.record(&mut rec.mem);
        l2.record(&mut rec.l2);
        rec.log.clone_from(log);
        rec.sig_live = *sig_live;
        rec.ot_present = *ot_present;
    }

    /// Makes `self` the machine `rec` was written from, in place. `self`
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
    ///
    /// Two passes. The first runs every per-core check that needs no
    /// walk of the L1. The second walks each L1 once
    /// ([`crate::CoreState::check_lines`]) and judges each resident line at
    /// its lowest-numbered holder, from one snoop of every other
    /// touched core (`SimState::check_line`): no cross-core judgement
    /// reads a core whose cache-wide, CST or OT state is unchecked.
    pub fn check_invariants(&self) {
        self.sweeps.set(self.sweeps.get() + 1);
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
        for i in touched {
            self.cores[i].check_lines(i, |e| self.check_line(i, e, touched));
        }
    }

    /// The cross-core checks of one resident line, which `first` holds
    /// as `e`: gathers the line's holders with one snoop of every other
    /// touched core, and judges the line only at its lowest-numbered
    /// holder, so each line is judged once and no list of lines is
    /// built.
    fn check_line(&self, first: usize, e: LineView, touched: ProcSet) {
        let line = e.line;
        let mut holders = Holders::default();
        holders.add(first, e.state);
        for j in touched.without(first) {
            let Some(h) = self.cores[j].l1.peek(line) else {
                continue;
            };
            if j < first {
                return;
            }
            holders.add(j, h.state);
        }
        // SWMR modulo TMI: conventional ownership stays singular. Any
        // number of TMI owners may coexist with it — a doomed
        // speculative writer legitimately persists past the point
        // where a conventional owner (or a committed rival's M line)
        // appears; its CSTs guarantee it can never commit.
        let (exclusive_holders, shared_holders) = (holders.exclusive, holders.shared);
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
        // directory coverage next to the handlers that maintain the
        // bits.
        self.check_threat_invariants(line, &holders, touched);
        self.check_directory_invariants(line, &holders);
    }
}

/// The touched cores that hold one line, by state: what the invariant
/// sweep's one snoop per core gathers, and what each of its cross-core
/// checks judges.
#[derive(Default)]
pub(crate) struct Holders {
    /// M or E holders.
    pub(crate) exclusive: ProcSet,
    /// S holders.
    pub(crate) shared: ProcSet,
    pub(crate) tmi: ProcSet,
    pub(crate) ti: ProcSet,
}

impl Holders {
    fn add(&mut self, core: usize, state: L1State) {
        match state {
            L1State::M | L1State::E => &mut self.exclusive,
            L1State::S => &mut self.shared,
            L1State::Tmi => &mut self.tmi,
            L1State::Ti => &mut self.ti,
        }
        .insert(core);
    }
}

/// Bits of an issue key below its clock: the core id, which
/// [`flextm_sig::MAX_CORES`] bounds.
const CORE_BITS: u32 = 7;
const _: () = assert!(flextm_sig::MAX_CORES <= 1 << CORE_BITS);

/// The first clock no core may post at (2^57 − 1). Every key of a
/// clock below it packs into a word below `u64::MAX`, the horizon of a
/// grant with no rival; [`GrantQueue::post_and_grant`] and the
/// `work`/`stall` path panic rather than let a clock reach it.
pub const CLOCK_BOUND: u64 = u64::MAX >> CORE_BITS;

/// The issue key of an op `core` issues at `clock`: one word whose
/// order is the order of `(clock, core)`. A clock at or past
/// [`CLOCK_BOUND`] cannot wrap into a small key: past `2^57` it
/// saturates to [`NO_RIVAL`], which no horizon lies above, so the op
/// reaches the rendezvous, and the post there panics.
#[inline]
fn issue_key(clock: u64, core: usize) -> u64 {
    clock.saturating_mul(1 << CORE_BITS) | core as u64
}

/// The core that posted `key`.
#[inline]
fn key_core(key: u64) -> usize {
    (key & ((1 << CORE_BITS) - 1)) as usize
}

/// The horizon of a grant with no rival left in the queue, and the
/// value of a leaf whose core has no key posted: every key a core may
/// post sorts below it.
const NO_RIVAL: u64 = u64::MAX;

/// The horizon while nobody holds the lease, and always under
/// `strict_lockstep`: no key sorts below it, so every op takes the
/// rendezvous.
const NO_LEASE: u64 = 0;

/// The scheduler's mailbox: the issue key of every posted operation in
/// a winner tree, plus the number of live cores. The tree has one leaf
/// per core; every inner node holds the smaller of its two children,
/// so node 1 is the minimum. A key names its core, so the grantee is
/// read off the root. Leaves are slots, not cores: a post that
/// completes the set and does not grant itself writes its key into the
/// grantee's slot and takes the grantee's place in the permutation of
/// slots, so a grant rewrites one leaf-to-root path — one branch-free
/// `min` per level — and the horizon is the new root. The queue always
/// holds *every* posted key, so no grant ever rescans the cores. (A
/// hand-rolled binary heap of the same words, and a tree with one
/// fixed leaf per core, lost to this tree on interleaved pairs;
/// EXPERIMENTS.md "Measurement history".)
///
/// Public (but hidden) only so `tests/grant_queue_props.rs` can drive
/// it against a full-scan oracle.
#[doc(hidden)]
#[derive(Debug)]
pub struct GrantQueue {
    /// `2 * cores` words, of which a run of `live` cores uses the first
    /// `2 * live`: node `i`'s children at `2i` and `2i + 1`, the leaves
    /// at `live..2 * live`, so a path is as long as the run is wide.
    /// Word 0 is unused. An empty leaf holds [`NO_RIVAL`].
    tree: Box<[u64]>,
    /// The leaf each core's next key goes into: a permutation of the
    /// run's leaves (`2 * live <= 256`). A computing core's leaf is
    /// empty.
    /// Inline, so a queue is one allocation like the heap it replaced:
    /// with a second, `ht-1t`'s set-up ran 1.6× slower on a 2-CPU Xeon
    /// (EXPERIMENTS.md "Measurement history").
    leaf: [u8; flextm_sig::MAX_CORES],
    /// Cores that have a key posted.
    posted: usize,
    /// Cores between run entry and deregister. A grant needs a key from
    /// each of them (the conservative all-posted rule), which is
    /// `posted == live`.
    live: usize,
}

impl GrantQueue {
    /// A queue for a machine of `cores` cores, sized so that no post
    /// ever allocates.
    pub fn with_capacity(cores: usize) -> Self {
        assert!(cores <= flextm_sig::MAX_CORES, "{cores} cores");
        GrantQueue {
            tree: vec![NO_RIVAL; 2 * cores.max(1)].into(),
            leaf: [0; flextm_sig::MAX_CORES],
            posted: 0,
            live: 0,
        }
    }

    /// Starts a run of cores `0..live`, none of them posted.
    pub fn start(&mut self, live: usize) {
        let n = live.max(1);
        self.tree[..2 * n].fill(NO_RIVAL);
        for (core, leaf) in self.leaf[..live].iter_mut().enumerate() {
            *leaf = u8::try_from(n + core).expect("at most 128 cores");
        }
        self.posted = 0;
        self.live = live;
    }

    /// Number of cores that have not deregistered.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Writes `key` into leaf `i` and rewrites its path to the root.
    #[inline]
    fn settle(&mut self, mut i: usize, key: u64) {
        let tree = &mut self.tree;
        let mut min = key;
        tree[i] = min;
        while i > 1 {
            min = min.min(tree[i ^ 1]);
            i /= 2;
            tree[i] = min;
        }
    }

    /// Posts `core`'s next operation, issued at `clock`, and — if that
    /// makes `core` the last live core to post — grants: returns the
    /// core holding the minimum key with the grant's horizon, the
    /// smallest key left (the strict second minimum, frozen while its
    /// poster is parked). `None` while some live core is still
    /// computing; the key stays queued.
    ///
    /// A poster below the root grants itself and the tree is untouched;
    /// otherwise the poster's key replaces the root's in its leaf.
    ///
    /// # Panics
    ///
    /// Panics, naming `core` and `clock`, if `clock` is not below
    /// [`CLOCK_BOUND`].
    pub fn post_and_grant(&mut self, clock: u64, core: usize) -> Option<(usize, u64)> {
        assert!(
            clock < CLOCK_BOUND,
            "core {core} posted at clock {clock}, past the issue-key bound {CLOCK_BOUND}"
        );
        let key = issue_key(clock, core);
        debug_assert!(
            self.tree[usize::from(self.leaf[core])] == NO_RIVAL,
            "core {core} posted twice"
        );
        if self.posted + 1 != self.live {
            self.posted += 1;
            self.settle(usize::from(self.leaf[core]), key);
            return None;
        }
        let root = self.tree[1];
        if key < root {
            return Some((core, root));
        }
        let grantee = key_core(root);
        self.leaf.swap(core, grantee);
        self.settle(usize::from(self.leaf[core]), key);
        Some((grantee, self.tree[1]))
    }

    /// Grants after an exit, if that exit left every live core posted:
    /// removes the minimum key and returns its core with the grant's
    /// horizon, as [`GrantQueue::post_and_grant`] does. `None` while
    /// some live core is still computing, or when no core is live.
    pub fn grant(&mut self) -> Option<(usize, u64)> {
        if self.posted != self.live || self.posted == 0 {
            return None;
        }
        self.posted -= 1;
        let grantee = key_core(self.tree[1]);
        self.settle(usize::from(self.leaf[grantee]), NO_RIVAL);
        Some((grantee, self.tree[1]))
    }

    /// Removes an exiting core. A worker normally exits while computing
    /// (nothing posted); one bailing out of a poisoned run unwinds out
    /// of a rendezvous and takes its key with it.
    pub fn deregister(&mut self, core: usize) {
        self.live -= 1;
        let i = usize::from(self.leaf[core]);
        if self.tree[i] != NO_RIVAL {
            self.posted -= 1;
            self.settle(i, NO_RIVAL);
        }
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
    /// The lease: the running fiber may run an op whose issue key lies
    /// strictly below this horizon without a rendezvous. [`NO_LEASE`]
    /// between a post or an exit and the next grant, and throughout a
    /// `strict_lockstep` run; once granted, the grantee is the only
    /// fiber that runs until it posts or exits, so the horizon needs no
    /// owner field beside it.
    horizon: Cell<u64>,
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
/// which is returned. A strict run keeps [`NO_LEASE`], so its fast-path
/// test never passes.
fn lease(shared: &Shared, grant: Option<(usize, u64)>) -> Option<usize> {
    let (next, horizon) = grant?;
    if !shared.strict {
        shared.horizon.set(horizon);
    }
    Some(next)
}

/// Executes one simulated operation for `core`: `f` runs exactly when
/// the deterministic order reaches the op's issue key.
///
/// Fast path: while `core` holds the lease and the op's key is below
/// the horizon, the one-at-a-time scheduler would pick `core` again
/// anyway — run `f` directly. `f` may touch anything in the state:
/// rivals never run ahead of it.
pub(crate) fn sync_op<R>(shared: &Shared, core: usize, f: impl FnOnce(&mut SimState) -> R) -> R {
    let clock = {
        let mut st = shared.state.borrow_mut();
        let clock = st.now(core);
        if issue_key(clock, core) < shared.horizon.get() {
            st.lanes[core].fast_ops += 1;
            return f(&mut st);
        }
        clock
    };
    rendezvous(shared, core, clock);
    f(&mut shared.state.borrow_mut())
}

/// The slow path: post the issue key of `core`'s op at `clock`, give
/// the lease up, and park until it comes back — by switching into the
/// grantee's context, or to the driver while the schedule waits on a
/// fiber that has not started. Returns with the lease held; a core that
/// grants itself never leaves.
#[cold]
fn rendezvous(shared: &Shared, core: usize, clock: u64) {
    assert!(!shared.poisoned.get(), "{POISONED}");
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
///
/// Panics, naming the core and its clock, if the charge would carry
/// the clock to [`CLOCK_BOUND`].
pub(crate) fn local_op(shared: &Shared, core: usize, cycles: u64, bucket: Bucket) {
    let charge = |st: &mut SimState| {
        let lane = &mut st.lanes[core];
        lane.clock = match lane.clock.checked_add(cycles) {
            Some(clock) if clock < CLOCK_BOUND => clock,
            _ => past_clock_bound(core, lane.clock, cycles),
        };
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

#[cold]
#[inline(never)]
fn past_clock_bound(core: usize, clock: u64, cycles: u64) -> ! {
    panic!("core {core} at clock {clock} charged {cycles} cycles, past the issue-key bound {CLOCK_BOUND}")
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
    /// One fiber stack per core a run has used, allocated by the first
    /// run that needs it, re-armed by every later one and freed with
    /// the machine.
    stacks: RefCell<Vec<fiber::FiberStack>>,
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
            stacks: RefCell::default(),
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
    /// Every thread is a fiber on the calling host thread, on a stack
    /// the machine keeps for its core across runs. The driver loop
    /// below starts them one at a time; each runs natively until its
    /// first rendezvous. Once all are started, grants flow directly
    /// fiber-to-fiber and the driver is only resumed when everyone has
    /// finished — or, after a poisoning panic, to resume each parked
    /// survivor so it unwinds its own stack before `run` returns.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds the configured core count or a body
    /// panics (the first panic is propagated; the machine is then
    /// poisoned). A body that reaches the lowest 4 KiB of its
    /// [`crate::FIBER_STACK_BYTES`] stack aborts the process, printing
    /// `fiber stack overflow on core N`, once the run is over.
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
        let mut stacks = self.stacks.borrow_mut();
        if stacks.len() < threads {
            stacks.resize_with(threads, fiber::FiberStack::new);
        }
        for (i, (stack, job)) in stacks.iter_mut().zip(&mut jobs).enumerate() {
            shared.ctx[i].set(stack.start(fiber_main, std::ptr::from_mut(job).cast()));
        }

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
        if let Some(core) = stacks[..threads]
            .iter()
            .position(fiber::FiberStack::overflowed)
        {
            // Straight to the stream: a test harness's output capture
            // would swallow `eprintln!` before the abort. The band is
            // all an overflow is sure to have hit; what lies below it
            // may be corrupt, so nothing may run on.
            let _ = writeln!(std::io::stderr(), "fiber stack overflow on core {core}");
            std::process::abort();
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

    /// The deepest any fiber of this machine has reached into its stack,
    /// in bytes, over all of its runs. `None` before the first run and
    /// wherever it is not measured: a release build paints only each
    /// stack's canary band, and the thread-baton backend runs fibers on
    /// OS-thread stacks.
    ///
    /// # Panics
    ///
    /// Panics if called while a run is in progress.
    pub fn fiber_stack_high_water(&self) -> Option<usize> {
        let stacks = (self.stacks.try_borrow())
            .expect("fiber_stack_high_water called while a run is in progress");
        stacks
            .iter()
            .filter_map(fiber::FiberStack::high_water)
            .max()
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

    /// A `work` or `stall` whose charge would carry the clock to the
    /// packing bound, or past `u64::MAX`, panics instead of posting a
    /// wrapped key later.
    #[test]
    fn a_charge_that_reaches_the_clock_bound_panics_naming_core_and_clock() {
        for (first, second) in [(CLOCK_BOUND - 1, 1), (5, u64::MAX)] {
            let m = Machine::new(MachineConfig::small_test());
            let msg = panic_message(|| {
                m.run(2, |p| {
                    if p.core() == 1 {
                        p.work(first);
                        p.stall(second);
                    }
                });
            });
            assert_eq!(
                msg,
                format!(
                    "core 1 at clock {first} charged {second} cycles, \
                     past the issue-key bound {CLOCK_BOUND}"
                )
            );
            assert_poisoned(&m);
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

    /// Recurses in 256-byte frames until one lies at or below `floor`;
    /// returns the number of frames.
    fn recurse_to(floor: usize) -> usize {
        let mut frame = [0u8; 256];
        let here = std::hint::black_box(&mut frame).as_ptr() as usize;
        if here <= floor {
            return 0;
        }
        let deeper = recurse_to(floor);
        std::hint::black_box(&frame);
        deeper + 1
    }

    /// Set in the re-executed test binary that must die.
    const OVERFLOW_CHILD: &str = "FLEXTM_SIM_OVERFLOW_CHILD";

    /// A fiber that reaches its stack's canary band kills the process,
    /// naming its core, instead of running on over whatever lies below.
    /// The dying run happens in a re-executed copy of this test. Its
    /// fiber stops halfway into the band, inside the stack; on the
    /// thread-baton backend, which has no band, it recurses into the
    /// thread's guard page.
    #[test]
    fn a_fiber_stack_overflow_aborts_naming_the_core() {
        if std::env::var_os(OVERFLOW_CHILD).is_some() {
            let m = Machine::new(MachineConfig::small_test());
            m.run(1, |_| ());
            let floor = m.stacks.borrow()[0].mid_band().unwrap_or(0);
            m.run(1, |_| recurse_to(floor));
            return;
        }
        let name = "machine::tests::a_fiber_stack_overflow_aborts_naming_the_core";
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", name])
            .env(OVERFLOW_CHILD, "1")
            .output()
            .expect("re-running the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "the overflowing run returned:\n{stderr}"
        );
        // On the thread-baton backend a fiber's stack is its thread's,
        // whose guard page std reports on its own.
        let os_threads = cfg!(not(all(
            target_arch = "x86_64",
            not(windows),
            not(flextm_fiber_fallback)
        )));
        assert!(
            stderr.contains("fiber stack overflow on core 0")
                || (os_threads && stderr.contains("has overflowed its stack")),
            "unexpected death:\n{stderr}"
        );
    }

    /// The invariant sweep's kill list for its machine-level
    /// assertions: one planted fault each, named by
    /// [`SimState::check_invariants`].
    mod sweep_kills {
        use super::*;
        use crate::cache::L1State;
        use crate::mem::Addr;
        use crate::ot::OverflowTable;
        use crate::proto::AccessKind;

        const A: u64 = 0x1000;

        /// A `small_test` machine whose core 0 has loaded `A`.
        fn st() -> SimState {
            let mut st = SimState::for_tests(MachineConfig::small_test());
            st.access(0, Addr::new(A), AccessKind::Load, 0);
            st
        }

        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(expected = "core 3: left its initial state but is not marked touched")]
        fn unmarked_core_off_its_initial_state() {
            let mut st = st();
            st.cores.unmarked(3).stats.alerts += 1;
            st.check_invariants();
        }

        #[test]
        #[should_panic(expected = "core 0: live signatures but sig_live bit clear")]
        fn live_signatures_off_the_mask() {
            let mut st = st();
            st.access(0, Addr::new(A), AccessKind::TLoad, 0);
            st.sig_live.remove(0);
            st.check_invariants();
        }

        #[test]
        #[should_panic(expected = "core 0: OT allocated but ot_present bit clear")]
        fn ot_off_the_mask() {
            let mut st = st();
            st.cores[0].ot = Some(OverflowTable::new(st.config.signature.clone()));
            st.check_invariants();
        }

        #[test]
        #[should_panic(expected = "core 0: cycle buckets diverge from the clock")]
        fn clock_past_its_buckets() {
            let mut st = st();
            st.lanes[0].clock += 1;
            st.check_invariants();
        }

        #[test]
        #[should_panic(expected = "core 0: abort causes do not sum to tx_aborts + failed_commits")]
        fn abort_without_a_cause() {
            let mut st = st();
            st.cores[0].stats.tx_aborts += 1;
            st.check_invariants();
        }

        #[test]
        #[should_panic(expected = "line LineAddr(64): multiple M/E holders ProcSet{0, 2}")]
        fn two_exclusive_holders() {
            let mut st = st();
            let line = Addr::new(A).line();
            st.cores[2].l1.fill(line, L1State::M);
            st.l2.dir_mut(line).owners.insert(2);
            st.check_invariants();
        }

        #[test]
        #[should_panic(
            expected = "line LineAddr(64): M/E holder ProcSet{0} coexists with sharers ProcSet{1}"
        )]
        fn exclusive_holder_beside_a_sharer() {
            let mut st = st();
            let line = Addr::new(A).line();
            st.cores[1].l1.fill(line, L1State::S);
            st.l2.dir_mut(line).sharers.insert(1);
            st.check_invariants();
        }
    }
}
