//! The private L1 data cache with the TMESI state machine (paper Fig. 1).
//!
//! Each line carries the conventional MESI state plus the `T` bit that
//! encodes the two PDI states (`TMI` = speculatively written, `TI` =
//! speculatively read while threatened) and the `A` (alert-on-update)
//! bit. Flash commit/abort is the paper's signature trick: commit
//! clears every `T` bit simultaneously, turning `TMI → M` and `TI → I`;
//! abort conditionally clears `M` bits first so `TMI → I`.
//!
//! Data handling: committed values live in [`crate::mem::Memory`]; a
//! cache line entry carries a private data buffer only when it must
//! diverge from memory — `TMI` (speculative new values) and `TI` (a
//! snapshot of the pre-transaction value, which must stay readable even
//! after a remote writer commits).
//!
//! Layout: the main array is struct-of-arrays. Tag probes, state tests
//! and LRU updates — the operations every access and every remote sweep
//! performs — touch three dense planes (`tags`, `meta`, `lru`: 8 + 1 +
//! 8 bytes per way), so an associative search walks a handful of host
//! cache lines instead of hopping across 48-byte AoS entries whose data
//! pointers it never needs. The cold plane (`data`) holds the boxed
//! speculative payloads and is reached only on actual data movement.
//! The tiny victim buffer keeps the materialized [`LineEntry`] form:
//! entries constantly enter and leave it whole, and it is 32 entries at
//! most. It runs full, though, and most lookups that reach it are for
//! lines it does not hold (every remote peek of a line cached
//! elsewhere), so a 128-bit summary of its residents kept inline
//! answers most of them without reading it.
//!
//! First touch: a new cache owns no plane at all. The four `Vec`s stay
//! empty until the first fill allocates them at `sets × ways`, so a
//! core that never misses — every undriven core of a wide model-checker
//! machine, every idle core of a wide simulation — costs nothing to
//! build, clone or sweep. The read paths pay nothing for this: a probe
//! already bounds-checks its set's slice of the tag plane, and
//! `tags.get(range)` turns that same check into a miss instead of a
//! panic.

use crate::mem::WORDS_PER_LINE;
use flextm_sig::LineAddr;

/// TMESI stable states (paper Fig. 1, state-encoding table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1State {
    /// Modified: sole owner, dirty.
    M,
    /// Exclusive: sole owner, clean.
    E,
    /// Shared.
    S,
    /// Transactional-MI: holds speculative (TStored) data invisible to
    /// the rest of the machine; looks like `E` to the directory.
    Tmi,
    /// Transactional-I: holds a stale-but-consistent snapshot for local
    /// TLoads of a line that a remote transaction has TStored; looks
    /// like a conventional sharer to the directory.
    Ti,
}

impl L1State {
    /// True for the two PDI (speculative) states.
    pub fn is_speculative(self) -> bool {
        matches!(self, L1State::Tmi | L1State::Ti)
    }

    /// True if a local plain load can be satisfied without a request.
    pub fn readable(self) -> bool {
        matches!(self, L1State::M | L1State::E | L1State::S)
    }
}

/// Vacant-slot sentinel in the tag plane. Line indexes are byte
/// addresses shifted right by the line-offset bits, so `u64::MAX` is
/// unreachable.
const EMPTY_TAG: u64 = u64::MAX;

/// A-bit flag in the meta plane (state code lives in the low bits).
const A_FLAG: u8 = 0x80;

fn encode_state(s: L1State) -> u8 {
    match s {
        L1State::M => 0,
        L1State::E => 1,
        L1State::S => 2,
        L1State::Tmi => 3,
        L1State::Ti => 4,
    }
}

fn decode_state(m: u8) -> L1State {
    match m & !A_FLAG {
        0 => L1State::M,
        1 => L1State::E,
        2 => L1State::S,
        3 => L1State::Tmi,
        _ => L1State::Ti,
    }
}

/// By-value snapshot of one resident line's hot metadata, returned by
/// [`L1Cache::peek`] and [`L1Cache::iter_all`]. Data payloads are read
/// through [`L1Cache::peek_data`] or a slot handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineView {
    /// Which line this entry caches.
    pub line: LineAddr,
    /// TMESI state.
    pub state: L1State,
    /// Alert-on-update mark (AOU, paper §3.4).
    pub a_bit: bool,
}

/// One L1 line in materialized (struct) form: what [`L1Cache::invalidate`]
/// returns and what the victim buffer stores.
#[derive(Debug, Clone)]
pub struct LineEntry {
    /// Which line this entry caches.
    pub line: LineAddr,
    /// TMESI state.
    pub state: L1State,
    /// Alert-on-update mark (AOU, paper §3.4).
    pub a_bit: bool,
    /// Private data: `Some` iff state is `Tmi` (speculative new values)
    /// or `Ti` (pre-transaction snapshot).
    pub data: Option<Box<[u64; WORDS_PER_LINE]>>,
    /// LRU timestamp (higher = more recently used).
    pub lru: u64,
}

impl LineEntry {
    /// Makes `self` a copy of `src` in place, reusing a line buffer
    /// both sides carry (see [`L1Cache::assign_for_check`]).
    fn assign_for_check(&mut self, src: &LineEntry) {
        let LineEntry {
            line,
            state,
            a_bit,
            data,
            lru,
        } = src;
        self.line = *line;
        self.state = *state;
        self.a_bit = *a_bit;
        self.data.clone_from(data);
        self.lru = *lru;
    }
}

/// One resident main-array way, as an [`L1Record`] keeps it.
#[derive(Debug, Clone, Copy)]
struct WayRecord {
    way: u32,
    meta: u8,
    tag: u64,
    lru: u64,
}

/// What an [`L1Cache`] holds, without its vacant ways
/// ([`L1Cache::save`]). The default record is a cache that was never
/// filled.
#[derive(Debug, Default)]
pub(crate) struct L1Record {
    /// False for a cache whose planes no fill has allocated.
    materialised: bool,
    ways: Box<[WayRecord]>,
    /// `(way, words)` for each resident way that carries a line buffer,
    /// in ascending way order.
    data: Box<[(u32, [u64; WORDS_PER_LINE])]>,
    victim: Box<[LineEntry]>,
    victim_set: [u64; 2],
    tick: u64,
    spec_touched: Box<[LineAddr]>,
}

impl L1Record {
    /// Bytes the record owns on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let L1Record {
            materialised: _,
            ways,
            data,
            victim,
            victim_set: _,
            tick: _,
            spec_touched,
        } = self;
        size_of_val(&**ways)
            + size_of_val(&**data)
            + size_of_val(&**victim)
            + victim.iter().filter(|e| e.data.is_some()).count()
                * size_of::<[u64; WORDS_PER_LINE]>()
            + size_of_val(&**spec_touched)
    }
}

/// Opaque handle to a resident L1 line, returned by
/// [`L1Cache::probe_slot`] / [`L1Cache::peek_slot`] /
/// [`L1Cache::fill_slot`] so hot paths that probe and then mutate the
/// same entry pay one associative lookup instead of two.
///
/// The handle is positional: it stays valid only until the next
/// structural change to the cache (any fill, invalidate, or flash
/// operation). Debug builds verify the tag on every dereference.
#[derive(Debug, Clone, Copy)]
pub struct L1Slot {
    loc: SlotLoc,
    line: LineAddr,
}

#[derive(Debug, Clone, Copy)]
enum SlotLoc {
    Main(usize),
    Victim(usize),
}

/// The bit of the 128-bit [`L1Cache::victim_set`] (word 0 holds bits
/// 0–63) that `line` folds to: the low seven bits of the line index.
#[inline]
fn victim_bit(line: LineAddr) -> usize {
    (line.index() & 127) as usize
}

/// Capacity of the per-cache line-buffer free list. Beyond this the
/// buffers go back to the allocator; 64 comfortably covers a
/// transaction's working set of speculative lines.
const DATA_POOL_CAP: usize = 64;

/// A set-associative L1 with a small fully-associative victim buffer.
///
/// The victim buffer (Table 3(a): 32 entries) holds lines evicted from
/// the main array, *including TMI lines*; only when a TMI line falls out
/// of the victim buffer too does it overflow to the OT. Setting the
/// victim capacity to `usize::MAX` reproduces the §7.3 "unbounded victim
/// buffer" ablation in which nothing ever overflows.
#[derive(Debug)]
pub struct L1Cache {
    /// Tag plane, set-major: `nsets * ways` line indexes
    /// ([`EMPTY_TAG`] marks a vacant way). One contiguous allocation —
    /// the associative search a probe performs reads only this plane.
    /// Empty, like the three planes parallel to it, until the first
    /// fill (see the module doc).
    tags: Vec<u64>,
    /// State + A-bit plane, parallel to `tags` (don't-care where
    /// vacant).
    meta: Vec<u8>,
    /// LRU timestamp plane, parallel to `tags`.
    lru: Vec<u64>,
    /// Cold plane: boxed speculative payloads, parallel to `tags`.
    /// Always `None` for vacant ways and non-PDI states.
    #[allow(clippy::vec_box)]
    data: Vec<Option<Box<[u64; WORDS_PER_LINE]>>>,
    /// Geometry, as `u32`s: together with `victim_cap` they pay for
    /// the inline `victim_set`, so `CoreState` — which every checker
    /// fork copies for every core — did not grow.
    nsets: u32,
    ways: u32,
    victim: Vec<LineEntry>,
    /// Exact summary of the victim buffer's residents: bit
    /// [`victim_bit`]`(line)` is set iff some entry folds to it. A
    /// lookup that misses the main array tests one bit here before it
    /// scans the buffer, which sits full in steady state — 32 entries,
    /// 16 host lines — and is asked about absent lines by every remote
    /// peek. Set on push, recomputed from the residents on removal;
    /// [`L1Cache::check_invariants`] proves it exact.
    victim_set: [u64; 2],
    /// `u32::MAX` stands for "unbounded" (§7.3 ablation).
    victim_cap: u32,
    /// §7.3 ablation: TMI lines never leave the victim buffer (an
    /// idealized unbounded speculative buffer), while non-speculative
    /// lines still obey `victim_cap` so cache capacity is unchanged.
    unbounded_tmi: bool,
    tick: u64,
    /// Lines that may currently be in a speculative state (TMI/TI).
    /// Appended on every speculative fill or in-place transition
    /// (entries may be stale or duplicated — flash operations re-check
    /// the actual state) and consumed by flash commit/abort, so those
    /// walk the handful of transactional lines instead of sweeping the
    /// whole array on every transaction.
    spec_touched: Vec<LineAddr>,
    /// Free list of line data buffers, recycled between speculative
    /// fills so steady-state transactions never touch the allocator.
    /// The boxes are the point: entries move between the pool and
    /// the data plane / OT slots without copying the 64-byte payload.
    #[allow(clippy::vec_box)]
    data_pool: Vec<Box<[u64; WORDS_PER_LINE]>>,
}

/// What fell out of the cache when room was made for a fill.
#[derive(Debug, Clone)]
pub enum Evicted {
    /// A clean or shared line left silently (E, S, TI — the directory
    /// deliberately keeps stale sharer info; paper §4.1). The flag
    /// reports whether the line was ALoaded, so the machine can deliver
    /// the conservative capacity-eviction alert.
    Silent(LineAddr, L1State, bool),
    /// An M line left; its data is already in simulated memory, but the
    /// machine charges a write-back. The flag reports the A bit.
    WritebackM(LineAddr, bool),
    /// A TMI line with its speculative data overflowed; the machine
    /// must spill it to the overflow table.
    OverflowTmi(LineAddr, Box<[u64; WORDS_PER_LINE]>),
}

impl L1Cache {
    /// Creates an empty cache with `sets` sets of `ways` lines and a
    /// `victim_cap`-entry victim buffer. Allocates nothing: the planes
    /// materialise on the first fill.
    pub fn new(sets: usize, ways: usize, victim_cap: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        L1Cache {
            tags: Vec::new(),
            meta: Vec::new(),
            lru: Vec::new(),
            data: Vec::new(),
            nsets: u32::try_from(sets).expect("L1 set count fits a u32"),
            ways: u32::try_from(ways).expect("L1 associativity fits a u32"),
            victim: Vec::new(),
            victim_set: [0; 2],
            victim_cap: u32::try_from(victim_cap).unwrap_or(u32::MAX),
            unbounded_tmi: false,
            tick: 0,
            spec_touched: Vec::new(),
            data_pool: Vec::new(),
        }
    }

    /// Makes `self` a copy of `src` in place — the model checker's
    /// one copy routine for a cache ([`crate::SimState::assign_for_check`]):
    /// every plane, the victim buffer and each line buffer both sides
    /// carry are reused, so refilling a scratch that last held a
    /// same-shaped cache allocates nothing. The destination's buffer
    /// free list is emptied: its contents are unspecified recycled
    /// buffers that every consumer overwrites. The destructuring is
    /// exhaustive on purpose: a field added to the cache must be
    /// assigned here or fail to compile, not leak from one sibling
    /// child of the model checker into the next.
    pub fn assign_for_check(&mut self, src: &L1Cache) {
        let L1Cache {
            tags,
            meta,
            lru,
            data,
            nsets,
            ways,
            victim,
            victim_set,
            victim_cap,
            unbounded_tmi,
            tick,
            spec_touched,
            data_pool: _,
        } = src;
        self.tags.clone_from(tags);
        self.meta.clone_from(meta);
        self.lru.clone_from(lru);
        self.data.clone_from(data);
        self.nsets = *nsets;
        self.ways = *ways;
        self.victim.truncate(victim.len());
        let (shared, extra) = victim.split_at(self.victim.len());
        for (mine, e) in self.victim.iter_mut().zip(shared) {
            mine.assign_for_check(e);
        }
        self.victim.extend_from_slice(extra);
        self.victim_set = *victim_set;
        self.victim_cap = *victim_cap;
        self.unbounded_tmi = *unbounded_tmi;
        self.tick = *tick;
        self.spec_touched.clone_from(spec_touched);
        self.data_pool.clear();
    }

    /// The record a kept model-checker state stores for this cache:
    /// its resident ways, victims, clock and speculative-line notes —
    /// nothing for a vacant way, so its size follows the lines the
    /// cache holds, not its geometry. Geometry is configuration and the
    /// free list is unspecified; neither is kept.
    pub(crate) fn save(&self) -> L1Record {
        let L1Cache {
            tags,
            meta,
            lru,
            data,
            nsets: _,
            ways: _,
            victim,
            victim_set,
            victim_cap: _,
            unbounded_tmi: _,
            tick,
            spec_touched,
            data_pool: _,
        } = self;
        let resident = || (0..tags.len()).filter(|&i| tags[i] != EMPTY_TAG);
        L1Record {
            materialised: !tags.is_empty(),
            ways: resident()
                .map(|i| WayRecord {
                    way: i as u32,
                    meta: meta[i],
                    tag: tags[i],
                    lru: lru[i],
                })
                .collect(),
            data: resident()
                .filter_map(|i| Some((i as u32, **data[i].as_ref()?)))
                .collect(),
            victim: victim.as_slice().into(),
            victim_set: *victim_set,
            tick: *tick,
            spec_touched: spec_touched.as_slice().into(),
        }
    }

    /// Makes `self` the cache `rec` was saved from, in place. A line
    /// buffer in a way the record has one for is overwritten where it
    /// is; every other buffer goes to the free list, and the record's
    /// missing ones come back out of it — so restoring onto a cache that
    /// last held as many buffers allocates nothing. Vacant ways keep
    /// stale metadata, which nothing reads (see `meta`).
    pub(crate) fn restore(&mut self, rec: &L1Record) {
        let L1Record {
            materialised,
            ways,
            data,
            victim,
            victim_set,
            tick,
            spec_touched,
        } = rec;
        let mut kept = data.iter().map(|&(way, _)| way as usize).peekable();
        for i in 0..self.data.len() {
            if *materialised && kept.next_if_eq(&i).is_some() {
                continue;
            }
            if let Some(d) = self.data[i].take() {
                self.retire_data(d);
            }
        }
        let mut victims = std::mem::take(&mut self.victim);
        for e in victims.drain(..) {
            if let Some(d) = e.data {
                self.retire_data(d);
            }
        }
        self.victim = victims;
        if !materialised {
            self.tags.clear();
            self.meta.clear();
            self.lru.clear();
            self.data.clear();
        } else if self.tags.is_empty() {
            self.materialise();
        } else {
            self.tags.fill(EMPTY_TAG);
        }
        for w in ways {
            let i = w.way as usize;
            self.tags[i] = w.tag;
            self.meta[i] = w.meta;
            self.lru[i] = w.lru;
        }
        for (way, words) in data.iter() {
            let i = *way as usize;
            match &mut self.data[i] {
                Some(d) => **d = *words,
                None => {
                    let mut d = self.alloc_data();
                    *d = *words;
                    self.data[i] = Some(d);
                }
            }
        }
        for e in victim.iter() {
            let data = e.data.as_ref().map(|words| {
                let mut d = self.alloc_data();
                *d = **words;
                d
            });
            self.victim.push(LineEntry { data, ..*e });
        }
        self.victim_set = *victim_set;
        self.tick = *tick;
        self.spec_touched.clear();
        self.spec_touched.extend_from_slice(spec_touched);
    }

    /// True if the cache is in the state [`L1Cache::new`] built: no
    /// plane materialised, nothing in the victim buffer, no access
    /// ever ticked the LRU clock. Exhaustive destructuring, as in
    /// [`L1Cache::assign_for_check`]; the free list is unspecified
    /// contents and the geometry is configuration.
    pub(crate) fn is_pristine(&self) -> bool {
        let L1Cache {
            tags,
            meta,
            lru,
            data,
            nsets: _,
            ways: _,
            victim,
            victim_set,
            victim_cap: _,
            unbounded_tmi: _,
            tick,
            spec_touched,
            data_pool: _,
        } = self;
        tags.is_empty()
            && meta.is_empty()
            && lru.is_empty()
            && data.is_empty()
            && victim.is_empty()
            && *victim_set == [0; 2]
            && *tick == 0
            && spec_touched.is_empty()
    }

    /// Hands out a line data buffer from the free list (or the
    /// allocator when it is dry). Contents are **unspecified** — every
    /// caller fully overwrites the line before it becomes visible.
    pub fn alloc_data(&mut self) -> Box<[u64; WORDS_PER_LINE]> {
        self.data_pool
            .pop()
            .unwrap_or_else(|| Box::new([0; WORDS_PER_LINE]))
    }

    /// Returns a no-longer-needed line buffer to the free list.
    pub fn retire_data(&mut self, data: Box<[u64; WORDS_PER_LINE]>) {
        if self.data_pool.len() < DATA_POOL_CAP {
            self.data_pool.push(data);
        }
    }

    /// Records that `line` may have entered a speculative state via an
    /// in-place transition (speculative fills are recorded
    /// automatically). Flash commit/abort only visit recorded lines.
    pub fn note_speculative(&mut self, line: LineAddr) {
        self.spec_touched.push(line);
    }

    /// Enables the idealized unbounded-TMI victim buffer (§7.3
    /// ablation): speculative lines never overflow, everything else
    /// keeps its normal capacity.
    pub fn set_unbounded_tmi(&mut self, enabled: bool) {
        self.unbounded_tmi = enabled;
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let (nsets, ways) = (self.nsets as usize, self.ways as usize);
        let si = (line.index() as usize) & (nsets - 1);
        si * ways..(si + 1) * ways
    }

    /// Main-array position of `line`, if resident there. `get` makes
    /// the slice bounds check double as the unmaterialised-cache test:
    /// empty planes hold no set, so every lookup misses.
    #[inline]
    fn find_main(&self, line: LineAddr) -> Option<usize> {
        let range = self.set_range(line);
        let base = range.start;
        let i = self
            .tags
            .get(range)?
            .iter()
            .position(|&t| t == line.index())?;
        Some(base + i)
    }

    /// Victim-buffer position of `line`, if resident there — the one
    /// search every lookup falls back to after [`L1Cache::find_main`].
    /// A clear `victim_set` bit proves absence without touching the
    /// buffer.
    #[inline]
    fn find_victim(&self, line: LineAddr) -> Option<usize> {
        let bit = victim_bit(line);
        if self.victim_set[bit / 64] >> (bit % 64) & 1 == 0 {
            return None;
        }
        self.victim.iter().position(|e| e.line == line)
    }

    /// Where `line` is resident, main array first.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<SlotLoc> {
        match self.find_main(line) {
            Some(i) => Some(SlotLoc::Main(i)),
            None => self.find_victim(line).map(SlotLoc::Victim),
        }
    }

    fn push_victim(&mut self, e: LineEntry) {
        let bit = victim_bit(e.line);
        self.victim_set[bit / 64] |= 1 << (bit % 64);
        self.victim.push(e);
    }

    /// Takes the entry at victim-buffer position `pos` out. Another
    /// resident may share its bit, so the set is rebuilt from whoever
    /// is left.
    ///
    /// Out of line on purpose: every caller reaches it on its rare
    /// branch, and with the refold loop inlined into each of them
    /// (flash abort, invalidation, the fill path) the model checker ran
    /// 4 % (`check-wide`) to 9 % (`check-2x1`) slower for code it never
    /// executes.
    #[inline(never)]
    fn remove_victim(&mut self, pos: usize) -> LineEntry {
        let e = self.victim.swap_remove(pos);
        self.refold_victim_set();
        e
    }

    /// Rebuilds `victim_set` from the residents.
    fn refold_victim_set(&mut self) {
        let set = self.fold_victims();
        self.victim_set = [set as u64, (set >> 64) as u64];
    }

    /// What `victim_set` must be: the fold of every victim resident.
    /// Accumulated in one 128-bit register — indexing the two words by
    /// a computed bit number would chain every iteration through a
    /// store and a reload.
    fn fold_victims(&self) -> u128 {
        self.victim
            .iter()
            .fold(0, |set, e| set | 1 << victim_bit(e.line))
    }

    /// Sizes the four planes, all ways vacant (the first fill) —
    /// inside the capacity they kept, for a cache a restore emptied.
    #[cold]
    fn materialise(&mut self) {
        let n = self.nsets as usize * self.ways as usize;
        self.tags.resize(n, EMPTY_TAG);
        self.meta.resize(n, 0);
        self.lru.resize(n, 0);
        self.data.resize_with(n, || None);
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Pulls the line at main-array position `i` out whole, vacating the
    /// way.
    fn extract_main(&mut self, i: usize) -> LineEntry {
        debug_assert_ne!(self.tags[i], EMPTY_TAG, "extract of a vacant way");
        let m = self.meta[i];
        let e = LineEntry {
            line: LineAddr(self.tags[i]),
            state: decode_state(m),
            a_bit: m & A_FLAG != 0,
            data: self.data[i].take(),
            lru: self.lru[i],
        };
        self.tags[i] = EMPTY_TAG;
        e
    }

    /// Looks up `line` and bumps the LRU clock, returning a positional
    /// [`L1Slot`] handle so the caller can come back to the entry
    /// without a second associative search.
    ///
    /// `#[inline]`: with the victim-set test in its miss tail the
    /// function crossed the threshold at which callers in other crates
    /// stopped inlining it, which cost the hit path 0.5 ns a probe.
    #[inline]
    pub fn probe_slot(&mut self, line: LineAddr) -> Option<L1Slot> {
        let tick = self.bump();
        // The main-array hit — the simulator's hottest path — returns
        // before anything about the victim buffer is computed.
        if let Some(i) = self.find_main(line) {
            self.lru[i] = tick;
            return Some(L1Slot {
                loc: SlotLoc::Main(i),
                line,
            });
        }
        // Victim hit: serve in place (cheaper than modeling the swap;
        // the hit latency difference is charged by the machine).
        let pos = self.find_victim(line)?;
        self.victim[pos].lru = tick;
        Some(L1Slot {
            loc: SlotLoc::Victim(pos),
            line,
        })
    }

    /// [`L1Cache::probe_slot`] without the LRU update (used by
    /// responders, which must not perturb the requester-side
    /// replacement order).
    pub fn peek_slot(&self, line: LineAddr) -> Option<L1Slot> {
        self.find(line).map(|loc| L1Slot { loc, line })
    }

    /// Read-only metadata lookup without LRU update (used by responders
    /// and assertions).
    pub fn peek(&self, line: LineAddr) -> Option<LineView> {
        let (state, a_bit) = match self.find(line)? {
            SlotLoc::Main(i) => (decode_state(self.meta[i]), self.meta[i] & A_FLAG != 0),
            SlotLoc::Victim(pos) => (self.victim[pos].state, self.victim[pos].a_bit),
        };
        Some(LineView { line, state, a_bit })
    }

    /// Read-only view of `line`'s private data buffer, if it carries
    /// one (TMI/TI only). No LRU update.
    pub fn peek_data(&self, line: LineAddr) -> Option<&[u64; WORDS_PER_LINE]> {
        match self.find(line)? {
            SlotLoc::Main(i) => self.data[i].as_deref(),
            SlotLoc::Victim(pos) => self.victim[pos].data.as_deref(),
        }
    }

    #[inline]
    fn check_handle(&self, s: L1Slot) {
        match s.loc {
            SlotLoc::Main(i) => {
                debug_assert_eq!(self.tags[i], s.line.index(), "L1 slot handle went stale")
            }
            SlotLoc::Victim(i) => {
                debug_assert_eq!(self.victim[i].line, s.line, "L1 slot handle went stale")
            }
        }
    }

    /// TMESI state behind a slot handle.
    pub fn state(&self, s: L1Slot) -> L1State {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => decode_state(self.meta[i]),
            SlotLoc::Victim(i) => self.victim[i].state,
        }
    }

    /// Rewrites the TMESI state behind a slot handle (the in-place
    /// transition primitive; the A bit is untouched).
    pub fn set_state(&mut self, s: L1Slot, state: L1State) {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => self.meta[i] = (self.meta[i] & A_FLAG) | encode_state(state),
            SlotLoc::Victim(i) => self.victim[i].state = state,
        }
    }

    /// A-bit behind a slot handle.
    pub fn a_bit(&self, s: L1Slot) -> bool {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => self.meta[i] & A_FLAG != 0,
            SlotLoc::Victim(i) => self.victim[i].a_bit,
        }
    }

    /// Sets or clears the A-bit behind a slot handle.
    pub fn set_a_bit(&mut self, s: L1Slot, a_bit: bool) {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => {
                if a_bit {
                    self.meta[i] |= A_FLAG;
                } else {
                    self.meta[i] &= !A_FLAG;
                }
            }
            SlotLoc::Victim(i) => self.victim[i].a_bit = a_bit,
        }
    }

    /// Read-only view of the data buffer behind a slot handle.
    pub fn data(&self, s: L1Slot) -> Option<&[u64; WORDS_PER_LINE]> {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => self.data[i].as_deref(),
            SlotLoc::Victim(i) => self.victim[i].data.as_deref(),
        }
    }

    /// Mutable view of the data buffer behind a slot handle.
    pub fn data_mut(&mut self, s: L1Slot) -> Option<&mut [u64; WORDS_PER_LINE]> {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => self.data[i].as_deref_mut(),
            SlotLoc::Victim(i) => self.victim[i].data.as_deref_mut(),
        }
    }

    /// Detaches and returns the data buffer behind a slot handle.
    pub fn take_data(&mut self, s: L1Slot) -> Option<Box<[u64; WORDS_PER_LINE]>> {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => self.data[i].take(),
            SlotLoc::Victim(i) => self.victim[i].data.take(),
        }
    }

    /// Attaches `data` behind a slot handle, returning whatever buffer
    /// it displaced (for the caller to retire).
    pub fn put_data(
        &mut self,
        s: L1Slot,
        data: Box<[u64; WORDS_PER_LINE]>,
    ) -> Option<Box<[u64; WORDS_PER_LINE]>> {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => self.data[i].replace(data),
            SlotLoc::Victim(i) => self.victim[i].data.replace(data),
        }
    }

    /// Installs `line` in `state`, returning what (if anything) had to
    /// be evicted to make room. At most one line ever leaves per fill:
    /// either the set's LRU line goes straight out (no victim buffer),
    /// or it parks in the victim buffer and at most one older resident
    /// falls out of that.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (callers must transition
    /// existing entries in place).
    pub fn fill(&mut self, line: LineAddr, state: L1State) -> Option<Evicted> {
        self.fill_slot(line, state).1
    }

    /// [`L1Cache::fill`], additionally returning a handle to the
    /// freshly installed entry (always in the main array) so callers
    /// that immediately attach data avoid re-searching the set.
    pub fn fill_slot(&mut self, line: LineAddr, state: L1State) -> (L1Slot, Option<Evicted>) {
        if self.tags.is_empty() {
            self.materialise();
        }
        // One pass over the set answers both questions a fill asks of
        // it: is the line already here, and which way is free.
        let range = self.set_range(line);
        let base = range.start;
        let mut free = None;
        for (i, &t) in self.tags[range.clone()].iter().enumerate() {
            assert!(t != line.index(), "fill of already-present line {line}");
            if t == EMPTY_TAG && free.is_none() {
                free = Some(i);
            }
        }
        assert!(
            self.find_victim(line).is_none(),
            "fill of already-present line {line}"
        );
        let tick = self.bump();
        if state.is_speculative() {
            self.spec_touched.push(line);
        }
        let mut evicted = None;
        let slot = if let Some(free) = free {
            base + free
        } else {
            // Evict LRU from the set into the victim buffer. ALoaded
            // lines are pinned (the simplified one-line AOU of §3.4
            // keeps the marked line resident); fall back to evicting a
            // marked line — with the conservative alert — only when the
            // whole set is marked.
            let lru_pos = self.pick_victim(range);
            let victim_line = self.extract_main(lru_pos);
            let cap = self.victim_cap as usize;
            if cap == 0 && !(self.unbounded_tmi && victim_line.state == L1State::Tmi) {
                evicted = Some(self.classify_eviction(victim_line));
            } else {
                let over_cap = if self.unbounded_tmi {
                    // Only non-speculative residents count against the
                    // capacity; TMI lines park for free (idealized).
                    victim_line.state != L1State::Tmi
                        && self
                            .victim
                            .iter()
                            .filter(|e| e.state != L1State::Tmi)
                            .count()
                            >= cap.max(1)
                } else {
                    self.victim.len() >= cap
                };
                if over_cap {
                    // Allocation-free candidate scan (this runs on
                    // every over-capacity eviction): TMI residents are
                    // exempt in unbounded mode, ALoaded lines only go
                    // when nothing else can. Ascending index order
                    // keeps `min_by_key` tie-breaking identical to the
                    // old materialized candidate list.
                    let unbounded = self.unbounded_tmi;
                    let vb = &self.victim;
                    let candidates =
                        || (0..vb.len()).filter(|&i| !unbounded || vb[i].state != L1State::Tmi);
                    let vb_pos = candidates()
                        .filter(|&i| !vb[i].a_bit)
                        .min_by_key(|&i| vb[i].lru)
                        .or_else(|| candidates().min_by_key(|&i| vb[i].lru))
                        .expect("victim buffer over capacity implies a candidate");
                    let out = self.remove_victim(vb_pos);
                    evicted = Some(self.classify_eviction(out));
                }
                self.push_victim(victim_line);
            }
            lru_pos
        };
        self.tags[slot] = line.index();
        self.meta[slot] = encode_state(state);
        self.lru[slot] = tick;
        debug_assert!(self.data[slot].is_none(), "vacant way carried data");
        (
            L1Slot {
                loc: SlotLoc::Main(slot),
                line,
            },
            evicted,
        )
    }

    /// LRU victim among unmarked lines; a marked (ALoaded) line only
    /// when nothing else is available. Returns an absolute main-array
    /// position within the (fully occupied) set.
    fn pick_victim(&self, range: std::ops::Range<usize>) -> usize {
        debug_assert!(
            self.tags[range.clone()].iter().all(|&t| t != EMPTY_TAG),
            "victim selection on a set with free ways"
        );
        range
            .clone()
            .filter(|&i| self.meta[i] & A_FLAG == 0)
            .min_by_key(|&i| self.lru[i])
            .or_else(|| range.min_by_key(|&i| self.lru[i]))
            .expect("victim selection on empty entry list")
    }

    /// What leaving the cache means for `e`, by state; a silently
    /// dropped line's buffer is recycled here.
    pub(crate) fn classify_eviction(&mut self, e: LineEntry) -> Evicted {
        match e.state {
            L1State::M => Evicted::WritebackM(e.line, e.a_bit),
            L1State::Tmi => Evicted::OverflowTmi(
                e.line,
                e.data.expect("TMI line must carry speculative data"),
            ),
            s => {
                // A silently dropped TI line gives its snapshot buffer
                // back to the pool.
                if let Some(d) = e.data {
                    self.retire_data(d);
                }
                Evicted::Silent(e.line, s, e.a_bit)
            }
        }
    }

    /// Removes `line` entirely (invalidation). Returns the removed
    /// entry, if any.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineEntry> {
        self.peek_slot(line).map(|s| self.invalidate_slot(s))
    }

    /// Removes the entry behind a slot handle — [`L1Cache::invalidate`]
    /// for callers that already looked the line up.
    pub fn invalidate_slot(&mut self, s: L1Slot) -> LineEntry {
        self.check_handle(s);
        match s.loc {
            SlotLoc::Main(i) => self.extract_main(i),
            SlotLoc::Victim(pos) => self.remove_victim(pos),
        }
    }

    /// Flash commit (CAS-Commit success): every `TMI` line reverts to
    /// `M` and every `TI` line to `I`. Returns the speculative data of
    /// all TMI lines so the machine can propagate it to memory.
    pub fn flash_commit(&mut self) -> Vec<(LineAddr, Box<[u64; WORDS_PER_LINE]>)> {
        let mut committed = Vec::new();
        self.flash_commit_into(&mut committed);
        committed
    }

    /// [`L1Cache::flash_commit`] appending into a caller-provided (and
    /// caller-recycled) buffer, so steady-state commits allocate
    /// nothing. `out` is not cleared first.
    pub fn flash_commit_into(&mut self, out: &mut Vec<(LineAddr, Box<[u64; WORDS_PER_LINE]>)>) {
        let mut spec = std::mem::take(&mut self.spec_touched);
        let first = out.len();
        for &line in &spec {
            // Notes can be stale (evicted, overflowed, already visited
            // through a duplicate) — only the current state decides.
            // One slot lookup serves both the state test and the drain.
            let Some(s) = self.peek_slot(line) else {
                continue;
            };
            match self.state(s) {
                L1State::Tmi => {
                    let data = self.take_data(s).expect("TMI line must carry data");
                    out.push((line, data));
                    self.set_state(s, L1State::M);
                }
                L1State::Ti => {
                    if let Some(d) = self.invalidate_slot(s).data {
                        self.retire_data(d);
                    }
                }
                _ => {}
            }
        }
        self.debug_assert_no_speculative();
        out[first..].sort_by_key(|(l, _)| l.index());
        // Keep the note list's allocation for the next transaction.
        spec.clear();
        self.spec_touched = spec;
    }

    /// Flash abort (CAS-Commit failure or explicit abort): `TMI` and
    /// `TI` lines are dropped. Returns the number of lines discarded.
    pub fn flash_abort(&mut self) -> usize {
        let mut spec = std::mem::take(&mut self.spec_touched);
        let mut n = 0;
        for &line in &spec {
            // One lookup serves the state test and the removal.
            let Some(s) = self.peek_slot(line) else {
                continue;
            };
            if self.state(s).is_speculative() {
                if let Some(d) = self.invalidate_slot(s).data {
                    self.retire_data(d);
                }
                n += 1;
            }
        }
        self.debug_assert_no_speculative();
        spec.clear();
        self.spec_touched = spec;
        n
    }

    /// Every speculative transition must be on the `spec_touched` list;
    /// a missed `note_speculative` would leave zombie TMI/TI lines
    /// behind a flash operation. Debug builds sweep to prove the list
    /// was complete.
    fn debug_assert_no_speculative(&self) {
        debug_assert_eq!(
            self.count_state(L1State::Tmi) + self.count_state(L1State::Ti),
            0,
            "speculative line missed by the spec_touched list"
        );
    }

    /// Drains every TMI line (cache and victim buffer) with its data —
    /// the context-switch path that merges speculative state into the
    /// overflow table (paper §5).
    pub fn drain_tmi(&mut self) -> Vec<(LineAddr, Box<[u64; WORDS_PER_LINE]>)> {
        let mut out = Vec::new();
        for i in 0..self.tags.len() {
            if self.tags[i] != EMPTY_TAG && decode_state(self.meta[i]) == L1State::Tmi {
                let e = self.extract_main(i);
                out.push((e.line, e.data.expect("TMI line must carry data")));
            }
        }
        let mut i = 0;
        while i < self.victim.len() {
            if self.victim[i].state == L1State::Tmi {
                let e = self.victim.swap_remove(i);
                out.push((e.line, e.data.expect("TMI line must carry data")));
            } else {
                i += 1;
            }
        }
        self.refold_victim_set();
        out.sort_by_key(|(l, _)| l.index());
        out
    }

    /// Iterates over every resident line's metadata (main array +
    /// victim buffer), by value.
    pub fn iter_all(&self) -> impl Iterator<Item = LineView> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != EMPTY_TAG)
            .map(|(i, &t)| LineView {
                line: LineAddr(t),
                state: decode_state(self.meta[i]),
                a_bit: self.meta[i] & A_FLAG != 0,
            })
            .chain(self.victim.iter().map(|e| LineView {
                line: e.line,
                state: e.state,
                a_bit: e.a_bit,
            }))
    }

    /// The victim buffer's residents, for tests that must know a line
    /// has left the main array.
    pub fn victims(&self) -> &[LineEntry] {
        &self.victim
    }

    /// Number of resident lines in a given state.
    pub fn count_state(&self, state: L1State) -> usize {
        self.iter_all().filter(|e| e.state == state).count()
    }

    /// Total resident lines.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY_TAG).count() + self.victim.len()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache-internal invariants for the processor `me` that owns this
    /// L1: a line is resident at most once (main array + victim buffer
    /// form one cache) and, in the main array, only in its home set; a
    /// private data buffer exists iff the line is in
    /// a PDI state (TMI holds speculative values, TI a pre-transaction
    /// snapshot; everything else reads through simulated memory), the
    /// data plane carries nothing for vacant ways, and the victim
    /// buffer respects its capacity (modulo the §7.3 unbounded-TMI
    /// ablation, where only non-speculative residents count). The four
    /// planes are all unmaterialised or all `sets × ways` long, and
    /// `victim_set` is exactly the fold of the victim residents — a
    /// stray clear bit would hide a resident line from every lookup.
    pub fn check_invariants(&self, me: usize) {
        let n = self.tags.len();
        let all_ways = self.nsets as usize * self.ways as usize;
        assert!(
            (n == all_ways || (n == 0 && self.victim.is_empty()))
                && [self.meta.len(), self.lru.len(), self.data.len()] == [n; 3],
            "core {me}: L1 planes materialised unevenly ({n}/{}/{}/{} of {all_ways} ways, {} victims)",
            self.meta.len(),
            self.lru.len(),
            self.data.len(),
            self.victim.len()
        );
        assert_eq!(
            u128::from(self.victim_set[0]) | u128::from(self.victim_set[1]) << 64,
            self.fold_victims(),
            "core {me}: victim set is not the fold of the {} victim residents",
            self.victim.len()
        );
        for i in 0..self.tags.len() {
            if self.tags[i] == EMPTY_TAG {
                assert!(
                    self.data[i].is_none(),
                    "core {me}: vacant way {i} holds a data buffer"
                );
                continue;
            }
            let line = LineAddr(self.tags[i]);
            // Unique residency without a set of seen lines: a line in
            // the main array sits in its home set, so a second copy
            // can only be an earlier way of that set — or a victim,
            // checked against the whole array below.
            let set = self.set_range(line);
            assert!(
                set.contains(&i),
                "core {me}: line {line:?} sits in way {i}, outside its set {set:?}"
            );
            assert!(
                !self.tags[set.start..i].contains(&line.index()),
                "core {me}: line {line:?} resident twice in L1"
            );
            let state = decode_state(self.meta[i]);
            assert_eq!(
                self.data[i].is_some(),
                state.is_speculative(),
                "core {me}: line {line:?} in {state:?} has data buffer: {}",
                self.data[i].is_some()
            );
        }
        for (pos, e) in self.victim.iter().enumerate() {
            assert!(
                self.find_main(e.line).is_none()
                    && self.victim[..pos].iter().all(|v| v.line != e.line),
                "core {me}: line {:?} resident twice in L1",
                e.line
            );
            assert_eq!(
                e.data.is_some(),
                e.state.is_speculative(),
                "core {me}: line {:?} in {:?} has data buffer: {}",
                e.line,
                e.state,
                e.data.is_some()
            );
        }
        if self.unbounded_tmi {
            let non_tmi = self
                .victim
                .iter()
                .filter(|e| e.state != L1State::Tmi)
                .count();
            assert!(
                non_tmi <= (self.victim_cap as usize).max(1),
                "core {me}: {non_tmi} non-TMI victim residents exceed cap {}",
                self.victim_cap
            );
        } else {
            assert!(
                self.victim.len() <= self.victim_cap as usize,
                "core {me}: victim buffer holds {} entries, cap {}",
                self.victim.len(),
                self.victim_cap
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr(i)
    }

    fn cache() -> L1Cache {
        L1Cache::new(4, 2, 2)
    }

    /// Attaches a data buffer to a resident line (test shorthand for
    /// the probe-then-put ritual).
    fn attach(c: &mut L1Cache, l: LineAddr, word0: u64) {
        let s = c.peek_slot(l).expect("line resident");
        let old = c.put_data(s, Box::new([word0; WORDS_PER_LINE]));
        assert!(old.is_none(), "line already carried data");
    }

    #[test]
    fn fill_then_probe_hits() {
        let mut c = cache();
        assert!(c.fill(line(1), L1State::S).is_none());
        let s = c.probe_slot(line(1)).unwrap();
        assert_eq!(c.state(s), L1State::S);
        assert!(c.probe_slot(line(2)).is_none());
    }

    #[test]
    fn eviction_goes_through_victim_buffer() {
        let mut c = L1Cache::new(1, 1, 1);
        c.fill(line(0), L1State::S);
        let ev = c.fill(line(1), L1State::S); // 0 -> victim buffer
        assert!(ev.is_none());
        assert!(
            c.probe_slot(line(0)).is_some(),
            "line 0 should be in the VB"
        );
        let ev = c.fill(line(2), L1State::S); // 1 -> VB, 0 falls out
        assert!(matches!(ev, Some(Evicted::Silent(l, L1State::S, false)) if l == line(0)));
    }

    #[test]
    fn m_eviction_is_writeback() {
        let mut c = L1Cache::new(1, 1, 0);
        c.fill(line(0), L1State::M);
        let ev = c.fill(line(1), L1State::S);
        assert!(matches!(ev, Some(Evicted::WritebackM(l, false)) if l == line(0)));
    }

    #[test]
    fn tmi_eviction_is_overflow_with_data() {
        let mut c = L1Cache::new(1, 1, 0);
        c.fill(line(0), L1State::Tmi);
        attach(&mut c, line(0), 7);
        let ev = c.fill(line(1), L1State::S);
        match &ev {
            Some(Evicted::OverflowTmi(l, data)) => {
                assert_eq!(*l, line(0));
                assert_eq!(data[0], 7);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn flash_commit_promotes_tmi_and_drops_ti() {
        let mut c = cache();
        c.fill(line(1), L1State::Tmi);
        attach(&mut c, line(1), 3);
        c.fill(line(2), L1State::Ti);
        c.fill(line(3), L1State::S);
        let committed = c.flash_commit();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, line(1));
        assert_eq!(c.peek(line(1)).unwrap().state, L1State::M);
        assert!(c.peek(line(2)).is_none(), "TI must drop on commit");
        assert_eq!(c.peek(line(3)).unwrap().state, L1State::S);
    }

    #[test]
    fn flash_abort_drops_both_speculative_states() {
        let mut c = cache();
        c.fill(line(1), L1State::Tmi);
        attach(&mut c, line(1), 0);
        c.fill(line(2), L1State::Ti);
        c.fill(line(3), L1State::M);
        assert_eq!(c.flash_abort(), 2);
        assert!(c.peek(line(1)).is_none());
        assert!(c.peek(line(2)).is_none());
        assert_eq!(c.peek(line(3)).unwrap().state, L1State::M);
    }

    #[test]
    fn drain_tmi_takes_cache_and_victim_copies() {
        let mut c = L1Cache::new(1, 1, 2);
        c.fill(line(0), L1State::Tmi);
        attach(&mut c, line(0), 1);
        c.fill(line(1), L1State::Tmi); // pushes 0 into VB
        attach(&mut c, line(1), 2);
        let drained = c.drain_tmi();
        assert_eq!(drained.len(), 2);
        assert_eq!(c.count_state(L1State::Tmi), 0);
    }

    #[test]
    fn invalidate_removes_from_victim_too() {
        let mut c = L1Cache::new(1, 1, 2);
        c.fill(line(0), L1State::S);
        c.fill(line(1), L1State::S);
        assert!(c.invalidate(line(0)).is_some());
        assert!(c.peek(line(0)).is_none());
    }

    #[test]
    fn unbounded_victim_buffer_never_overflows() {
        let mut c = L1Cache::new(1, 1, usize::MAX);
        let mut evictions = 0;
        for i in 0..100 {
            evictions += usize::from(c.fill(line(i), L1State::Tmi).is_some());
            attach(&mut c, line(i), 0);
        }
        assert_eq!(evictions, 0);
        assert_eq!(c.count_state(L1State::Tmi), 100);
    }

    #[test]
    fn slot_handles_reach_the_same_entry_in_both_locations() {
        let mut c = L1Cache::new(1, 1, 2);
        c.fill(line(0), L1State::S);
        c.fill(line(1), L1State::S); // 0 -> victim buffer
        let main = c.probe_slot(line(1)).expect("main-array hit");
        assert_eq!(c.state(main), L1State::S);
        c.set_state(main, L1State::M);
        assert_eq!(c.peek(line(1)).unwrap().state, L1State::M);
        let vb = c.probe_slot(line(0)).expect("victim-buffer hit");
        c.set_a_bit(vb, true);
        assert!(c.peek(line(0)).unwrap().a_bit);
        assert!(c.a_bit(vb));
        assert!(c.probe_slot(line(9)).is_none());
    }

    #[test]
    fn set_state_preserves_a_bit() {
        let mut c = cache();
        c.fill(line(1), L1State::E);
        let s = c.peek_slot(line(1)).unwrap();
        c.set_a_bit(s, true);
        c.set_state(s, L1State::M);
        let v = c.peek(line(1)).unwrap();
        assert_eq!(v.state, L1State::M);
        assert!(v.a_bit, "in-place transition must not clear the A bit");
    }

    #[test]
    fn probe_slot_bumps_lru_but_peek_slot_does_not() {
        // probe_slot refreshes replacement order (line 0 becomes MRU,
        // so line 1 is evicted) …
        let mut a = L1Cache::new(1, 2, 0);
        a.fill(line(0), L1State::S);
        a.fill(line(1), L1State::S);
        let _ = a.probe_slot(line(0));
        let ev = a.fill(line(2), L1State::S);
        assert!(matches!(ev, Some(Evicted::Silent(l, _, _)) if l == line(1)));
        // … while peek_slot leaves it untouched (line 0 stays LRU).
        let mut b = L1Cache::new(1, 2, 0);
        b.fill(line(0), L1State::S);
        b.fill(line(1), L1State::S);
        let _ = b.peek_slot(line(0));
        let ev = b.fill(line(2), L1State::S);
        assert!(matches!(ev, Some(Evicted::Silent(l, _, _)) if l == line(0)));
    }

    #[test]
    fn peek_data_reads_both_planes() {
        let mut c = L1Cache::new(1, 1, 2);
        c.fill(line(0), L1State::Tmi);
        attach(&mut c, line(0), 11);
        c.fill(line(1), L1State::Tmi); // pushes 0 into VB
        attach(&mut c, line(1), 22);
        assert_eq!(c.peek_data(line(0)).unwrap()[0], 11, "victim-buffer data");
        assert_eq!(c.peek_data(line(1)).unwrap()[0], 22, "main-array data");
        assert!(c.peek_data(line(7)).is_none());
        c.fill(line(2), L1State::S);
        assert!(c.peek_data(line(2)).is_none(), "S lines carry no buffer");
    }

    #[test]
    fn data_pool_recycles_buffers() {
        let mut c = cache();
        let mut d = c.alloc_data();
        d[0] = 77;
        c.retire_data(d);
        let d2 = c.alloc_data();
        assert_eq!(d2[0], 77, "expected the recycled buffer back");
        // Ti invalidation on flash_commit feeds the pool too.
        c.fill(line(2), L1State::Ti);
        let s = c.peek_slot(line(2)).unwrap();
        c.put_data(s, d2);
        c.flash_commit();
        assert_eq!(c.alloc_data()[0], 77);
    }

    /// Everything an observer can ask of a cache that holds no line.
    fn observe(c: &mut L1Cache, probes: &[LineAddr]) -> String {
        let mut out = String::new();
        for &l in probes {
            let probed = c.probe_slot(l).map(|s| c.state(s));
            let peeked = c.peek_slot(l).map(|s| c.state(s));
            out += &format!("{probed:?} {peeked:?} {:?} {:?}", c.peek(l), c.peek_data(l));
            out += &format!(" {:?};", c.invalidate(l).map(|e| e.line));
        }
        let mut committed = Vec::new();
        c.flash_commit_into(&mut committed);
        out += &format!(
            "{:?} {} {} {:?} {} {:?} {}",
            c.iter_all().collect::<Vec<_>>(),
            c.len(),
            c.is_empty(),
            committed,
            c.flash_abort(),
            c.drain_tmi(),
            c.count_state(L1State::S),
        );
        c.check_invariants(0);
        out
    }

    #[test]
    fn an_unmaterialised_cache_is_an_empty_cache() {
        let probes = [line(0), line(1), line(5), line(u64::MAX >> 8)];
        let mut fresh = cache();
        assert!(fresh.tags.is_empty(), "a new cache owns no plane");
        // The reference: same geometry, planes materialised by fills
        // into two sets (one through the victim buffer), then emptied.
        let mut emptied = cache();
        for i in [0, 4, 8, 1] {
            emptied.fill(line(i), L1State::S);
        }
        for i in [0, 4, 8, 1] {
            assert!(emptied.invalidate(line(i)).is_some());
        }
        assert_eq!(emptied.tags.len(), 4 * 2, "the reference is materialised");
        assert_eq!(observe(&mut fresh, &probes), observe(&mut emptied, &probes));
        assert!(
            fresh.tags.is_empty() && fresh.data.is_empty(),
            "no read path, flash operation or sweep materialises a plane"
        );
        // The one difference is replacement age, which nothing reads
        // until a fill: both caches then evict in the same order.
        for c in [&mut fresh, &mut emptied] {
            // Two ways plus two victim entries hold set 0's first four.
            assert!((0..4).all(|i| c.fill(line(4 * i), L1State::S).is_none()));
            assert!(matches!(
                c.fill(line(16), L1State::S),
                Some(Evicted::Silent(l, L1State::S, false)) if l == line(0)
            ));
        }
    }

    #[test]
    fn first_fill_materialises_all_four_planes() {
        let mut c = L1Cache::new(8, 4, 2);
        c.check_invariants(0);
        let (slot, ev) = c.fill_slot(line(3), L1State::Tmi);
        assert!(ev.is_none());
        let n = 8 * 4;
        assert_eq!(
            [c.tags.len(), c.meta.len(), c.lru.len(), c.data.len()],
            [n; 4]
        );
        assert_eq!(c.tags.iter().filter(|&&t| t != EMPTY_TAG).count(), 1);
        assert!(c.data.iter().all(Option::is_none));
        assert_eq!(c.state(slot), L1State::Tmi);
        assert_eq!(c.len(), 1);
        attach(&mut c, line(3), 9);
        c.check_invariants(0);
        // The record of a never-filled cache owns nothing.
        assert_eq!(L1Cache::new(8, 4, 2).save().heap_bytes(), 0);
    }

    /// xorshift64*, as in the other seeded suites.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    /// The reference the victim set is tested against: an unordered
    /// list that is scanned end to end and never asks the cache where
    /// anything is. A line is resident from its fill until the cache
    /// hands it back — invalidated, reported evicted, dropped by a
    /// flash operation, or drained.
    struct Resident(Vec<(LineAddr, L1State)>);

    impl Resident {
        fn state(&self, l: LineAddr) -> Option<L1State> {
            self.0.iter().find(|e| e.0 == l).map(|e| e.1)
        }

        fn remove(&mut self, l: LineAddr) -> Option<L1State> {
            let pos = self.0.iter().position(|e| e.0 == l)?;
            Some(self.0.swap_remove(pos).1)
        }

        /// Removes and returns the lines in any of `states`, ascending.
        fn drop_states(&mut self, states: &[L1State]) -> Vec<LineAddr> {
            let mut gone: Vec<_> = self.0.iter().filter(|e| states.contains(&e.1)).collect();
            gone.sort_by_key(|e| e.0.index());
            let gone: Vec<_> = gone.into_iter().map(|e| e.0).collect();
            self.0.retain(|e| !states.contains(&e.1));
            gone
        }
    }

    /// Fill / probe / invalidate / A-bit / flash-commit / flash-abort /
    /// drain churn over a universe built to collide: three sets (two
    /// of which share a victim-set bit once `nsets` exceeds 128, the
    /// third in the set's other word), and per set 48 tags of which
    /// each has a partner 128 lines away.
    fn churn(nsets: usize, victim_cap: usize, unbounded_tmi: bool, seed: u64) {
        let what = format!("{nsets} sets, victim cap {victim_cap}, unbounded {unbounded_tmi}");
        let mut rng = Rng(seed);
        let mut c = L1Cache::new(nsets, 2, victim_cap);
        c.set_unbounded_tmi(unbounded_tmi);
        let universe: Vec<LineAddr> = [1, 129, 67]
            .iter()
            .flat_map(|set| {
                let per_128 = (128 / nsets).max(1);
                (0..48).map(move |k| (set % nsets + nsets * (k % 24 + k / 24 * per_128)) as u64)
            })
            .map(line)
            .collect();
        let states = [
            L1State::M,
            L1State::E,
            L1State::S,
            L1State::Tmi,
            L1State::Ti,
        ];
        let mut oracle = Resident(Vec::new());
        let mut victim_hits = 0;
        for step in 0..3000 {
            let l = universe[rng.below(universe.len())];
            let held = oracle.state(l);
            match (rng.below(20), held) {
                // Not in the unbounded ablation, whose capacity clause
                // in `check_invariants` holds only until a commit
                // promotes parked TMI lines to M in place; it aborts.
                (0, _) if !unbounded_tmi => {
                    let committed: Vec<_> = c.flash_commit().into_iter().map(|(l, _)| l).collect();
                    assert_eq!(committed, oracle.drop_states(&[L1State::Tmi]), "{what}");
                    oracle.0.extend(committed.iter().map(|&l| (l, L1State::M)));
                    oracle.drop_states(&[L1State::Ti]);
                }
                (0 | 1, _) => {
                    let dropped = oracle.drop_states(&[L1State::Tmi, L1State::Ti]);
                    assert_eq!(c.flash_abort(), dropped.len(), "{what}, step {step}");
                }
                (2, _) => {
                    let drained: Vec<_> = c.drain_tmi().into_iter().map(|(l, _)| l).collect();
                    assert_eq!(drained, oracle.drop_states(&[L1State::Tmi]), "{what}");
                }
                (3..=6, _) => {
                    let gone = c.invalidate(l).map(|e| e.state);
                    assert_eq!(
                        gone,
                        oracle.remove(l),
                        "{what}, step {step}: invalidate {l}"
                    );
                }
                (7, Some(_)) => {
                    let s = c.peek_slot(l).expect("resident per the oracle");
                    c.set_a_bit(s, !c.a_bit(s));
                }
                (_, Some(state)) => {
                    let s = c.probe_slot(l).expect("resident per the oracle");
                    assert_eq!(c.state(s), state, "{what}, step {step}: probe {l}");
                    victim_hits += usize::from(matches!(s.loc, SlotLoc::Victim(_)));
                }
                (_, None) => {
                    let state = states[rng.below(states.len())];
                    let (s, evicted) = c.fill_slot(l, state);
                    if state.is_speculative() {
                        let d = c.alloc_data();
                        assert!(c.put_data(s, d).is_none());
                    }
                    oracle.0.push((l, state));
                    let out = evicted.map(|ev| match ev {
                        Evicted::Silent(out, s, _) => (out, s),
                        Evicted::WritebackM(out, _) => (out, L1State::M),
                        Evicted::OverflowTmi(out, _) => (out, L1State::Tmi),
                    });
                    if let Some((out, out_state)) = out {
                        assert_eq!(oracle.remove(out), Some(out_state), "{what}: evicted {out}");
                    }
                }
            }
            c.check_invariants(0);
            assert_eq!(c.len(), oracle.0.len(), "{what}, step {step}");
            for &l in &universe {
                let want = oracle.state(l);
                assert_eq!(c.peek(l).map(|v| v.state), want, "{what}, step {step}: {l}");
                assert_eq!(c.peek_slot(l).map(|s| c.state(s)), want);
                assert_eq!(
                    c.peek_data(l).is_some(),
                    want.is_some_and(L1State::is_speculative)
                );
            }
        }
        assert_eq!(
            victim_hits > 0,
            victim_cap > 0,
            "{what}: victim-buffer hits"
        );
    }

    #[test]
    fn lookups_match_a_linear_scan_under_churn() {
        for nsets in [4, 128, 512] {
            for (victim_cap, unbounded_tmi) in [(0, false), (2, false), (32, false), (2, true)] {
                churn(nsets, victim_cap, unbounded_tmi, 0xF1E7 + nsets as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_fill_panics() {
        let mut c = cache();
        c.fill(line(1), L1State::S);
        c.fill(line(1), L1State::E);
    }
}
