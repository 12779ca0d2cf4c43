//! Simulated physical memory and the heap used to build workload data
//! structures inside it.
//!
//! Memory is a sparse, page-granular array of 64-bit words. All
//! committed (architecturally visible) data lives here; speculative data
//! lives in L1 TMI lines or the overflow table until commit.

use flextm_sig::{LineAddr, LINE_BYTES};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Words per 64-byte cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / 8) as usize;

/// A word-aligned simulated byte address.
///
/// The simulator's "ISA" operates on 64-bit words, so addresses handed
/// to `load`/`store` must be 8-byte aligned. [`Addr::offset`] steps in
/// words, which is how workload data structures index their fields.
///
/// # Example
///
/// ```
/// use flextm_sim::Addr;
/// let base = Addr::new(0x1000);
/// assert_eq!(base.offset(2).raw(), 0x1010);
/// assert_eq!(base.line().byte_addr(), 0x1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// A sentinel null address; the heap never allocates at 0.
    pub const NULL: Addr = Addr(0);

    /// Creates an address.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not 8-byte aligned.
    #[inline]
    pub fn new(raw: u64) -> Self {
        assert_eq!(raw % 8, 0, "address {raw:#x} is not word aligned");
        Addr(raw)
    }

    /// The raw byte address.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The address `words` 64-bit words after `self`.
    #[inline]
    pub fn offset(self, words: u64) -> Addr {
        Addr(self.0 + words * 8)
    }

    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr::from_byte_addr(self.0)
    }

    /// Index of this word within its cache line (0..8).
    #[inline]
    pub fn word_in_line(self) -> usize {
        ((self.0 % LINE_BYTES) / 8) as usize
    }

    /// True if this is the null sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

const PAGE_WORDS: usize = 512; // 4 KiB pages

/// Multiply-shift hasher for page numbers. Every simulated memory
/// access hashes a page key; pages are small dense integers, and the
/// default SipHash costs more than the table probe itself. Fixed
/// multiplier (no random seed), so the map is deterministic across
/// runs.
#[derive(Debug, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // FNV fallback; only reached if a non-u64 key is ever hashed.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiply, then rotate so the table's low index bits
        // come from the high (well-mixed) half of the product.
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(32);
    }
}

/// Sparse simulated memory: committed word values, allocated on demand.
#[derive(Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u64; PAGE_WORDS]>, BuildHasherDefault<PageHasher>>,
}

impl Memory {
    /// Creates empty memory (all words read as 0).
    pub fn new() -> Self {
        Memory::default()
    }

    fn split(addr: Addr) -> (u64, usize) {
        let word = addr.raw() / 8;
        (
            word / PAGE_WORDS as u64,
            (word % PAGE_WORDS as u64) as usize,
        )
    }

    /// Reads the committed value of the word at `addr` (0 if untouched).
    pub fn read(&self, addr: Addr) -> u64 {
        let (page, off) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes the committed value of the word at `addr`.
    pub fn write(&mut self, addr: Addr, value: u64) {
        let (page, off) = Self::split(addr);
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]))[off] = value;
    }

    /// Reads a whole cache line (used to fill TI snapshots and TMI
    /// buffers). A line never straddles a page, so this is a single
    /// page probe, not one per word.
    pub fn read_line(&self, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        let (page, off) = Self::split(Addr::new(line.byte_addr()));
        match self.pages.get(&page) {
            Some(p) => std::array::from_fn(|i| p[off + i]),
            None => [0; WORDS_PER_LINE],
        }
    }

    /// Writes a whole cache line (commit of a TMI line or OT copy-back).
    pub fn write_line(&mut self, line: LineAddr, data: &[u64; WORDS_PER_LINE]) {
        let (page, off) = Self::split(Addr::new(line.byte_addr()));
        let p = self
            .pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]));
        p[off..off + WORDS_PER_LINE].copy_from_slice(data);
    }

    /// Writes memory's record into `rec` in place: its non-zero words,
    /// as `(word index, value)`.
    pub(crate) fn record(&self, rec: &mut MemRecord) {
        let Memory { pages } = self;
        rec.words.clear();
        rec.words.extend(pages.iter().flat_map(|(&page, words)| {
            (0..PAGE_WORDS)
                .filter(|&off| words[off] != 0)
                .map(move |off| (page * PAGE_WORDS as u64 + off as u64, words[off]))
        }));
    }

    /// Makes `self` read as the memory `rec` was written from, in place:
    /// every page is zeroed, then the record's words are written back.
    /// A page the record has no word on stays allocated, all zero —
    /// which reads as the absent page it stands for — so restoring onto
    /// a memory that last held the same pages allocates nothing.
    pub(crate) fn restore(&mut self, rec: &MemRecord) {
        let MemRecord { words } = rec;
        for page in self.pages.values_mut() {
            page.fill(0);
        }
        for &(word, value) in words.iter() {
            self.write(Addr::new(word * 8), value);
        }
    }

    /// Base byte addresses of every touched 4 KiB page, ascending.
    /// The workload harness uses this for functional cache warming:
    /// sweeping all live data once before timing removes cold-miss
    /// noise from short measured regions.
    pub fn touched_page_addrs(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self
            .pages
            .keys()
            .map(|&p| p * PAGE_WORDS as u64 * 8)
            .collect();
        pages.sort_unstable();
        pages
    }
}

/// [`Memory`] as a kept model-checker state stores it
/// ([`Memory::record`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct MemRecord {
    words: Vec<(u64, u64)>,
}

impl MemRecord {
    /// Bytes the record owns on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

/// Size of each per-thread heap arena, in bytes (1 GiB of address space;
/// the backing store is sparse so this costs nothing).
pub const ARENA_BYTES: u64 = 1 << 30;

/// Base of the heap region (keeps low addresses free for globals and
/// descriptors).
pub const HEAP_BASE: u64 = 1 << 20;

/// A deterministic bump allocator over a private slice of the simulated
/// address space.
///
/// Each simulated thread gets its own arena
/// ([`Heap::arena`]), so allocation order in one thread can never
/// perturb addresses handed out in another — a requirement for
/// reproducible multi-threaded runs.
#[derive(Debug)]
pub struct Arena {
    next: u64,
    end: u64,
}

impl Arena {
    /// Allocates `words` 64-bit words, line-aligned when `words` spans
    /// at least a line, and returns the base address.
    ///
    /// # Panics
    ///
    /// Panics when the arena is exhausted (1 GiB of address space —
    /// indicates a runaway workload).
    pub fn alloc(&mut self, words: u64) -> Addr {
        assert!(words > 0, "zero-size allocation");
        // Line-align every allocation: keeps distinct objects on
        // distinct cache lines, which matches how the paper's workloads
        // pad tree/list nodes (e.g. 256-byte RBTree nodes).
        let bytes = words * 8;
        let aligned = (self.next + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        assert!(
            aligned + bytes <= self.end,
            "arena exhausted at {aligned:#x}"
        );
        self.next = aligned + bytes;
        Addr::new(aligned)
    }

    /// Allocates and returns a whole number of cache lines.
    pub fn alloc_lines(&mut self, lines: u64) -> Addr {
        self.alloc(lines * WORDS_PER_LINE as u64)
    }

    /// Bytes of address space consumed so far.
    pub fn used(&self) -> u64 {
        self.next.saturating_sub(self.end - ARENA_BYTES)
    }
}

/// Factory for per-thread [`Arena`]s with disjoint address ranges.
#[derive(Debug, Default)]
pub struct Heap;

impl Heap {
    /// The arena reserved for thread (or purpose) `id`. Arena 0 is
    /// conventionally used for shared, pre-built data structures.
    pub fn arena(id: usize) -> Arena {
        let base = HEAP_BASE + id as u64 * ARENA_BYTES;
        Arena {
            next: base,
            end: base + ARENA_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_reads_zero_when_untouched() {
        let m = Memory::new();
        assert_eq!(m.read(Addr::new(0x12340)), 0);
    }

    #[test]
    fn memory_roundtrip() {
        let mut m = Memory::new();
        m.write(Addr::new(0x1000), 0xdead);
        m.write(Addr::new(0x1008), 0xbeef);
        assert_eq!(m.read(Addr::new(0x1000)), 0xdead);
        assert_eq!(m.read(Addr::new(0x1008)), 0xbeef);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = Memory::new();
        let line = LineAddr::from_byte_addr(0x2000);
        let data: [u64; WORDS_PER_LINE] = std::array::from_fn(|i| i as u64 * 7);
        m.write_line(line, &data);
        assert_eq!(m.read_line(line), data);
        assert_eq!(m.read(Addr::new(0x2008)), 7);
    }

    #[test]
    fn arenas_are_disjoint() {
        let mut a = Heap::arena(0);
        let mut b = Heap::arena(1);
        let pa = a.alloc(4);
        let pb = b.alloc(4);
        assert!(pb.raw() - pa.raw() >= ARENA_BYTES);
    }

    #[test]
    fn arena_is_deterministic() {
        let mut a1 = Heap::arena(3);
        let mut a2 = Heap::arena(3);
        for _ in 0..10 {
            assert_eq!(a1.alloc(5), a2.alloc(5));
        }
    }

    #[test]
    fn allocations_are_line_aligned() {
        let mut a = Heap::arena(0);
        for words in [1u64, 3, 8, 9] {
            let p = a.alloc(words);
            assert_eq!(p.raw() % LINE_BYTES, 0);
        }
    }

    #[test]
    #[should_panic(expected = "not word aligned")]
    fn unaligned_address_panics() {
        let _ = Addr::new(0x1001);
    }

    #[test]
    fn word_in_line() {
        assert_eq!(Addr::new(0x1000).word_in_line(), 0);
        assert_eq!(Addr::new(0x1008).word_in_line(), 1);
        assert_eq!(Addr::new(0x1038).word_in_line(), 7);
    }
}
