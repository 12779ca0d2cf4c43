//! The per-thread overflow table (OT, paper §4): a virtual-memory
//! buffer for TMI lines evicted from the L1, managed by a hardware
//! controller so software stays oblivious to overflow.
//!
//! The controller keeps a signature of overflowed lines (`Osig`), a
//! count, a committed/speculative flag, and table parameters. On an L1
//! miss the controller checks the `Osig` and fetches/invalidates the OT
//! entry on a hit. CAS-Commit sets the committed flag and starts a
//! background copy-back; remote requests that hit the `Osig` of a
//! committed OT are NACKed until copy-back completes.

use crate::mem::WORDS_PER_LINE;
use flextm_sig::{LineAddr, SigKey, Signature, SignatureConfig};
use std::collections::BTreeMap;

/// One overflowed line: speculative data plus the logical (virtual)
/// address tag used for page-in at commit time (§4.1). In this
/// reproduction logical == physical until a paging event remaps it.
#[derive(Debug, Clone)]
pub struct OtEntry {
    /// Speculative line contents.
    pub data: Box<[u64; WORDS_PER_LINE]>,
    /// Logical address tag (tracked separately so the §4.1 remap
    /// algorithm has something to update).
    pub logical: LineAddr,
}

/// Overflow-table controller state for one hardware context.
/// `Clone` exists for the model checker's state forking; the simulator
/// proper never copies an OT.
#[derive(Debug, Clone)]
pub struct OverflowTable {
    /// Physical-address-indexed entries. A `BTreeMap` keeps copy-back
    /// order deterministic (the paper notes order doesn't matter,
    /// unlike time-ordered undo logs).
    entries: BTreeMap<LineAddr, OtEntry>,
    /// Signature of overflowed physical line addresses.
    osig: Signature,
    /// Set by CAS-Commit: contents are now architecturally visible and
    /// being copied back.
    committed: bool,
    /// Simulated cycle at which the background copy-back completes.
    copyback_done_at: u64,
    /// High-water mark of entries (reported by stats).
    peak: usize,
}

impl OverflowTable {
    /// Allocates an empty OT (the software trap handler's job on first
    /// overflow).
    pub fn new(sig_config: SignatureConfig) -> Self {
        OverflowTable {
            entries: BTreeMap::new(),
            osig: Signature::new(sig_config),
            committed: false,
            copyback_done_at: 0,
            peak: 0,
        }
    }

    /// Controller action on a TMI eviction: store the line and add it
    /// to the `Osig`.
    pub fn insert(&mut self, line: LineAddr, data: Box<[u64; WORDS_PER_LINE]>) {
        debug_assert!(!self.committed, "insert into a committed OT");
        self.osig.insert(line);
        self.entries.insert(
            line,
            OtEntry {
                data,
                logical: line,
            },
        );
        self.peak = self.peak.max(self.entries.len());
    }

    /// Quick lookaside test: can `line` possibly be here? (May be a
    /// false positive; [`OverflowTable::lookup`] resolves it.)
    pub fn maybe_contains(&self, line: LineAddr) -> bool {
        !self.entries.is_empty() && self.osig.contains(line)
    }

    /// [`OverflowTable::maybe_contains`] with a pre-hashed key.
    pub fn maybe_contains_key(&self, key: SigKey) -> bool {
        !self.entries.is_empty() && self.osig.contains_key(key)
    }

    /// L1-miss servicing: fetch and remove the entry for `line`
    /// ("fetch the line from the OT and invalidate the OT entry").
    pub fn lookup(&mut self, line: LineAddr) -> Option<OtEntry> {
        self.entries.remove(&line)
        // The Osig is not recomputed on removal (hardware can't delete
        // from a Bloom filter); stale bits only cost extra lookups.
    }

    /// Read-only peek used by responders and tests.
    pub fn peek(&self, line: LineAddr) -> Option<&OtEntry> {
        self.entries.get(&line)
    }

    /// Number of lines currently overflowed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no lines are overflowed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// High-water mark of resident entries.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Marks the OT committed and schedules the background copy-back;
    /// returns the entries to be written to memory (the machine applies
    /// them immediately — remote observers are held off by NACKs until
    /// [`OverflowTable::copyback_done_at`]).
    pub fn begin_commit(&mut self, now: u64, per_line: u64) -> Vec<(LineAddr, OtEntry)> {
        self.committed = true;
        self.copyback_done_at = now + self.entries.len() as u64 * per_line;
        let drained: Vec<_> = std::mem::take(&mut self.entries).into_iter().collect();
        drained
    }

    /// True while a committed OT is still copying back at `now`, which
    /// is when requests hitting the `Osig` get NACKed.
    pub fn nacks_at(&self, now: u64, line: LineAddr) -> bool {
        self.committed && now < self.copyback_done_at && self.osig.contains(line)
    }

    /// [`OverflowTable::nacks_at`] with a pre-hashed key.
    pub fn nacks_at_key(&self, now: u64, key: SigKey) -> bool {
        self.committed && now < self.copyback_done_at && self.osig.contains_key(key)
    }

    /// Cycle at which copy-back finishes (0 if never committed).
    pub fn copyback_done_at(&self) -> u64 {
        self.copyback_done_at
    }

    /// True once [`OverflowTable::begin_commit`] has run.
    pub fn is_committed(&self) -> bool {
        self.committed
    }

    /// Applies a §4.1 page remap: every entry whose logical line falls
    /// in `old_page` (page-aligned line range of `lines_per_page`) is
    /// re-tagged to the corresponding line in `new_page`, and the
    /// returned list tells the caller which physical tags to re-insert
    /// into signatures.
    pub fn remap_page(
        &mut self,
        old_page_first_line: LineAddr,
        new_page_first_line: LineAddr,
        lines_per_page: u64,
    ) -> Vec<(LineAddr, LineAddr)> {
        let old_base = old_page_first_line.index();
        let new_base = new_page_first_line.index();
        let moved: Vec<LineAddr> = self
            .entries
            .keys()
            .copied()
            .filter(|l| l.index() >= old_base && l.index() < old_base + lines_per_page)
            .collect();
        let mut mappings = Vec::new();
        for old in moved {
            let entry = self.entries.remove(&old).expect("key just enumerated");
            let new = LineAddr(new_base + (old.index() - old_base));
            self.osig.insert(new);
            self.entries.insert(
                new,
                OtEntry {
                    data: entry.data,
                    logical: entry.logical,
                },
            );
            mappings.push((old, new));
        }
        mappings
    }

    /// Iterates over resident (physical line, entry) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&LineAddr, &OtEntry)> {
        self.entries.iter()
    }

    /// Bytes the table owns on the heap: its entries, their line
    /// buffers and the `Osig` words (B-tree node slack not counted).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.len()
            * (std::mem::size_of::<(LineAddr, OtEntry)>()
                + std::mem::size_of::<[u64; WORDS_PER_LINE]>())
            + std::mem::size_of_val(self.osig.words())
    }

    /// Raw `Osig` filter words, exposed so the model checker can fold
    /// the (stale-bit-carrying) filter into its canonical state hash —
    /// two OTs with equal entries but different stale Osig bits behave
    /// differently on future lookups and must not be merged.
    pub fn osig_words(&self) -> Vec<u64> {
        self.osig.words().to_vec()
    }

    /// Controller invariants for the owning processor `me`: the `Osig`
    /// never under-approximates the table (no false negatives — a
    /// missed lookaside would read stale memory), a committed OT has
    /// been fully drained by `begin_commit`, and the high-water mark
    /// bounds the current population.
    pub fn check_invariants(&self, me: usize) {
        for &line in self.entries.keys() {
            assert!(
                self.osig.contains(line),
                "core {me}: OT entry {line:?} missing from Osig"
            );
        }
        if self.committed {
            assert!(
                self.entries.is_empty(),
                "core {me}: committed OT still holds {} entries",
                self.entries.len()
            );
        }
        assert!(
            self.peak >= self.entries.len(),
            "core {me}: OT peak {} below current population {}",
            self.peak,
            self.entries.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ot() -> OverflowTable {
        OverflowTable::new(SignatureConfig::paper_default())
    }

    fn data(v: u64) -> Box<[u64; WORDS_PER_LINE]> {
        Box::new([v; WORDS_PER_LINE])
    }

    #[test]
    fn insert_lookup_invalidates() {
        let mut t = ot();
        t.insert(LineAddr(5), data(9));
        assert!(t.maybe_contains(LineAddr(5)));
        let e = t.lookup(LineAddr(5)).expect("entry present");
        assert_eq!(e.data[0], 9);
        assert!(t.lookup(LineAddr(5)).is_none(), "lookup must invalidate");
        assert!(t.is_empty());
    }

    #[test]
    fn osig_false_positive_resolved_by_lookup() {
        let mut t = ot();
        t.insert(LineAddr(1), data(1));
        // Some other line may alias in the signature; lookup must still
        // return None for it.
        assert!(t.lookup(LineAddr(2)).is_none());
    }

    #[test]
    fn commit_schedules_copyback_and_nacks() {
        let mut t = ot();
        t.insert(LineAddr(1), data(1));
        t.insert(LineAddr(2), data(2));
        let drained = t.begin_commit(100, 30);
        assert_eq!(drained.len(), 2);
        assert_eq!(t.copyback_done_at(), 160);
        assert!(t.nacks_at(120, LineAddr(1)), "mid-copyback Osig hit NACKs");
        assert!(!t.nacks_at(200, LineAddr(1)), "after copy-back no NACK");
        assert!(!t.nacks_at(120, LineAddr(999)), "non-Osig line unaffected");
    }

    #[test]
    fn copyback_order_is_by_address_not_insertion() {
        let mut t = ot();
        t.insert(LineAddr(9), data(9));
        t.insert(LineAddr(3), data(3));
        let drained = t.begin_commit(0, 1);
        let order: Vec<u64> = drained.iter().map(|(l, _)| l.index()).collect();
        assert_eq!(order, vec![3, 9]);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut t = ot();
        t.insert(LineAddr(1), data(0));
        t.insert(LineAddr(2), data(0));
        t.lookup(LineAddr(1));
        t.insert(LineAddr(3), data(0));
        assert_eq!(t.peak(), 2);
    }

    /// The NACK window is half-open: requests at `now ==
    /// copyback_done_at` must sail through (the drain charged exactly
    /// that many cycles), and an uncommitted OT never NACKs no matter
    /// what the Osig says.
    #[test]
    fn nack_window_boundary_is_half_open() {
        let mut t = ot();
        t.insert(LineAddr(4), data(4));
        assert!(!t.nacks_at(0, LineAddr(4)), "uncommitted OT never NACKs");
        t.begin_commit(100, 10); // done_at = 110
        assert!(t.nacks_at(109, LineAddr(4)));
        assert!(
            !t.nacks_at(110, LineAddr(4)),
            "now == copyback_done_at is past the window"
        );
    }

    /// Checker find #4's first half, at the unit level: `lookup`
    /// removes the entry but the no-delete `Osig` keeps its bit. The
    /// empty-table fast path masks the staleness while the table stays
    /// empty — but the moment a *reused* table takes a new entry, the
    /// dead line aliases again. That over-approximation is *legal*
    /// (the invariant only forbids false negatives) — which is exactly
    /// why the machine layer retires an emptied OT at commit instead
    /// of trusting the Osig across transactions.
    #[test]
    fn lookup_leaves_stale_osig_bit() {
        let mut t = ot();
        t.insert(LineAddr(7), data(7));
        assert!(t.lookup(LineAddr(7)).is_some());
        assert!(t.is_empty());
        assert!(
            !t.maybe_contains(LineAddr(7)),
            "empty table short-circuits the Osig"
        );
        t.insert(LineAddr(8), data(8)); // reuse revives the stale bit
        assert!(
            t.maybe_contains(LineAddr(7)),
            "Bloom Osig cannot delete; the stale bit aliases again"
        );
        assert!(t.lookup(LineAddr(7)).is_none(), "and resolves to a miss");
        t.check_invariants(0); // over-approximation passes
    }

    /// Committing an OT that lookups have already emptied is a no-op
    /// drain: no entries, a zero-length copy-back, and no NACKs even
    /// though the stale Osig bits survive.
    #[test]
    fn empty_commit_drains_nothing_and_never_nacks() {
        let mut t = ot();
        t.insert(LineAddr(3), data(3));
        t.lookup(LineAddr(3));
        let drained = t.begin_commit(50, 10);
        assert!(drained.is_empty());
        assert!(t.is_committed());
        assert_eq!(t.copyback_done_at(), 50, "zero lines → zero cycles");
        assert!(!t.nacks_at(50, LineAddr(3)));
        t.check_invariants(0);
    }

    /// Remap is conservative on the signature side: the Osig gains the
    /// new page's bits but keeps the old ones (Bloom filters cannot
    /// delete), so pre-remap addresses still alias as false positives
    /// that `lookup` resolves to None.
    #[test]
    fn remap_keeps_old_osig_bits_conservatively() {
        let mut t = ot();
        t.insert(LineAddr(64), data(1));
        t.remap_page(LineAddr(64), LineAddr(1024), 64);
        assert!(t.maybe_contains(LineAddr(1024)), "new tag must be covered");
        assert!(
            t.maybe_contains(LineAddr(64)),
            "old bit survives remap (no-delete)"
        );
        assert!(t.lookup(LineAddr(64)).is_none(), "but resolves to a miss");
        t.check_invariants(0);
    }

    #[test]
    fn remap_page_moves_tags() {
        let mut t = ot();
        t.insert(LineAddr(64), data(7)); // page of 64 lines: lines 64..128
        t.insert(LineAddr(65), data(8));
        t.insert(LineAddr(200), data(9)); // other page
        let moved = t.remap_page(LineAddr(64), LineAddr(1024), 64);
        assert_eq!(moved.len(), 2);
        assert!(t.peek(LineAddr(1024)).is_some());
        assert!(t.peek(LineAddr(1025)).is_some());
        assert!(t.peek(LineAddr(64)).is_none());
        assert!(t.peek(LineAddr(200)).is_some());
        assert_eq!(t.peek(LineAddr(1024)).unwrap().logical, LineAddr(64));
    }
}
