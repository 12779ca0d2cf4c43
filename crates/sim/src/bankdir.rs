//! Bank-partitioned open-addressing directory storage.
//!
//! The directory map is the hottest associative structure in the
//! simulator: every miss, sharer sweep and eviction probes or mutates
//! it. A general `HashMap<LineAddr, DirEntry>` pays for that generality
//! twice — SipHash-free but still pointer-chasing through a control-byte
//! table, and 40-byte entries scattered wherever the allocator put the
//! backing store. This module replaces it with:
//!
//! * **64 banks**, selected by `line.index() & 63`, so consecutive
//!   lines spread across banks exactly like their coherence traffic
//!   does;
//! * **open addressing with linear probing** inside each bank, slots
//!   packed into cache-line-sized slabs (`#[repr(align(64))]`, one
//!   host line per slot: tag + both `ProcSet` words of the entry), so a
//!   probe that finds its slot touches exactly one host cache line;
//! * **backward-shift deletion** (no tombstones), keeping probe chains
//!   short under the constant insert/remove churn of L2 evictions.
//!
//! The structure is a pure drop-in for the map: same key→value
//! contents, same presence semantics (an *idle* entry is still
//! present until explicitly removed — `has_dir_info` depends on the
//! distinction), and no operation anywhere iterates the map, so
//! simulated behavior is bit-identical by construction.

use crate::l2::DirEntry;
use flextm_sig::LineAddr;

/// Number of directory banks; a line's bank is `line.index() & 63`.
pub const DIR_BANKS: usize = 64;

/// Vacant-slot sentinel. Line indexes are physical addresses shifted
/// right by the line-offset bits, so `u64::MAX` is unreachable.
const EMPTY: u64 = u64::MAX;

/// One directory slot, padded to a host cache line: the tag and both
/// `ProcSet` pairs of the entry are always brought in by one fill.
#[repr(align(64))]
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Full line index ([`EMPTY`] when vacant). The bank bits are
    /// redundant within a bank but keep the tag a direct `LineAddr`.
    tag: u64,
    entry: DirEntry,
}

const VACANT: Slot = Slot {
    tag: EMPTY,
    entry: DirEntry {
        sharers: flextm_sig::ProcSet::empty(),
        owners: flextm_sig::ProcSet::empty(),
    },
};

/// One open-addressing table. Capacity is always a power of two (or
/// zero before the first insert); occupancy is kept at or below 7/8.
#[derive(Debug, Clone, Default)]
struct Bank {
    slots: Vec<Slot>,
    len: usize,
}

impl Bank {
    /// Home position for `tag`: a Fibonacci hash of the line index
    /// *above* the bank bits (the low six bits are constant per bank
    /// and would waste table entropy).
    #[inline]
    fn home(tag: u64, mask: usize) -> usize {
        (((tag >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & mask
    }

    /// Slot index holding `tag`, if present.
    #[inline]
    fn find(&self, tag: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(tag, mask);
        loop {
            let s = &self.slots[i];
            if s.tag == tag {
                return Some(i);
            }
            if s.tag == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `tag` (known absent) and returns its slot index.
    fn insert_new(&mut self, tag: u64, entry: DirEntry) -> usize {
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(tag, mask);
        while self.slots[i].tag != EMPTY {
            debug_assert_ne!(self.slots[i].tag, tag, "insert_new of a present tag");
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot { tag, entry };
        self.len += 1;
        i
    }

    /// Doubles capacity (min 8 slots) and rehashes every occupant.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_cap]);
        let mask = new_cap - 1;
        for s in old {
            if s.tag == EMPTY {
                continue;
            }
            let mut i = Self::home(s.tag, mask);
            while self.slots[i].tag != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// Removes `tag` with backward-shift deletion: every displaced
    /// follower in the probe chain moves one hole closer to home, so
    /// no tombstone is left to lengthen future probes.
    fn remove(&mut self, tag: u64) -> Option<DirEntry> {
        let mut hole = self.find(tag)?;
        let removed = self.slots[hole].entry;
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let t = self.slots[j].tag;
            if t == EMPTY {
                break;
            }
            // `j`'s occupant may fill the hole iff its home lies at or
            // before the hole in probe order (cyclic distances).
            let home_to_j = j.wrapping_sub(Self::home(t, mask)) & mask;
            let hole_to_j = j.wrapping_sub(hole) & mask;
            if home_to_j >= hole_to_j {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
        Some(removed)
    }
}

/// The bank-partitioned directory map: `LineAddr → DirEntry` with
/// `HashMap` semantics and cache-line-packed storage.
#[derive(Debug, Clone)]
pub struct BankedDir {
    banks: Vec<Bank>,
}

impl Default for BankedDir {
    fn default() -> Self {
        Self::new()
    }
}

impl BankedDir {
    /// An empty directory. Banks allocate lazily on first insert.
    pub fn new() -> Self {
        BankedDir {
            banks: vec![Bank::default(); DIR_BANKS],
        }
    }

    #[inline]
    fn bank_of(line: LineAddr) -> usize {
        (line.index() as usize) & (DIR_BANKS - 1)
    }

    #[inline]
    fn tag_of(line: LineAddr) -> u64 {
        let tag = line.index();
        debug_assert_ne!(tag, EMPTY, "line index collides with the vacant sentinel");
        tag
    }

    /// Total number of stored entries.
    pub fn len(&self) -> usize {
        self.banks.iter().map(|b| b.len).sum()
    }

    /// True when no line has directory state.
    pub fn is_empty(&self) -> bool {
        self.banks.iter().all(|b| b.len == 0)
    }

    /// True if `line` has a (possibly idle) stored entry.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.banks[Self::bank_of(line)]
            .find(Self::tag_of(line))
            .is_some()
    }

    /// The stored entry for `line`, if present.
    pub fn get(&self, line: LineAddr) -> Option<&DirEntry> {
        let bank = &self.banks[Self::bank_of(line)];
        bank.find(Self::tag_of(line)).map(|i| &bank.slots[i].entry)
    }

    /// Mutable view of `line`'s entry, if present.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut DirEntry> {
        let bank = &mut self.banks[Self::bank_of(line)];
        bank.find(Self::tag_of(line))
            .map(|i| &mut bank.slots[i].entry)
    }

    /// Mutable view of `line`'s entry, inserting an idle one if absent
    /// (the `HashMap::entry(..).or_default()` shape).
    pub fn entry_or_default(&mut self, line: LineAddr) -> &mut DirEntry {
        let tag = Self::tag_of(line);
        let bank = &mut self.banks[Self::bank_of(line)];
        let i = match bank.find(tag) {
            Some(i) => i,
            None => bank.insert_new(tag, DirEntry::default()),
        };
        &mut bank.slots[i].entry
    }

    /// Installs (or overwrites) `line`'s entry.
    pub fn insert(&mut self, line: LineAddr, entry: DirEntry) {
        *self.entry_or_default(line) = entry;
    }

    /// Removes `line`'s entry, returning it if it was present.
    pub fn remove(&mut self, line: LineAddr) -> Option<DirEntry> {
        self.banks[Self::bank_of(line)].remove(Self::tag_of(line))
    }

    /// Makes `self` a copy of `src` in place, bank by bank, reusing
    /// every bank's slot buffer (the model checker's refilled scratch
    /// state; see [`crate::SimState::assign_for_check`]).
    pub fn assign_for_check(&mut self, src: &BankedDir) {
        let BankedDir { banks } = src;
        for (mine, bank) in self.banks.iter_mut().zip(banks) {
            let Bank { slots, len } = bank;
            mine.slots.clone_from(slots);
            mine.len = *len;
        }
    }

    /// Every stored entry, for a kept model-checker state's record of
    /// the directory ([`crate::L2`]'s `save`). Bank order, then slot
    /// order.
    pub(crate) fn save(&self) -> Box<[(LineAddr, DirEntry)]> {
        self.banks
            .iter()
            .flat_map(|b| &b.slots)
            .filter(|s| s.tag != EMPTY)
            .map(|s| (LineAddr(s.tag), s.entry))
            .collect()
    }

    /// Makes `self` hold exactly `entries`, in place: every occupied
    /// bank is emptied and the entries are reinserted, so restoring
    /// onto a directory whose banks are already large enough allocates
    /// nothing. Slot positions may differ from the saved directory's;
    /// nothing observes them.
    pub(crate) fn restore(&mut self, entries: &[(LineAddr, DirEntry)]) {
        for bank in &mut self.banks {
            if bank.len != 0 {
                bank.slots.fill(VACANT);
                bank.len = 0;
            }
        }
        for &(line, entry) in entries {
            self.insert(line, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextm_sig::ProcSet;

    #[test]
    fn slot_is_one_host_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 64);
        assert_eq!(std::mem::align_of::<Slot>(), 64);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut d = BankedDir::new();
        assert!(d.is_empty());
        let e = DirEntry {
            sharers: ProcSet::bit(3) | ProcSet::bit(100),
            owners: ProcSet::bit(70),
        };
        d.insert(LineAddr(0x123), e);
        assert_eq!(d.get(LineAddr(0x123)), Some(&e));
        assert!(d.contains(LineAddr(0x123)));
        assert!(!d.contains(LineAddr(0x124)));
        assert_eq!(d.remove(LineAddr(0x123)), Some(e));
        assert_eq!(d.get(LineAddr(0x123)), None);
        assert!(d.is_empty());
    }

    #[test]
    fn idle_entry_stays_present_until_removed() {
        let mut d = BankedDir::new();
        let _ = d.entry_or_default(LineAddr(9));
        assert!(d.contains(LineAddr(9)), "idle entries are still present");
        assert_eq!(d.get(LineAddr(9)), Some(&DirEntry::default()));
    }

    #[test]
    fn same_bank_churn_keeps_chains_consistent() {
        // All keys land in bank 5; heavy insert/remove churn exercises
        // growth and backward-shift deletion within one bank.
        let mut d = BankedDir::new();
        let key = |i: u64| LineAddr(5 + i * 64);
        for i in 0..200 {
            d.entry_or_default(key(i)).sharers = ProcSet::bit((i % 128) as usize);
        }
        for i in (0..200).step_by(3) {
            assert!(d.remove(key(i)).is_some());
        }
        for i in 0..200 {
            let want = (i % 3 != 0).then(|| ProcSet::bit((i % 128) as usize));
            assert_eq!(d.get(key(i)).map(|e| e.sharers), want, "key {i}");
        }
        assert_eq!(d.len(), 200 - 200usize.div_ceil(3));
    }
}
