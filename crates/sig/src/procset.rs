//! `ProcSet`: a fixed-capacity set of processor ids, stored as inline
//! bitset words.
//!
//! FlexTM tracks *who* rather than *what*: CST registers, directory
//! sharer/owner vectors, the Cores-Summary bitmap and the scheduler's
//! activity masks are all per-processor bit vectors. The original
//! implementation used bare `u64` masks, hard-capping the machine at 64
//! cores; `ProcSet` widens every one of those sites to
//! [`MAX_CORES`] processors while staying `Copy`, allocation-free and
//! word-addressable (the hardware being modelled is literally a bank of
//! flip-flops, and the canonicalizer and summary installers need the
//! raw words).
//!
//! There is deliberately **no complement operator**: `!mask` is only
//! meaningful at a known machine width, and every historical use was
//! really "everyone but me" — that is [`ProcSet::minus`] /
//! [`ProcSet::without`]. Machine width itself is validated once, at
//! construction, against [`MAX_CORES`] (see `flextm-sim`'s
//! `ConfigError`); member ids are debug-asserted only, since every id
//! reaching a `ProcSet` has already passed that validation.
//!
//! # Example
//!
//! ```
//! use flextm_sig::ProcSet;
//!
//! let mut owners = ProcSet::empty();
//! owners.insert(3);
//! owners.insert(100); // > 64: second word
//! assert!(owners.contains(100));
//! assert_eq!(owners.iter().collect::<Vec<_>>(), vec![3, 100]);
//! assert_eq!(owners.without(3), ProcSet::bit(100));
//! ```

/// Number of inline `u64` words backing a [`ProcSet`].
pub const PROC_WORDS: usize = 2;

/// Maximum number of processors any machine configuration may request.
pub const MAX_CORES: usize = PROC_WORDS * 64;

/// A set of processor ids `0..MAX_CORES`, as an inline bit vector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProcSet {
    words: [u64; PROC_WORDS],
}

impl ProcSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        ProcSet {
            words: [0; PROC_WORDS],
        }
    }

    /// The singleton `{proc}`.
    #[inline]
    pub fn bit(proc: usize) -> Self {
        debug_assert!(proc < MAX_CORES, "processor id {proc} out of range");
        let mut s = Self::empty();
        s.words[proc / 64] = 1 << (proc % 64);
        s
    }

    /// The set `{0, 1, .., n-1}` (all processors of an `n`-core
    /// machine).
    #[inline]
    pub fn first_n(n: usize) -> Self {
        debug_assert!(n <= MAX_CORES, "machine width {n} out of range");
        let mut s = Self::empty();
        for (i, w) in s.words.iter_mut().enumerate() {
            let lo = i * 64;
            *w = if n >= lo + 64 {
                u64::MAX
            } else if n > lo {
                (1u64 << (n - lo)) - 1
            } else {
                0
            };
        }
        s
    }

    /// A set from a legacy single-word mask (bits 0..64).
    #[inline]
    pub const fn from_mask(mask: u64) -> Self {
        let mut words = [0; PROC_WORDS];
        words[0] = mask;
        ProcSet { words }
    }

    /// Builds a set directly from raw words (canonicalizer round-trip).
    #[inline]
    pub const fn from_words(words: [u64; PROC_WORDS]) -> Self {
        ProcSet { words }
    }

    /// Adds `proc` to the set.
    #[inline]
    pub fn insert(&mut self, proc: usize) {
        debug_assert!(proc < MAX_CORES, "processor id {proc} out of range");
        self.words[proc / 64] |= 1 << (proc % 64);
    }

    /// Removes `proc` from the set.
    #[inline]
    pub fn remove(&mut self, proc: usize) {
        debug_assert!(proc < MAX_CORES, "processor id {proc} out of range");
        self.words[proc / 64] &= !(1 << (proc % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, proc: usize) -> bool {
        debug_assert!(proc < MAX_CORES, "processor id {proc} out of range");
        self.words[proc / 64] >> (proc % 64) & 1 == 1
    }

    /// True if no processor is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of processors in the set.
    #[inline]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Set difference `self \ other`.
    #[inline]
    #[must_use]
    pub fn minus(mut self, other: ProcSet) -> Self {
        for (a, b) in self.words.iter_mut().zip(other.words) {
            *a &= !b;
        }
        self
    }

    /// `self \ {proc}` — the pervasive "everyone but me" projection.
    #[inline]
    #[must_use]
    pub fn without(self, proc: usize) -> Self {
        self.minus(Self::bit(proc))
    }

    /// True if every member of `self` is also in `other`.
    #[inline]
    pub fn subset_of(&self, other: &ProcSet) -> bool {
        self.words
            .iter()
            .zip(other.words)
            .all(|(&a, b)| a & !b == 0)
    }

    /// True if the sets share at least one member.
    #[inline]
    pub fn intersects(&self, other: &ProcSet) -> bool {
        self.words.iter().zip(other.words).any(|(&a, b)| a & b != 0)
    }

    /// Iterates members in ascending processor order.
    #[inline]
    pub fn iter(self) -> ProcIter {
        let [lo, hi] = self.words;
        ProcIter { lo, hi }
    }

    /// The smallest member with index `>= from`, if any. Bank-owner
    /// scans use this to resume a walk mid-set without restarting the
    /// iterator.
    #[inline]
    pub fn first_set_from(&self, from: usize) -> Option<usize> {
        if from >= MAX_CORES {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.words[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == PROC_WORDS {
                return None;
            }
            bits = self.words[word];
        }
    }

    /// Iterates members with index `>= from` in ascending order.
    #[inline]
    pub fn iter_from(self, from: usize) -> ProcIter {
        let bits = if from < MAX_CORES {
            self.to_u128() & (!0u128 << from)
        } else {
            0
        };
        ProcIter {
            lo: bits as u64,
            hi: (bits >> 64) as u64,
        }
    }

    /// The raw backing words, lowest processors first.
    #[inline]
    pub fn words(&self) -> &[u64; PROC_WORDS] {
        &self.words
    }

    /// The set as one wide integer (bit *i* ⇔ processor *i*).
    #[inline]
    pub fn to_u128(self) -> u128 {
        (self.words[1] as u128) << 64 | self.words[0] as u128
    }
}

impl std::ops::BitOr for ProcSet {
    type Output = ProcSet;
    #[inline]
    fn bitor(mut self, rhs: ProcSet) -> ProcSet {
        for (a, b) in self.words.iter_mut().zip(rhs.words) {
            *a |= b;
        }
        self
    }
}

impl std::ops::BitOrAssign for ProcSet {
    #[inline]
    fn bitor_assign(&mut self, rhs: ProcSet) {
        for (a, b) in self.words.iter_mut().zip(rhs.words) {
            *a |= b;
        }
    }
}

impl std::ops::BitAnd for ProcSet {
    type Output = ProcSet;
    #[inline]
    fn bitand(mut self, rhs: ProcSet) -> ProcSet {
        for (a, b) in self.words.iter_mut().zip(rhs.words) {
            *a &= b;
        }
        self
    }
}

impl std::ops::BitAndAssign for ProcSet {
    #[inline]
    fn bitand_assign(&mut self, rhs: ProcSet) {
        for (a, b) in self.words.iter_mut().zip(rhs.words) {
            *a &= b;
        }
    }
}

/// Tests (and the odd legacy caller) compare against single-word
/// masks: `assert_eq!(dir.owners, 0b11)`. Equal ⇔ the low word matches
/// and every high word is zero.
impl PartialEq<u64> for ProcSet {
    #[inline]
    fn eq(&self, other: &u64) -> bool {
        self.words[0] == *other && self.words[1..].iter().all(|&w| w == 0)
    }
}

impl PartialEq<ProcSet> for u64 {
    #[inline]
    fn eq(&self, other: &ProcSet) -> bool {
        other == self
    }
}

impl FromIterator<usize> for ProcSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = ProcSet::empty();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl IntoIterator for ProcSet {
    type Item = usize;
    type IntoIter = ProcIter;
    fn into_iter(self) -> ProcIter {
        self.iter()
    }
}

impl std::fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProcSet")?;
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending-order member iterator over a [`ProcSet`]. The unvisited
/// members are two plain words, not an indexed array, so a walk keeps
/// them in registers — the invariant sweep's nested per-line loops
/// paid for the array (EXPERIMENTS.md "Measurement history", PR 25).
#[derive(Clone)]
pub struct ProcIter {
    lo: u64,
    hi: u64,
}

impl Iterator for ProcIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.lo != 0 {
            let bit = self.lo.trailing_zeros() as usize;
            self.lo &= self.lo - 1;
            Some(bit)
        } else if self.hi != 0 {
            let bit = self.hi.trailing_zeros() as usize;
            self.hi &= self.hi - 1;
            Some(64 + bit)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_membership() {
        for p in [0, 1, 63, 64, 65, 127] {
            let s = ProcSet::bit(p);
            assert!(s.contains(p));
            assert_eq!(s.count(), 1);
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![p]);
        }
    }

    #[test]
    fn first_n_boundary_widths() {
        for n in [0, 1, 16, 63, 64, 65, 127, 128] {
            let s = ProcSet::first_n(n);
            assert_eq!(s.count() as usize, n, "width {n}");
            for p in 0..MAX_CORES {
                assert_eq!(s.contains(p), p < n, "width {n} member {p}");
            }
        }
    }

    #[test]
    fn u64_equality_requires_zero_high_word() {
        assert_eq!(ProcSet::from_mask(0b101), 0b101u64);
        assert_eq!(0b101u64, ProcSet::from_mask(0b101));
        let mut wide = ProcSet::from_mask(0b101);
        wide.insert(100);
        assert_ne!(wide, 0b101u64);
    }

    #[test]
    fn minus_and_without_cross_words() {
        let all = ProcSet::first_n(128);
        let hole = all.without(64);
        assert_eq!(hole.count(), 127);
        assert!(!hole.contains(64));
        assert!(hole.contains(63) && hole.contains(65));
        assert_eq!(all.minus(all), ProcSet::empty());
    }

    #[test]
    fn iteration_is_ascending_across_word_boundary() {
        let s: ProcSet = [127usize, 0, 64, 63, 65].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 127]);
    }
}
