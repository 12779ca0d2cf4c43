//! The banked Bloom-filter signature itself.

use crate::hasher::{HashScheme, LineHasher, SigKey};
use crate::LineAddr;

/// Configuration of a banked Bloom-filter signature.
///
/// The paper evaluates 2048-bit, 4-banked signatures (Table 3(a), citing
/// Bulk's "S14" configuration); [`SignatureConfig::paper_default`]
/// reproduces that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureConfig {
    /// Total bits across all banks. Must be a power of two and divisible
    /// by `banks`.
    pub total_bits: usize,
    /// Number of banks; each bank gets one independent hash function and
    /// `total_bits / banks` bits.
    pub banks: usize,
    /// Hash family.
    pub scheme: HashScheme,
    /// Seed for the deterministic H3 matrices.
    pub seed: u64,
}

impl SignatureConfig {
    /// The paper's configuration: 2048 bits, 4 banks, H3 hashing.
    pub fn paper_default() -> Self {
        SignatureConfig {
            total_bits: 2048,
            banks: 4,
            scheme: HashScheme::H3,
            seed: 0x5167_5167,
        }
    }

    /// A deliberately tiny configuration, useful in tests that want to
    /// provoke false positives.
    pub fn tiny() -> Self {
        SignatureConfig {
            total_bits: 64,
            banks: 2,
            scheme: HashScheme::H3,
            seed: 0x5167_5167,
        }
    }

    /// Builds the [`LineHasher`] this configuration implies. Every
    /// signature (and [`SigKey`]) derived from the same configuration
    /// uses an identical hasher, which is what makes keys portable
    /// across the per-core `Rsig`/`Wsig`, the OT's `Osig`, and the
    /// directory summaries.
    pub fn hasher(&self) -> LineHasher {
        self.validate();
        let per_bank = self.total_bits / self.banks;
        let index_bits = per_bank.trailing_zeros();
        LineHasher::new(self.scheme, self.banks, index_bits, self.seed)
    }

    fn validate(&self) {
        assert!(
            self.total_bits.is_power_of_two(),
            "signature size must be a power of two, got {}",
            self.total_bits
        );
        assert!(
            self.banks > 0 && self.total_bits.is_multiple_of(self.banks),
            "bits ({}) must divide evenly into banks ({})",
            self.total_bits,
            self.banks
        );
        let per_bank = self.total_bits / self.banks;
        assert!(
            per_bank.is_power_of_two() && per_bank >= 2,
            "per-bank size must be a power of two >= 2, got {per_bank}"
        );
    }
}

impl Default for SignatureConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A banked Bloom-filter signature over cache-line addresses.
///
/// Guarantees **no false negatives**: after `insert(a)`,
/// `contains(a)` is true until [`Signature::clear`]. False positives are
/// possible and become more likely as the signature fills (see
/// [`Signature::occupancy`]).
///
/// The raw bit words are exposed ([`Signature::words`] /
/// [`Signature::load_words`]) because FlexTM keeps signatures
/// software-visible for virtualization: the OS saves a descheduled
/// transaction's `Rsig`/`Wsig` to its descriptor and unions them into
/// the directory's summary signature (paper §5).
#[derive(Debug, Clone)]
pub struct Signature {
    config: SignatureConfig,
    hasher: LineHasher,
    bits: Vec<u64>,
    /// `total_bits / banks`, precomputed: `bit_pos` sits on the
    /// protocol's per-access path and a runtime division there is
    /// measurable (4 divides per insert/test at 4 banks).
    bank_bits: usize,
    inserted: u64,
    nonempty: bool,
}

impl Signature {
    /// Creates an empty signature with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is malformed (non-power-of-two size,
    /// zero banks, bits not divisible by banks).
    pub fn new(config: SignatureConfig) -> Self {
        let hasher = config.hasher();
        let words = config.total_bits / 64;
        let bank_bits = config.total_bits / config.banks;
        Signature {
            config,
            hasher,
            bits: vec![0u64; words.max(1)],
            bank_bits,
            inserted: 0,
            nonempty: false,
        }
    }

    /// The configuration this signature was built with.
    pub fn config(&self) -> &SignatureConfig {
        &self.config
    }

    fn bank_bits(&self) -> usize {
        self.bank_bits
    }

    /// Global bit position for (bank, index).
    fn bit_pos(&self, bank: usize, idx: u32) -> usize {
        bank * self.bank_bits() + idx as usize
    }

    fn set_bit(&mut self, pos: usize) {
        self.bits[pos / 64] |= 1u64 << (pos % 64);
    }

    fn get_bit(&self, pos: usize) -> bool {
        self.bits[pos / 64] >> (pos % 64) & 1 == 1
    }

    fn set_banks(&mut self, line: LineAddr, packed: Option<u64>) {
        let ib = self.hasher.index_bits();
        if let Some(packed) = packed {
            for bank in 0..self.config.banks {
                let idx = (packed >> (bank as u32 * ib)) as u32 & ((1 << ib) - 1);
                let pos = self.bit_pos(bank, idx);
                self.set_bit(pos);
            }
        } else {
            for bank in 0..self.config.banks {
                let idx = self.hasher.index(bank, line.index());
                let pos = self.bit_pos(bank, idx);
                self.set_bit(pos);
            }
        }
        self.inserted += 1;
        self.nonempty = true;
    }

    fn test_banks(&self, line: LineAddr, packed: Option<u64>) -> bool {
        let ib = self.hasher.index_bits();
        if let Some(packed) = packed {
            (0..self.config.banks).all(|bank| {
                let idx = (packed >> (bank as u32 * ib)) as u32 & ((1 << ib) - 1);
                self.get_bit(self.bit_pos(bank, idx))
            })
        } else {
            (0..self.config.banks).all(|bank| {
                let idx = self.hasher.index(bank, line.index());
                self.get_bit(self.bit_pos(bank, idx))
            })
        }
    }

    /// Adds a line address to the summarized set.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) {
        let packed = self.hasher.packed_indices(line.index());
        self.set_banks(line, packed);
    }

    /// Tests (conservatively) whether `line` may be in the set. Never
    /// returns `false` for an address that was inserted.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.test_banks(line, self.hasher.packed_indices(line.index()))
    }

    /// Pre-hashes `line` into a [`SigKey`] usable against any signature
    /// built from the same configuration.
    #[inline]
    pub fn key(&self, line: LineAddr) -> SigKey {
        self.hasher.key(line)
    }

    /// [`Signature::insert`] with a pre-hashed key. Bit-for-bit
    /// equivalent to `insert(key.line())`.
    #[inline]
    pub fn insert_key(&mut self, key: SigKey) {
        debug_assert_eq!(
            key.packed(),
            self.hasher.key(key.line()).packed(),
            "SigKey built from a different configuration"
        );
        self.set_banks(key.line(), key.packed());
    }

    /// [`Signature::contains`] with a pre-hashed key.
    #[inline]
    pub fn contains_key(&self, key: SigKey) -> bool {
        debug_assert_eq!(
            key.packed(),
            self.hasher.key(key.line()).packed(),
            "SigKey built from a different configuration"
        );
        self.test_banks(key.line(), key.packed())
    }

    /// True iff `contains_key(test)` would report `true` after
    /// `insert_key(ins)`: per bank, `test`'s bit is either already set
    /// or about to be set because the two keys share that bank index.
    /// Equivalent to cloning the signature, inserting `ins`, and
    /// re-probing — without the clone. The scheduler's run-ahead path
    /// uses it to prove an insert cannot change how this core answers
    /// a parked rival's membership probe.
    #[inline]
    pub fn insert_would_alias(&self, test: SigKey, ins: SigKey) -> bool {
        debug_assert_eq!(
            test.packed(),
            self.hasher.key(test.line()).packed(),
            "SigKey built from a different configuration"
        );
        debug_assert_eq!(
            ins.packed(),
            self.hasher.key(ins.line()).packed(),
            "SigKey built from a different configuration"
        );
        let ib = self.hasher.index_bits();
        if let (Some(tp), Some(ip)) = (test.packed(), ins.packed()) {
            (0..self.config.banks).all(|bank| {
                let t = (tp >> (bank as u32 * ib)) as u32 & ((1 << ib) - 1);
                let i = (ip >> (bank as u32 * ib)) as u32 & ((1 << ib) - 1);
                t == i || self.get_bit(self.bit_pos(bank, t))
            })
        } else {
            (0..self.config.banks).all(|bank| {
                let t = self.hasher.index(bank, test.line().index());
                let i = self.hasher.index(bank, ins.line().index());
                t == i || self.get_bit(self.bit_pos(bank, t))
            })
        }
    }

    /// Flash-clears the signature (the `clear Sig` instruction of the
    /// FlexWatcher API extension, Table 4(a), and part of the abort /
    /// context-switch sequence).
    #[inline]
    pub fn clear(&mut self) {
        // `nonempty == false` guarantees every bit word is already zero
        // (inserts set it; `load_words` recomputes it exactly), so the
        // memset can be skipped for signatures that saw no inserts.
        if self.nonempty {
            self.bits.fill(0);
        }
        self.inserted = 0;
        self.nonempty = false;
    }

    /// True if no address has been inserted since the last clear/load.
    /// O(1): tracked by a flag rather than scanning the bit words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.nonempty
    }

    /// Number of `insert` calls since the last clear (not the number of
    /// distinct lines). Used by the simulator's statistics.
    pub fn inserted_count(&self) -> u64 {
        self.inserted
    }

    /// Fraction of signature bits currently set, in `[0, 1]`. A rough
    /// predictor of the false-positive rate.
    pub fn occupancy(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.config.total_bits as f64
    }

    /// Unions `other` into `self` (bitwise OR). This is the hardware
    /// `Sig` message operation used to build the directory's summary
    /// signatures on a context switch (paper §5).
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different configurations (their
    /// bits would not be comparable).
    pub fn union_with(&mut self, other: &Signature) {
        assert_eq!(
            self.config, other.config,
            "cannot union signatures with different configurations"
        );
        for (dst, src) in self.bits.iter_mut().zip(&other.bits) {
            *dst |= *src;
        }
        self.inserted += other.inserted;
        self.nonempty |= other.nonempty;
    }

    /// Tests whether the *sets of signature bits* of `self` and `other`
    /// intersect. This is the conservative set-intersection test a
    /// summary signature supports; unlike [`Signature::contains`] it
    /// needs no address.
    ///
    /// # Panics
    ///
    /// Panics if configurations differ.
    pub fn intersects(&self, other: &Signature) -> bool {
        assert_eq!(
            self.config, other.config,
            "cannot intersect signatures with different configurations"
        );
        // Bloom intersection: some bank must... in fact for banked
        // filters, a common element implies a shared bit in *every*
        // bank. Test per-bank to reduce false positives.
        let bank_words = self.bank_bits() / 64;
        if bank_words == 0 {
            // Banks smaller than a word: fall back to whole-filter test.
            return self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0);
        }
        (0..self.config.banks).all(|bank| {
            let lo = bank * bank_words;
            (lo..lo + bank_words).any(|w| self.bits[w] & other.bits[w] != 0)
        })
    }

    /// Raw signature words, most-significant bank last. Software-visible
    /// state: the OS saves these on a context switch.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Restores signature contents previously read with
    /// [`Signature::words`].
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` does not match this configuration.
    pub fn load_words(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.bits.len(),
            "word count {} does not match signature size {}",
            words.len(),
            self.bits.len()
        );
        self.bits.copy_from_slice(words);
        self.inserted = 0;
        self.nonempty = words.iter().any(|&w| w != 0);
    }

    /// Makes `self` a copy of `src` in place, keeping the word buffer:
    /// `clone` without the allocation, for the model checker's refilled
    /// scratch state. The destructuring is exhaustive on purpose — a new
    /// field that is not assigned here must not compile.
    pub fn assign_for_check(&mut self, src: &Signature) {
        let Signature {
            config,
            hasher,
            bits,
            bank_bits,
            inserted,
            nonempty,
        } = src;
        self.config.clone_from(config);
        self.hasher.clone_from(hasher);
        self.bits.clone_from(bits);
        self.bank_bits = *bank_bits;
        self.inserted = *inserted;
        self.nonempty = *nonempty;
    }
}

impl PartialEq for Signature {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.bits == other.bits
    }
}
impl Eq for Signature {}

impl Default for Signature {
    fn default() -> Self {
        Signature::new(SignatureConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        Signature::new(SignatureConfig::paper_default())
    }

    #[test]
    fn insert_then_contains() {
        let mut s = sig();
        for i in 0..1000u64 {
            s.insert(LineAddr(i * 3 + 7));
        }
        for i in 0..1000u64 {
            assert!(s.contains(LineAddr(i * 3 + 7)), "false negative at {i}");
        }
    }

    #[test]
    fn empty_signature_contains_nothing() {
        let s = sig();
        assert!(s.is_empty());
        for i in 0..1000u64 {
            assert!(!s.contains(LineAddr(i)));
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = sig();
        s.insert(LineAddr(99));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(LineAddr(99)));
        assert_eq!(s.inserted_count(), 0);
    }

    #[test]
    fn union_is_superset_of_both() {
        let mut a = sig();
        let mut b = sig();
        for i in 0..100 {
            a.insert(LineAddr(i));
            b.insert(LineAddr(i + 1000));
        }
        let mut u = a.clone();
        u.union_with(&b);
        for i in 0..100 {
            assert!(u.contains(LineAddr(i)));
            assert!(u.contains(LineAddr(i + 1000)));
        }
    }

    /// `insert_would_alias` vs the clone-insert-reprobe oracle, over
    /// enough key pairs to hit both aliasing and non-aliasing banks.
    #[test]
    fn insert_would_alias_matches_oracle() {
        let mut s = sig();
        for i in 0..200u64 {
            s.insert(LineAddr(i * 5 + 3));
        }
        let mut aliases = 0u32;
        for t in 0..40u64 {
            for i in 0..40u64 {
                let test = s.key(LineAddr(t * 911 + 17));
                let ins = s.key(LineAddr(i * 733 + 29));
                let mut oracle = s.clone();
                oracle.insert_key(ins);
                let want = oracle.contains_key(test);
                assert_eq!(
                    s.insert_would_alias(test, ins),
                    want,
                    "test line {} ins line {}",
                    test.line().index(),
                    ins.line().index()
                );
                aliases += u32::from(want);
            }
        }
        // Same-line pairs alias by definition; the suite must exercise
        // both outcomes or the oracle comparison is vacuous.
        assert!(aliases > 0 && aliases < 40 * 40);
        let k = s.key(LineAddr(0xdead));
        assert!(s.insert_would_alias(k, k));
    }

    #[test]
    fn words_roundtrip() {
        let mut a = sig();
        for i in 0..64 {
            a.insert(LineAddr(i * 17));
        }
        let saved: Vec<u64> = a.words().to_vec();
        let mut b = sig();
        b.load_words(&saved);
        assert_eq!(a, b);
        for i in 0..64 {
            assert!(b.contains(LineAddr(i * 17)));
        }
    }

    #[test]
    fn key_api_matches_address_api() {
        let mut by_addr = sig();
        let mut by_key = sig();
        for i in 0..500u64 {
            let line = LineAddr(i * 13 + 1);
            by_addr.insert(line);
            by_key.insert_key(by_key.key(line));
        }
        assert_eq!(by_addr, by_key);
        for i in 0..2000u64 {
            let line = LineAddr(i);
            assert_eq!(
                by_addr.contains(line),
                by_key.contains_key(by_key.key(line)),
                "divergence at line {i}"
            );
        }
    }

    #[test]
    fn is_empty_tracks_loads_and_unions() {
        let mut s = sig();
        assert!(s.is_empty());
        let mut other = sig();
        other.insert(LineAddr(9));
        s.union_with(&other);
        assert!(!s.is_empty());
        s.clear();
        let words = other.words().to_vec();
        s.load_words(&words);
        assert!(!s.is_empty());
        s.load_words(&vec![0u64; words.len()]);
        assert!(s.is_empty());
    }

    #[test]
    fn tiny_signature_has_false_positives_eventually() {
        let mut s = Signature::new(SignatureConfig::tiny());
        for i in 0..64u64 {
            s.insert(LineAddr(i));
        }
        // With 64 bits and 64 inserts, essentially everything aliases.
        let fp = (1000..2000u64).filter(|&i| s.contains(LineAddr(i))).count();
        assert!(fp > 0, "expected false positives in a saturated filter");
    }

    #[test]
    fn paper_config_fp_rate_is_low_at_small_sets() {
        // An average transaction in the paper reads ~80 lines
        // (RandomGraph); the 2048-bit signature should stay accurate.
        let mut s = sig();
        for i in 0..80u64 {
            s.insert(LineAddr(i * 97 + 5));
        }
        let fp = (100_000..110_000u64)
            .filter(|&i| s.contains(LineAddr(i)))
            .count();
        // 4 banks of 512 bits with 80 elements: expected fp rate
        // ~ (80/512)^4 ≈ 0.06%. Allow generous slack.
        assert!(fp < 200, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn intersects_detects_shared_element() {
        let mut a = sig();
        let mut b = sig();
        a.insert(LineAddr(42));
        b.insert(LineAddr(42));
        assert!(a.intersects(&b));
    }

    #[test]
    fn disjoint_small_sets_usually_do_not_intersect() {
        let mut a = sig();
        let mut b = sig();
        a.insert(LineAddr(1));
        b.insert(LineAddr(2));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn occupancy_grows_with_inserts() {
        let mut s = sig();
        assert_eq!(s.occupancy(), 0.0);
        for i in 0..512u64 {
            s.insert(LineAddr(i * 31));
        }
        assert!(s.occupancy() > 0.2);
        assert!(s.occupancy() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn union_rejects_mismatched_configs() {
        let mut a = Signature::new(SignatureConfig::tiny());
        let b = Signature::new(SignatureConfig::paper_default());
        a.union_with(&b);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_size() {
        let _ = Signature::new(SignatureConfig {
            total_bits: 1000,
            banks: 4,
            scheme: HashScheme::H3,
            seed: 0,
        });
    }
}
