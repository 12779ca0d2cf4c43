//! Hash functions that map cache-line addresses to signature bits.
//!
//! Sanchez et al. ("Implementing Signatures for Transactional Memory",
//! MICRO 2007 — cited by the paper for its area numbers) compare
//! *bit-selection* and *H3* hash families for banked signatures. We
//! implement both; the simulator defaults to H3, which has measurably
//! better false-positive behaviour at equal area and is what the paper's
//! 2048-bit 4-banked configuration assumes.

/// Family of hash functions used to index signature banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashScheme {
    /// Each bank indexes with a different contiguous slice of address
    /// bits. Cheap (pure wiring in hardware) but weak when the address
    /// stream is strided.
    BitSelect,
    /// H3 matrix hashing: each index bit is the XOR parity of a random
    /// subset of address bits. Near-ideal Bloom behaviour; the random
    /// subsets are derived from a fixed seed so the mapping is
    /// deterministic across runs.
    #[default]
    H3,
}

/// A line address bundled with its signature bank indices, computed
/// once by [`LineHasher::key`] and reusable against every signature
/// built from the same configuration (`Rsig`/`Wsig` of all cores, the
/// summary signatures, the overflow tables' `Osig`).
///
/// The protocol hot path makes one key per memory access and threads it
/// through every membership test that access performs, instead of
/// re-hashing the same line through the H3 matrices at each test.
/// Key-based operations are bit-for-bit identical to the address-based
/// API: the packed indices are exactly the ones [`LineHasher::index`]
/// produces, and configurations whose indices do not fit in one `u64`
/// fall back to per-test hashing of the carried address.
#[derive(Debug, Clone, Copy)]
pub struct SigKey {
    line: crate::LineAddr,
    /// All bank indices packed contiguously (`index_bits` apart, bank 0
    /// in the low bits), or `None` when `banks * index_bits > 64`.
    packed: Option<u64>,
}

impl SigKey {
    /// The line address this key was derived from.
    #[inline]
    pub fn line(self) -> crate::LineAddr {
        self.line
    }

    /// The packed bank indices, if the configuration packs.
    #[inline]
    pub(crate) fn packed(self) -> Option<u64> {
        self.packed
    }
}

/// A concrete, deterministic hasher for one signature configuration:
/// `banks` independent hash functions, each producing an index in
/// `[0, bank_bits)`.
#[derive(Debug, Clone)]
pub struct LineHasher {
    scheme: HashScheme,
    banks: usize,
    index_bits: u32,
    /// For H3: `banks * index_bits` column vectors; index bit `j` of
    /// bank `b` is `parity(addr & matrix[b * index_bits + j])`. Empty
    /// for BitSelect, which is pure wiring.
    matrix: &'static [u64],
    /// Byte-sliced H3 tables (the standard software trick): H3 is
    /// linear over XOR, so the packed indices of an address are the XOR
    /// of eight per-byte table entries — 8 loads instead of
    /// `banks * index_bits` mask-and-parity steps. `Some` only for H3
    /// configurations whose indices fit in one `u64`
    /// (`banks * index_bits <= 64`, true of every paper configuration).
    ///
    /// Both references point into the process-wide [`h3_params`] memo:
    /// one matrix and one 16 KiB table serve every signature of every
    /// machine with that configuration, so the table stays hot instead
    /// of being replicated into every core's cache footprint, and
    /// cloning a hasher — the model checker clones 2 × cores
    /// signatures per fork — copies five words and touches no
    /// reference count.
    packed: Option<&'static [[u64; 256]; 8]>,
}

/// SplitMix64: tiny deterministic PRNG used only to derive the fixed H3
/// matrices (keeps this crate dependency-free).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed-derived constants of an H3 hasher.
struct H3Params {
    matrix: Box<[u64]>,
    packed: Option<Box<[[u64; 256]; 8]>>,
}

/// Builds (or fetches) the H3 matrix of `columns` column vectors derived
/// from `seed`, with its byte-sliced tables when the indices pack into
/// one `u64`. Every signature on a machine uses the same configuration,
/// so the constants are memoized process-wide by `(seed, columns)` and
/// never freed (a process meets a handful of configurations). Both are
/// pure functions of the key, so memoization cannot change results.
fn h3_params(seed: u64, columns: usize) -> &'static H3Params {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type Memo = Mutex<HashMap<(u64, usize), &'static H3Params>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Mutex::default);
    let mut memo = memo.lock().expect("H3 constants memo poisoned");
    memo.entry((seed, columns)).or_insert_with(|| {
        let mut state = seed ^ 0xF1EC_51C0_DE00_0001;
        let matrix: Box<[u64]> = (0..columns).map(|_| splitmix64(&mut state)).collect();
        let packed = (columns <= 64).then(|| {
            let mut tables = Box::new([[0u64; 256]; 8]);
            for (byte_pos, table) in tables.iter_mut().enumerate() {
                for (val, entry) in table.iter_mut().enumerate() {
                    let chunk = (val as u64) << (8 * byte_pos);
                    for (col, &mask) in matrix.iter().enumerate() {
                        let parity = u64::from((chunk & mask).count_ones() & 1);
                        *entry |= parity << col;
                    }
                }
            }
            tables
        });
        Box::leak(Box::new(H3Params { matrix, packed }))
    })
}

impl LineHasher {
    /// Creates a hasher producing `banks` indices of `index_bits` bits
    /// each. The H3 matrices are derived from `seed` (the simulator uses
    /// a fixed seed so signatures behave identically across runs).
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or `index_bits == 0` or `index_bits > 32`.
    pub fn new(scheme: HashScheme, banks: usize, index_bits: u32, seed: u64) -> Self {
        assert!(banks > 0, "signature must have at least one bank");
        assert!(
            index_bits > 0 && index_bits <= 32,
            "bank index width must be in 1..=32 bits"
        );
        let (matrix, packed): (&[u64], _) = match scheme {
            HashScheme::BitSelect => (&[], None),
            HashScheme::H3 => {
                let params = h3_params(seed, banks * index_bits as usize);
                (&params.matrix, params.packed.as_deref())
            }
        };
        LineHasher {
            scheme,
            banks,
            index_bits,
            matrix,
            packed,
        }
    }

    /// All bank indices for `line` at once, packed contiguously
    /// (`index_bits` apart, bank 0 in the low bits), or `None` when the
    /// configuration has no byte-sliced tables. Produces exactly the
    /// indices [`LineHasher::index`] would.
    #[inline]
    pub fn packed_indices(&self, line: u64) -> Option<u64> {
        let tables = self.packed?;
        let mut acc = 0u64;
        for (byte_pos, table) in tables.iter().enumerate() {
            acc ^= table[(line >> (8 * byte_pos)) as usize & 0xFF];
        }
        Some(acc)
    }

    /// Computes the hash-once key for `line`: every bank index, packed
    /// into one word when the configuration allows it (always true for
    /// the paper's configurations). For H3 the packed byte-sliced
    /// tables are used; BitSelect and unpacked H3 fall back to
    /// [`LineHasher::index`], so the key carries exactly the indices
    /// the address-based API would compute.
    #[inline]
    pub fn key(&self, line: crate::LineAddr) -> SigKey {
        let packed = self
            .packed_indices(line.index())
            .or_else(|| self.pack_slow(line.index()));
        SigKey { line, packed }
    }

    /// Packs per-bank [`LineHasher::index`] results into the
    /// [`LineHasher::packed_indices`] layout, for configurations
    /// without byte-sliced tables (BitSelect, or small-seeded H3 used
    /// in tests). `None` when the indices do not fit in 64 bits.
    fn pack_slow(&self, line: u64) -> Option<u64> {
        (self.banks * self.index_bits as usize <= 64).then(|| {
            let mut acc = 0u64;
            for bank in 0..self.banks {
                acc |= u64::from(self.index(bank, line)) << (bank as u32 * self.index_bits);
            }
            acc
        })
    }

    /// Number of independent hash functions (= signature banks).
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Width of each produced index, in bits.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Hash scheme in use.
    pub fn scheme(&self) -> HashScheme {
        self.scheme
    }

    /// The index selected in bank `bank` for line address `line`.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= self.banks()`.
    pub fn index(&self, bank: usize, line: u64) -> u32 {
        assert!(bank < self.banks, "bank {bank} out of range");
        match self.scheme {
            HashScheme::BitSelect => {
                // Bank b reads index_bits starting at a bank-specific
                // offset, wrapping within 64 bits.
                let shift = (bank as u32 * self.index_bits) % (64 - self.index_bits);
                ((line >> shift) & ((1u64 << self.index_bits) - 1)) as u32
            }
            HashScheme::H3 => {
                let base = bank * self.index_bits as usize;
                let mut idx = 0u32;
                for j in 0..self.index_bits as usize {
                    let parity = (line & self.matrix[base + j]).count_ones() & 1;
                    idx |= parity << j;
                }
                idx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h3_is_deterministic_across_instances() {
        let a = LineHasher::new(HashScheme::H3, 4, 9, 42);
        let b = LineHasher::new(HashScheme::H3, 4, 9, 42);
        for line in [0u64, 1, 0xdead_beef, u64::MAX] {
            for bank in 0..4 {
                assert_eq!(a.index(bank, line), b.index(bank, line));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_mappings() {
        let a = LineHasher::new(HashScheme::H3, 4, 9, 1);
        let b = LineHasher::new(HashScheme::H3, 4, 9, 2);
        let differs = (0..256u64).any(|line| a.index(0, line) != b.index(0, line));
        assert!(differs, "seeds 1 and 2 produced identical hash functions");
    }

    #[test]
    fn indices_stay_in_range() {
        for scheme in [HashScheme::BitSelect, HashScheme::H3] {
            let h = LineHasher::new(scheme, 4, 9, 7);
            for line in 0..4096u64 {
                for bank in 0..4 {
                    assert!(h.index(bank, line) < 512);
                }
            }
        }
    }

    #[test]
    fn bit_select_uses_distinct_slices() {
        let h = LineHasher::new(HashScheme::BitSelect, 2, 8, 0);
        // Bank 0 reads bits [0,8); bank 1 reads bits [8,16).
        assert_eq!(h.index(0, 0xAB), 0xAB);
        assert_eq!(h.index(1, 0xAB00), 0xAB);
    }

    #[test]
    #[should_panic(expected = "bank index width")]
    fn rejects_zero_index_bits() {
        let _ = LineHasher::new(HashScheme::H3, 4, 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_bank() {
        let h = LineHasher::new(HashScheme::H3, 2, 8, 0);
        let _ = h.index(2, 0);
    }

    #[test]
    fn key_matches_per_bank_indices() {
        for scheme in [HashScheme::BitSelect, HashScheme::H3] {
            let h = LineHasher::new(scheme, 4, 9, 11);
            for line in [0u64, 1, 63, 0xdead_beef, u64::MAX] {
                let key = h.key(crate::LineAddr(line));
                assert_eq!(key.line(), crate::LineAddr(line));
                let packed = key.packed().expect("4x9 bits pack");
                for bank in 0..4 {
                    let idx = (packed >> (bank * 9)) as u32 & 0x1FF;
                    assert_eq!(idx, h.index(bank, line), "{scheme:?} bank {bank}");
                }
            }
        }
    }

    #[test]
    fn oversized_configurations_do_not_pack() {
        // 4 banks x 20 bits = 80 bits: no packed form; key falls back
        // to carrying only the address.
        let h = LineHasher::new(HashScheme::H3, 4, 20, 5);
        assert!(h.key(crate::LineAddr(42)).packed().is_none());
    }

    #[test]
    fn h3_spreads_strided_addresses() {
        // Strided access patterns are the weakness of bit-selection;
        // H3 should spread a stride-64 sequence over most of the bank.
        let h = LineHasher::new(HashScheme::H3, 1, 9, 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..512u64 {
            seen.insert(h.index(0, i * 64));
        }
        assert!(
            seen.len() > 256,
            "H3 mapped 512 strided lines onto only {} distinct indices",
            seen.len()
        );
    }
}
