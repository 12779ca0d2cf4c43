//! Checker configurations: tiny machines whose geometry makes the
//! canonical projection sound (see the crate docs).

use flextm_sig::SignatureConfig;
use flextm_sim::{Addr, LineAddr, MachineConfig};
use std::ops::RangeInclusive;

/// Which subset of the op alphabet the explorer enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alphabet {
    /// Everything: transactional and plain accesses, evictions,
    /// commits, aborts.
    Full,
    /// Transactional ops only (no plain read/write, no evictions).
    /// Shrinks the branching factor for deeper bounded runs.
    TxOnly,
    /// Everything except evictions (keeps strong isolation in play
    /// without the OT-overflow paths).
    NoEvict,
}

impl Alphabet {
    /// Parses the `--alphabet` flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Alphabet::Full),
            "tx" => Some(Alphabet::TxOnly),
            "noevict" => Some(Alphabet::NoEvict),
            _ => None,
        }
    }

    /// True if plain (non-transactional) accesses are enumerated.
    pub fn plain_ops(self) -> bool {
        self != Alphabet::TxOnly
    }

    /// True if explicit evictions are enumerated.
    pub fn evictions(self) -> bool {
        self == Alphabet::Full
    }
}

/// Test-only fault injection: makes [`crate::Driver::commit`] panic
/// when the given core commits with at least `min_writes` distinct
/// lines in its write set. Exists so the violation-reporting and
/// shrinking paths can be exercised (and regression-tested) without a
/// real protocol bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Checker core whose commit fires the fault.
    pub core: usize,
    /// Minimum distinct lines written for the fault to fire.
    pub min_writes: usize,
}

/// Most data lines a configuration may name: each fits its own L1 set
/// ([`CheckConfig::data_addr`]), and the driver's shadow access sets
/// are inline arrays of this many values.
pub const MAX_LINES: usize = 16;

/// Processor counts a configuration may name.
pub const CORES: RangeInclusive<usize> = 2..=16;

/// A checker instance: `cores × lines` with a fixed op alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConfig {
    /// Processor count (2–3 for exhaustive runs, up to 8 for walks).
    pub cores: usize,
    /// Number of distinct data lines in the op alphabet.
    pub lines: usize,
    /// Which ops the explorer enumerates.
    pub alphabet: Alphabet,
    /// Machine core id behind each checker core. Identity under
    /// [`CheckConfig::new`]; [`CheckConfig::wide`] spreads the ids
    /// across the `ProcSet` word seam so CST/directory/owner bits land
    /// in the second 64-bit word — the machine is wide, the explored
    /// state space is not.
    pub core_ids: Vec<usize>,
    /// Test-only commit fault (see [`InjectedFault`]). `None` in every
    /// real run.
    pub injected_fault: Option<InjectedFault>,
}

impl CheckConfig {
    /// A `cores × lines` configuration with the full alphabet.
    pub fn new(cores: usize, lines: usize) -> Self {
        assert!(CORES.contains(&cores), "checker wants {CORES:?} cores");
        assert!(
            (1..=MAX_LINES).contains(&lines),
            "checker wants 1..={MAX_LINES} lines"
        );
        CheckConfig {
            cores,
            lines,
            alphabet: Alphabet::Full,
            core_ids: (0..cores).collect(),
            injected_fault: None,
        }
    }

    /// Like [`CheckConfig::new`], but checker core 0 drives machine
    /// core 0 and checker core `i ≥ 1` drives machine core `63 + i` —
    /// every cross-core interaction then mixes both `ProcSet` words.
    /// The machine itself has `64 + cores` processors, all idle except
    /// the mapped ones.
    pub fn wide(cores: usize, lines: usize) -> Self {
        let mut cfg = Self::new(cores, lines);
        cfg.core_ids = std::iter::once(0)
            .chain((1..cores).map(|i| 63 + i))
            .collect();
        assert!(
            cfg.machine_cores() <= flextm_sig::MAX_CORES,
            "wide checker config exceeds MAX_CORES"
        );
        cfg
    }

    /// The machine core id behind checker core `c`.
    pub fn machine_core(&self, c: usize) -> usize {
        self.core_ids[c]
    }

    /// The checker core driving machine core `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is not a mapped core — the hardware can
    /// only ever report conflicts with cores the checker drives.
    pub fn checker_core(&self, machine: usize) -> usize {
        self.core_ids
            .iter()
            .position(|&id| id == machine)
            .unwrap_or_else(|| panic!("machine core {machine} is not driven by the checker"))
    }

    /// Width of the simulated machine: just enough cores to reach the
    /// highest mapped id.
    pub fn machine_cores(&self) -> usize {
        self.core_ids.iter().max().expect("at least one core") + 1
    }

    /// The simulated machine: real latencies, tiny 64-bit signatures
    /// (so Bloom aliasing is actually reachable), and a geometry where
    /// data and TSW lines all land in distinct L1/L2 ways — no
    /// capacity evictions ever fire, which is what lets the canonical
    /// projection exclude LRU state. `ot_copyback_per_line = 0`
    /// minimizes the NACK window (per-core clock skew can still open
    /// it briefly, but NACKs are architecturally transparent: the
    /// machine charges the retry wait as stall latency and completes
    /// the access).
    pub fn machine(&self) -> MachineConfig {
        MachineConfig {
            l1_bytes: 4 * 1024,
            l1_ways: 4,
            victim_entries: 2,
            l2_bytes: 16 * 1024,
            l2_ways: 8,
            signature: SignatureConfig::tiny(),
            ot_copyback_per_line: 0,
            record_events: false,
            ..MachineConfig::small_test().with_cores(self.machine_cores())
        }
    }

    /// Word address of data line `l` (distinct L1 sets for `l < 16`).
    pub fn data_addr(&self, l: usize) -> Addr {
        debug_assert!(l < self.lines);
        Addr::new(0x1000 + l as u64 * 64)
    }

    /// The line behind [`CheckConfig::data_addr`].
    pub fn data_line(&self, l: usize) -> LineAddr {
        self.data_addr(l).line()
    }

    /// Word address of core `c`'s transaction status word.
    pub fn tsw_addr(&self, c: usize) -> Addr {
        debug_assert!(c < self.cores);
        Addr::new(0x8000 + c as u64 * 64)
    }

    /// The line behind [`CheckConfig::tsw_addr`].
    pub fn tsw_line(&self, c: usize) -> LineAddr {
        self.tsw_addr(c).line()
    }
}
