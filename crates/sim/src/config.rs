//! Machine configuration: Table 3(a) of the paper.

use flextm_sig::{SignatureConfig, MAX_CORES};

/// A rejected machine configuration. Returned by
/// [`MachineConfig::validate`] (and surfaced by `Machine::try_new`)
/// instead of panicking deep inside the protocol — the old
/// `assert!(proc < 64)` in the CST register file fired only on the
/// first cross-processor conflict, long after the misconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `cores` exceeds the width of the per-processor bit vectors
    /// (CSTs, directory owner/sharer sets, activity masks).
    TooManyCores {
        /// The core count the configuration asked for.
        requested: usize,
        /// The hard machine-width cap, `flextm_sig::MAX_CORES`.
        max: usize,
    },
    /// A machine needs at least one core.
    NoCores,
    /// A cache's set count is not a power of two. Both set-index
    /// computations mask with `index & (nsets - 1)`, so a
    /// non-power-of-two count would silently alias distinct sets
    /// instead of erroring.
    SetsNotPowerOfTwo {
        /// Which cache geometry is at fault (`"l1_bytes/l1_ways"` or
        /// `"l2_bytes/l2_ways"`).
        field: &'static str,
        /// The offending set count.
        sets: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooManyCores { requested, max } => write!(
                f,
                "machine configuration requests {requested} cores, but the \
                 per-processor bit vectors (CSTs, directory owner sets, \
                 activity masks) support at most {max}"
            ),
            ConfigError::NoCores => {
                write!(f, "machine configuration requests zero cores")
            }
            ConfigError::SetsNotPowerOfTwo { field, sets } => write!(
                f,
                "cache geometry {field} yields {sets} sets, which is not a \
                 power of two; the set index is computed with a mask and \
                 would silently alias sets"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the simulated chip multiprocessor.
///
/// Defaults reproduce Table 3(a): a 16-way CMP of 1.2 GHz in-order,
/// single-issue cores (non-memory IPC = 1), 32 KB 2-way private L1s with
/// 64-byte blocks and a 32-entry victim buffer, an 8 MB shared L2
/// (20-cycle latency), 250-cycle memory, a 4-ary tree interconnect with
/// 1-cycle links, and 2048-bit signatures.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processor cores (Table 3(a): 16).
    pub cores: usize,
    /// L1 data cache total size in bytes (32 KB).
    pub l1_bytes: usize,
    /// L1 associativity (2-way).
    pub l1_ways: usize,
    /// Victim buffer entries next to each L1 (32). `usize::MAX` models
    /// the unbounded victim buffer of the §7.3 overflow ablation.
    pub victim_entries: usize,
    /// L1 hit latency in cycles (1).
    pub l1_latency: u64,
    /// L2 access latency in cycles (20).
    pub l2_latency: u64,
    /// Main memory latency in cycles (250).
    pub mem_latency: u64,
    /// Interconnect link latency (1 cycle per hop, 4-ary tree).
    pub link_latency: u64,
    /// Radix of the interconnect tree (4).
    pub tree_radix: usize,
    /// L2 cache total size in bytes (8 MB) — used for the tag model that
    /// decides when directory state must be recreated from signatures.
    pub l2_bytes: usize,
    /// L2 associativity (8-way).
    pub l2_ways: usize,
    /// Read/write signature configuration (2048-bit, 4-banked).
    pub signature: SignatureConfig,
    /// Per-line cost, in cycles, of the overflow-table controller's
    /// commit-time copy-back microcode (runs in the background; requests
    /// that hit the Osig during copy-back are NACKed).
    pub ot_copyback_per_line: u64,
    /// Extra latency charged when an L1 miss is satisfied from the
    /// overflow table instead of the L2 (tag walk in virtual memory).
    pub ot_lookup_latency: u64,
    /// Latency of a NACK retry when a request hits a committed OT during
    /// copy-back.
    pub nack_retry_latency: u64,
    /// Cost of the software trap that allocates an overflow table on the
    /// first TMI eviction of a transaction.
    pub ot_alloc_trap_latency: u64,
    /// §7.3 ablation: idealized unbounded buffering for TMI lines (the
    /// paper's "unbounded victim buffer" comparison point) without
    /// changing capacity for non-speculative lines.
    pub unbounded_tmi_victim: bool,
    /// Record a detailed event log (tests use this; benchmarks leave it
    /// off).
    pub record_events: bool,
    /// Disable the scheduler's fast paths (the lease horizon and the
    /// local `work`/`stall`/`now` ops): every operation then goes
    /// through the full posted-op rendezvous, one at a time. The
    /// schedule (and therefore every event, counter, and clock) is
    /// identical either way — this knob is the reference the
    /// determinism suite holds the fast paths to, and lets regressions
    /// be bisected to scheduling vs. protocol changes.
    pub strict_lockstep: bool,
}

impl MachineConfig {
    /// The paper's 16-way CMP (Table 3(a)).
    pub fn paper_default() -> Self {
        MachineConfig {
            cores: 16,
            l1_bytes: 32 * 1024,
            l1_ways: 2,
            victim_entries: 32,
            l1_latency: 1,
            l2_latency: 20,
            mem_latency: 250,
            link_latency: 1,
            tree_radix: 4,
            l2_bytes: 8 * 1024 * 1024,
            l2_ways: 8,
            signature: SignatureConfig::paper_default(),
            ot_copyback_per_line: 30,
            ot_lookup_latency: 60,
            nack_retry_latency: 40,
            ot_alloc_trap_latency: 200,
            unbounded_tmi_victim: false,
            record_events: false,
            strict_lockstep: false,
        }
    }

    /// A small configuration for unit tests: 4 cores, 4 KB direct-ish
    /// L1s so that evictions and overflows are easy to provoke.
    pub fn small_test() -> Self {
        MachineConfig {
            cores: 4,
            l1_bytes: 4 * 1024,
            l1_ways: 2,
            victim_entries: 4,
            l2_bytes: 64 * 1024,
            record_events: true,
            ..Self::paper_default()
        }
    }

    /// Same machine with a different core count (the Fig. 4/5 sweeps run
    /// 1..=16 threads on correspondingly sized machines).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Validates machine-wide limits that the protocol state relies on.
    /// Called by `Machine::new`/`Machine::try_new`; every processor id
    /// that reaches a `ProcSet` afterwards is in range by construction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::NoCores);
        }
        if self.cores > MAX_CORES {
            return Err(ConfigError::TooManyCores {
                requested: self.cores,
                max: MAX_CORES,
            });
        }
        // Set counts must be powers of two: both caches index sets with
        // `index & (nsets - 1)`. Geometry that does not divide at all is
        // left to the loud asserts in `l1_sets`/`l2_sets`.
        let l1_lines = self.l1_bytes / flextm_sig::LINE_BYTES as usize;
        if self.l1_ways > 0 && l1_lines.is_multiple_of(self.l1_ways) {
            let sets = l1_lines / self.l1_ways;
            if !sets.is_power_of_two() {
                return Err(ConfigError::SetsNotPowerOfTwo {
                    field: "l1_bytes/l1_ways",
                    sets,
                });
            }
        }
        let l2_lines = self.l2_bytes / flextm_sig::LINE_BYTES as usize;
        if self.l2_ways > 0 && l2_lines.is_multiple_of(self.l2_ways) {
            let sets = l2_lines / self.l2_ways;
            if !sets.is_power_of_two() {
                return Err(ConfigError::SetsNotPowerOfTwo {
                    field: "l2_bytes/l2_ways",
                    sets,
                });
            }
        }
        Ok(())
    }

    /// Number of 64-byte lines per L1 set. Panics on malformed geometry.
    pub fn l1_sets(&self) -> usize {
        let lines = self.l1_bytes / flextm_sig::LINE_BYTES as usize;
        assert!(
            self.l1_ways > 0 && lines.is_multiple_of(self.l1_ways),
            "L1 geometry does not divide: {} lines, {} ways",
            lines,
            self.l1_ways
        );
        lines / self.l1_ways
    }

    /// Number of lines per L2 set.
    pub fn l2_sets(&self) -> usize {
        let lines = self.l2_bytes / flextm_sig::LINE_BYTES as usize;
        assert!(
            self.l2_ways > 0 && lines.is_multiple_of(self.l2_ways),
            "L2 geometry does not divide: {} lines, {} ways",
            lines,
            self.l2_ways
        );
        lines / self.l2_ways
    }

    /// One-way latency between a core and the shared L2 through the
    /// tree interconnect (hops × link latency).
    pub fn core_to_l2_hops(&self) -> u64 {
        // Height of an n-ary tree over `cores` leaves; the L2 sits at
        // the root.
        let mut levels = 0u64;
        let mut span = 1usize;
        while span < self.cores.max(1) {
            span *= self.tree_radix.max(2);
            levels += 1;
        }
        levels.max(1) * self.link_latency
    }

    /// Latency of an L1-miss request serviced by the L2 (round trip).
    pub fn l2_round_trip(&self) -> u64 {
        self.l2_latency + 2 * self.core_to_l2_hops()
    }

    /// Extra latency when the directory must forward to one or more
    /// remote L1s (three-hop transaction).
    pub fn forward_penalty(&self) -> u64 {
        self.l1_latency + 2 * self.core_to_l2_hops()
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let c = MachineConfig::paper_default();
        assert_eq!(c.l1_sets(), 256); // 32 KB / 64 B / 2 ways
        assert_eq!(c.l2_sets(), 16384); // 8 MB / 64 B / 8 ways
        assert_eq!(c.cores, 16);
    }

    #[test]
    fn tree_latency_is_monotone_in_cores() {
        let small = MachineConfig::paper_default().with_cores(4);
        let big = MachineConfig::paper_default().with_cores(64);
        assert!(small.core_to_l2_hops() <= big.core_to_l2_hops());
        assert!(small.core_to_l2_hops() >= 1);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn bad_geometry_panics() {
        let mut c = MachineConfig::paper_default();
        c.l1_ways = 3;
        let _ = c.l1_sets();
    }

    #[test]
    fn validate_rejects_non_power_of_two_sets() {
        // 96 KB / 64 B / 2 ways = 768 sets: divides cleanly, so the
        // geometry asserts stay quiet, but the `& (nsets - 1)` set mask
        // would alias. This used to slip through validate().
        let mut c = MachineConfig::paper_default();
        c.l1_bytes = 96 * 1024;
        assert_eq!(
            c.validate(),
            Err(ConfigError::SetsNotPowerOfTwo {
                field: "l1_bytes/l1_ways",
                sets: 768
            })
        );
        let msg = c.validate().unwrap_err().to_string();
        assert!(
            msg.contains("l1_bytes"),
            "message must name the field: {msg}"
        );
        assert!(msg.contains("768"), "message must name the count: {msg}");

        let mut c = MachineConfig::paper_default();
        c.l2_bytes = 6 * 1024 * 1024; // 12288 sets at 8 ways
        assert_eq!(
            c.validate(),
            Err(ConfigError::SetsNotPowerOfTwo {
                field: "l2_bytes/l2_ways",
                sets: 12288
            })
        );

        // Non-dividing geometry is not validate()'s business: it still
        // panics loudly at l1_sets()/l2_sets() (see bad_geometry_panics).
        let mut c = MachineConfig::paper_default();
        c.l1_ways = 3;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_accepts_every_supported_width() {
        for cores in [1, 16, 64, 65, 128] {
            assert_eq!(
                MachineConfig::paper_default().with_cores(cores).validate(),
                Ok(()),
                "{cores} cores must validate"
            );
        }
    }

    #[test]
    fn validate_names_the_requested_core_count() {
        let err = MachineConfig::paper_default()
            .with_cores(129)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyCores {
                requested: 129,
                max: MAX_CORES
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("129"), "message must name the request: {msg}");
        assert!(msg.contains("128"), "message must name the cap: {msg}");
        assert_eq!(
            MachineConfig::paper_default().with_cores(0).validate(),
            Err(ConfigError::NoCores)
        );
    }
}
