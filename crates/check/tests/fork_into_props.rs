//! `Driver::fork_into` ≡ `Driver::fork`, and `Driver::restore` of a
//! `Driver::save` record ≡ `Driver::fork`, by seeded property test.
//!
//! The explorer refills one scratch driver per transition instead of
//! building and dropping a clone, so every buffer the scratch owns is
//! overwritten in place — by hand-written `assign_for_check` methods
//! that must carry over every field and take every shrink, grow and
//! `Some` ↔ `None` path right. The states it keeps are records, each
//! written back into a reused scratch by hand-written `restore`
//! methods under the same obligations — and a record holds only the
//! touched cores and the resident lines, so a restore must also empty
//! every way, core and lane the record does not mention. This suite
//! overwrites a scratch that last held an *unrelated* state, both
//! ways, and requires the result to be indistinguishable from a fresh
//! fork: same canonical hash, same per-core counters and clocks (the
//! canonical projection leaves those out), same enabled ops, and the
//! same again after every enabled op — which is what notices a stale
//! LRU plane, speculative-line list or activity mask.
//!
//! Two seeded random walks supply the states, one given a head start so
//! the two differ in memory pages and directory banks. The checker's
//! geometry never evicts for capacity, so each walk state also appears
//! in a *crowded* variant: plain loads of lines that alias the data
//! line's L1 set push it into the victim buffer — with its speculative
//! buffer, if it has one — and, a few loads later, out into a freshly
//! allocated overflow table.
//!
//! A refill copies only the cores touched on either side
//! (`flextm_sim::Cores::touched`), and a record holds only its
//! source's. On the wide machine each walk state therefore also
//! appears crowded through an *undriven* core, one the checker never
//! maps: consecutive sources then differ in their touched sets in both
//! directions, so a scratch core that its next source never touched is
//! overwritten too. Every machine core's residency, counters and clock
//! are compared, not just the mapped cores'.

use flextm_check::canon::canon;
use flextm_check::{Alphabet, CheckConfig, Driver};
use flextm_sim::{AccessKind, Addr};

/// xorshift64: any deterministic stream will do.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// One random enabled op.
fn step(d: &mut Driver, rng: &mut Rng) {
    let ops = d.enabled_ops();
    d.apply(ops[rng.below(ops.len())]);
}

/// A copy of `d` in which `core` has plainly loaded up to nine lines
/// aliasing data line `l`'s L1 set (4 ways, 2 victim entries): the
/// fifth load moves the set's oldest resident to the victim buffer, the
/// seventh drops it from there — into the overflow table if it was
/// speculatively written.
fn crowded_by(d: &Driver, core: usize, rng: &mut Rng) -> Driver {
    let mut d = d.fork();
    let cfg = d.config().clone();
    let l = rng.below(cfg.lines);
    for k in 1..=rng.below(10) as u64 {
        // 16 sets of 64-byte lines: 0x400 apart is the same set. Stays
        // far below the TSW lines at 0x8000.
        let alias = Addr::new(cfg.data_addr(l).raw() + k * 0x400);
        let _ = d.st.access(core, alias, AccessKind::Load, 0);
    }
    d
}

/// [`crowded_by`] a random driven core.
fn crowded(d: &Driver, rng: &mut Rng) -> Driver {
    let core = d.config().machine_core(rng.below(d.config().cores));
    crowded_by(d, core, rng)
}

/// [`crowded_by`] a random machine core the checker does not drive, if
/// the machine has one.
fn crowded_idle(d: &Driver, rng: &mut Rng) -> Option<Driver> {
    let cfg = d.config();
    let idle: Vec<usize> = (0..cfg.machine_cores())
        .filter(|c| !cfg.core_ids.contains(c))
        .collect();
    (!idle.is_empty()).then(|| crowded_by(d, idle[rng.below(idle.len())], rng))
}

/// Everything observable about two drivers must agree.
fn assert_same(got: &Driver, want: &Driver, ctx: &str) {
    assert_eq!(canon(got), canon(want), "canonical state differs: {ctx}");
    assert_eq!(
        got.st.cores.touched(),
        want.st.cores.touched(),
        "touched sets differ: {ctx}"
    );
    for (i, (g, w)) in got.st.cores.iter().zip(want.st.cores.iter()).enumerate() {
        assert!(
            g.l1.iter_all().eq(w.l1.iter_all()),
            "core {i} L1 residency differs: {ctx}"
        );
        assert_eq!(g.stats, w.stats, "core {i} counters differ: {ctx}");
        assert_eq!(
            got.st.now(i),
            want.st.now(i),
            "core {i} clock differs: {ctx}"
        );
    }
    assert_eq!(
        got.enabled_ops(),
        want.enabled_ops(),
        "enabled ops differ: {ctx}"
    );
}

/// What the crowded variants must have exercised somewhere in a run,
/// or the suite is not testing the paths it says it tests.
#[derive(Default)]
struct Coverage {
    victims: bool,
    victim_data: bool,
    overflow_table: bool,
    /// A copy whose scratch had touched a core its source had not.
    scratch_only_core: bool,
    /// A copy whose source had touched a core its scratch had not.
    source_only_core: bool,
}

impl Coverage {
    fn note(&mut self, src: &Driver, scratch: &Driver) {
        for core in src.st.cores.iter() {
            self.victims |= !core.l1.victims().is_empty();
            self.victim_data |= core.l1.victims().iter().any(|e| e.data.is_some());
            self.overflow_table |= core.ot.is_some();
        }
        let (src, scratch) = (src.st.cores.touched(), scratch.st.cores.touched());
        self.scratch_only_core |= !scratch.subset_of(&src);
        self.source_only_core |= !src.subset_of(&scratch);
    }
}

/// How a scratch driver is made a copy of a source state.
type CopyFn = fn(&Driver, &mut Driver);

/// The explorer's per-transition refill.
fn refill(src: &Driver, scratch: &mut Driver) {
    src.fork_into(scratch);
}

/// What the explorer does with a kept state: record it, and later
/// write the record back into a reused scratch.
fn restore(src: &Driver, scratch: &mut Driver) {
    scratch.restore(&src.save());
}

fn copies_match_forks(
    cfg: CheckConfig,
    seed: u64,
    steps: usize,
    copy: CopyFn,
    coverage: &mut Coverage,
) {
    let name = format!(
        "{} cores x {} lines on {} (seed {seed:#x})",
        cfg.cores,
        cfg.lines,
        cfg.machine_cores()
    );
    let mut rng = Rng(seed);
    let root = Driver::new(cfg);
    let (mut a, mut b) = (root.fork(), root.fork());
    for _ in 0..40 {
        step(&mut b, &mut rng);
    }
    let mut scratch = root.fork();

    for n in 0..steps {
        let (ca, cb) = (crowded(&a, &mut rng), crowded(&b, &mut rng));
        let (ia, ib) = (crowded_idle(&a, &mut rng), crowded_idle(&b, &mut rng));
        // Each source overwrites a scratch that last held the previous
        // one: the other walk, or a variant with more or fewer victims,
        // line buffers, overflow tables and touched cores.
        let sources = [
            ("a", Some(&a)),
            ("b crowded", Some(&cb)),
            ("a crowded", Some(&ca)),
            ("b", Some(&b)),
            ("a crowded idle", ia.as_ref()),
            ("b crowded idle", ib.as_ref()),
        ];
        for (which, src) in sources {
            let Some(src) = src else { continue };
            let ctx = format!("{name}, step {n}, source {which}");
            coverage.note(src, &scratch);
            copy(src, &mut scratch);
            assert_same(&scratch, &src.fork(), &ctx);
            for op in src.enabled_ops() {
                let ctx = format!("{ctx}, after {op}");
                let mut want = src.fork();
                want.apply(op);
                copy(src, &mut scratch);
                scratch.apply(op);
                assert_same(&scratch, &want, &ctx);
            }
        }
        step(&mut a, &mut rng);
        step(&mut b, &mut rng);
    }
}

/// Every configuration, seed and walk length, copying with `copy`; the
/// crowded and undriven variants must have reached every path they are
/// there for.
fn copies_match_forks_on_random_walks(copy: CopyFn) {
    let tx_only = |cfg| CheckConfig {
        alphabet: Alphabet::TxOnly,
        ..cfg
    };
    let mut coverage = Coverage::default();
    for seed in [0x9E37_79B9_7F4A_7C15, 0x0123_4567_89AB_CDEF, 0xF1E7] {
        for (cfg, steps) in [
            (CheckConfig::new(2, 2), 60),
            (tx_only(CheckConfig::new(3, 1)), 60),
            (CheckConfig::wide(2, 1), 30),
        ] {
            copies_match_forks(cfg, seed, steps, copy, &mut coverage);
        }
    }
    assert!(
        coverage.victims && coverage.victim_data && coverage.overflow_table,
        "the walks never produced a victim-buffer resident ({}), one with \
         a line buffer ({}) or an allocated overflow table ({})",
        coverage.victims,
        coverage.victim_data,
        coverage.overflow_table
    );
    assert!(
        coverage.scratch_only_core && coverage.source_only_core,
        "no copy had a core touched on the scratch side only ({}) or on \
         the source side only ({})",
        coverage.scratch_only_core,
        coverage.source_only_core
    );
}

#[test]
fn fork_into_matches_fork_on_random_walks() {
    copies_match_forks_on_random_walks(refill);
}

#[test]
fn restore_matches_fork_on_random_walks() {
    copies_match_forks_on_random_walks(restore);
}
