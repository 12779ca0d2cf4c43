//! `Driver::restore` of a `Driver::record` is the recorded state, by
//! seeded property test against an independent reference.
//!
//! The explorer builds every state it steps by restoring a record into
//! a reused driver, and writes each node's record over the one before
//! it; the states it keeps are exact-size clones of such records. Both
//! halves are hand-written per type — every `record` and `restore` must
//! carry over every field and take every shrink, grow and `Some` ↔
//! `None` path right — and a record holds only the touched cores and
//! the resident lines, so a restore must also empty every way, core and
//! lane the record does not mention. This suite restores into a scratch
//! driver that last held an *unrelated* state, from a fresh record and
//! from one written over the previous source's, and requires the
//! result to be indistinguishable from the source: same canonical
//! hash, same per-core counters and clocks (the canonical projection
//! leaves those out), same enabled ops, and the same again after every
//! enabled op — which is what notices a stale LRU plane,
//! speculative-line list or activity mask. The reference copies
//! nothing: every state it is compared with is replayed from
//! `Driver::new`, so a bug shared by `record` and `restore` cannot hide
//! in it.
//!
//! Two seeded random walks supply the states, one given a head start so
//! the two differ in memory pages and directory banks. The checker's
//! geometry never evicts for capacity, so each walk state also appears
//! in a *crowded* variant: plain loads of lines that alias the data
//! line's L1 set push it into the victim buffer — with its speculative
//! buffer, if it has one — and, a few loads later, out into a freshly
//! allocated overflow table.
//!
//! A record holds only its source's touched cores
//! (`flextm_sim::Cores::touched`). On the wide machine each walk state
//! therefore also appears crowded through an *undriven* core, one the
//! checker never maps: consecutive sources then differ in their touched
//! sets in both directions, so a scratch core that its next source
//! never touched is overwritten too. Every machine core's residency,
//! counters and clock are compared, not just the mapped cores'.

use flextm_check::canon::canon;
use flextm_check::{Alphabet, CheckConfig, Driver, Op, Snapshot};
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

/// A random walk: its driver, and the ops that built it.
struct Walk {
    d: Driver,
    ops: Vec<Op>,
}

impl Walk {
    fn new(cfg: &CheckConfig) -> Self {
        Walk {
            d: Driver::new(cfg.clone()),
            ops: Vec::new(),
        }
    }

    /// The walk's state.
    fn source(&self) -> Source<'_> {
        Source {
            ops: &self.ops,
            loads: Vec::new(),
        }
    }

    /// One random enabled op.
    fn step(&mut self, rng: &mut Rng) {
        let ops = self.d.enabled_ops();
        let op = ops[rng.below(ops.len())];
        self.d.apply(op);
        self.ops.push(op);
    }
}

/// A state to restore: a walk's ops, then plain loads `(core, addr)`.
struct Source<'a> {
    ops: &'a [Op],
    loads: Vec<(usize, Addr)>,
}

impl Source<'_> {
    /// The state, rebuilt from `Driver::new` without copying anything.
    fn replay(&self, cfg: &CheckConfig) -> Driver {
        let mut d = Driver::new(cfg.clone());
        for &op in self.ops {
            d.apply(op);
        }
        for &(core, addr) in &self.loads {
            let _ = d.st.access(core, addr, AccessKind::Load, 0);
        }
        d
    }
}

/// Up to nine plain loads by `core` of lines aliasing a random data
/// line's L1 set (4 ways, 2 victim entries): the fifth load moves the
/// set's oldest resident to the victim buffer, the seventh drops it
/// from there — into the overflow table if it was speculatively
/// written.
fn crowding(cfg: &CheckConfig, core: usize, rng: &mut Rng) -> Vec<(usize, Addr)> {
    let l = rng.below(cfg.lines);
    (1..=rng.below(10) as u64)
        // 16 sets of 64-byte lines: 0x400 apart is the same set. Stays
        // far below the TSW lines at 0x8000.
        .map(|k| (core, Addr::new(cfg.data_addr(l).raw() + k * 0x400)))
        .collect()
}

/// [`crowding`] by a random driven core.
fn crowded<'a>(cfg: &CheckConfig, w: &'a Walk, rng: &mut Rng) -> Source<'a> {
    let core = cfg.machine_core(rng.below(cfg.cores));
    Source {
        ops: &w.ops,
        loads: crowding(cfg, core, rng),
    }
}

/// [`crowding`] by a random machine core the checker does not drive, if
/// the machine has one.
fn crowded_idle<'a>(cfg: &CheckConfig, w: &'a Walk, rng: &mut Rng) -> Option<Source<'a>> {
    let idle: Vec<usize> = (0..cfg.machine_cores())
        .filter(|c| !cfg.core_ids.contains(c))
        .collect();
    (!idle.is_empty()).then(|| Source {
        ops: &w.ops,
        loads: crowding(cfg, idle[rng.below(idle.len())], rng),
    })
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
    /// A restore whose scratch had touched a core its source had not.
    scratch_only_core: bool,
    /// A restore whose source had touched a core its scratch had not.
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

/// How a scratch driver is made the source state, given a record that
/// last held the previous source.
type CopyFn = fn(&Driver, &mut Snapshot, &mut Driver);

/// A kept state: a fresh exact-size record, restored.
fn fresh_record(src: &Driver, _: &mut Snapshot, scratch: &mut Driver) {
    scratch.restore(&src.save());
}

/// The explorer's per-node record: written over the last one, restored.
fn reused_record(src: &Driver, rec: &mut Snapshot, scratch: &mut Driver) {
    src.record(rec);
    scratch.restore(rec);
}

fn restores_match_replay(
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
    let (mut a, mut b) = (Walk::new(&cfg), Walk::new(&cfg));
    for _ in 0..40 {
        b.step(&mut rng);
    }
    let mut scratch = Driver::new(cfg.clone());
    let mut rec = scratch.save();

    for n in 0..steps {
        let (ca, cb) = (crowded(&cfg, &a, &mut rng), crowded(&cfg, &b, &mut rng));
        let (ia, ib) = (
            crowded_idle(&cfg, &a, &mut rng),
            crowded_idle(&cfg, &b, &mut rng),
        );
        // Each source overwrites a scratch (and a record) that last
        // held the previous one: the other walk, or a variant with more
        // or fewer victims, line buffers, overflow tables and touched
        // cores.
        let sources = [
            ("a", Some(a.source())),
            ("b crowded", Some(cb)),
            ("a crowded", Some(ca)),
            ("b", Some(b.source())),
            ("a crowded idle", ia),
            ("b crowded idle", ib),
        ];
        for (which, src) in sources {
            let Some(src) = src else { continue };
            let ctx = format!("{name}, step {n}, source {which}");
            let want = src.replay(&cfg);
            coverage.note(&want, &scratch);
            copy(&want, &mut rec, &mut scratch);
            assert_same(&scratch, &want, &ctx);
            for op in want.enabled_ops() {
                let ctx = format!("{ctx}, after {op}");
                let mut after = src.replay(&cfg);
                after.apply(op);
                copy(&want, &mut rec, &mut scratch);
                scratch.apply(op);
                assert_same(&scratch, &after, &ctx);
            }
        }
        a.step(&mut rng);
        b.step(&mut rng);
    }
}

/// Every configuration, seed and walk length, copying with `copy`; the
/// crowded and undriven variants must have reached every path they are
/// there for.
fn restores_match_replay_on_random_walks(copy: CopyFn) {
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
            restores_match_replay(cfg, seed, steps, copy, &mut coverage);
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
        "no restore had a core touched on the scratch side only ({}) or on \
         the source side only ({})",
        coverage.scratch_only_core,
        coverage.source_only_core
    );
}

#[test]
fn restore_matches_replay_on_random_walks() {
    restores_match_replay_on_random_walks(fresh_record);
}

#[test]
fn reused_record_matches_replay_on_random_walks() {
    restores_match_replay_on_random_walks(reused_record);
}
