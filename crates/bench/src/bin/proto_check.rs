//! `proto_check`: command-line front end for the `flextm-check`
//! explicit-state model checker.
//!
//! ```text
//! # exhaustive, to fixpoint (default 2 cores x 1 line, full alphabet)
//! cargo run --release -p flextm-bench --bin proto_check
//!
//! # parallel bounded-depth exhaustive at 3x1
//! cargo run --release -p flextm-bench --bin proto_check -- \
//!     --cores 3 --lines 1 --depth 7 --jobs 4
//!
//! # random walk at 8x8
//! cargo run --release -p flextm-bench --bin proto_check -- \
//!     --cores 8 --lines 8 --walk --steps 200000 --seed 42
//!
//! # liveness: fair abort/grant cycle search over the CM-extended graph
//! cargo run --release -p flextm-bench --bin proto_check -- \
//!     --cores 2 --lines 2 --liveness
//! ```
//!
//! Exits 0 on a clean run, 1 on an invariant violation or livelock (the
//! shrunk schedule / abort-cycle witness is printed), 2 on bad usage.
//!
//! Every JSON result echoes the run parameters (`cores`, `lines`,
//! `wide`, `alphabet`, and the mode-specific knobs) so downstream
//! tooling can regroup mixed result streams without re-parsing argv.
//! An exhaustive run also reports `peak_frontier_mib`: the most memory
//! its kept states and op paths pinned at any level barrier
//! (`ExploreOutcome::peak_frontier_bytes`).

use flextm_check::config::{CORES, MAX_LINES};
use flextm_check::{check_liveness, explore_jobs, random_walk, Alphabet, CheckConfig, Progress};
use flextm_workloads::rng::WlRng;
use std::time::Instant;

struct Args {
    cores: usize,
    lines: usize,
    depth: Option<usize>,
    alphabet: Alphabet,
    walk: bool,
    steps: u64,
    seed: u64,
    wide: bool,
    jobs: usize,
    liveness: bool,
    revert_tie_break: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: proto_check [--cores N] [--lines N] [--depth N] \
         [--alphabet full|tx|noevict] [--jobs N] [--walk] [--steps N] [--seed S] \
         [--wide] [--liveness] [--revert-tie-break]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        cores: 2,
        lines: 1,
        depth: None,
        alphabet: Alphabet::Full,
        walk: false,
        steps: 100_000,
        seed: 0x5EED,
        wide: false,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        liveness: false,
        revert_tie_break: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--cores" => args.cores = val("--cores").parse().unwrap_or_else(|_| usage()),
            "--lines" => args.lines = val("--lines").parse().unwrap_or_else(|_| usage()),
            "--depth" => args.depth = Some(val("--depth").parse().unwrap_or_else(|_| usage())),
            "--alphabet" => {
                args.alphabet = Alphabet::parse(&val("--alphabet")).unwrap_or_else(|| usage())
            }
            "--jobs" => args.jobs = val("--jobs").parse().unwrap_or_else(|_| usage()),
            "--walk" => args.walk = true,
            "--wide" => args.wide = true,
            "--steps" => args.steps = val("--steps").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--liveness" => args.liveness = true,
            "--revert-tie-break" => args.revert_tie_break = true,
            _ => usage(),
        }
    }
    if args.jobs == 0 {
        eprintln!("--jobs must be >= 1");
        usage();
    }
    // `CheckConfig::new` asserts these ranges; a bad flag is usage.
    if !CORES.contains(&args.cores) {
        eprintln!("--cores must be in {CORES:?}");
        usage();
    }
    if !(1..=MAX_LINES).contains(&args.lines) {
        eprintln!("--lines must be in 1..={MAX_LINES}");
        usage();
    }
    args
}

fn alphabet_name(a: Alphabet) -> &'static str {
    match a {
        Alphabet::Full => "full",
        Alphabet::TxOnly => "tx",
        Alphabet::NoEvict => "noevict",
    }
}

fn main() {
    let a = parse_args();
    // `--wide` spreads the checker cores across the ProcSet word seam
    // (machine cores 0, 64, 65, …) so CST and directory bits exercise
    // the second 64-bit word; the explored state space is unchanged.
    let base = if a.wide {
        CheckConfig::wide(a.cores, a.lines)
    } else {
        CheckConfig::new(a.cores, a.lines)
    };
    let cfg = CheckConfig {
        alphabet: a.alphabet,
        cm_tie_break: !a.revert_tie_break,
        ..base
    };
    // Common parameter echo, spliced into every JSON result line.
    let params = format!(
        "\"cores\": {}, \"lines\": {}, \"wide\": {}, \"alphabet\": \"{}\"",
        a.cores,
        a.lines,
        a.wide,
        alphabet_name(a.alphabet)
    );
    let t0 = Instant::now();

    if a.liveness {
        eprintln!(
            "proto_check: liveness, {} cores x {} lines{}, tie-break {}",
            a.cores,
            a.lines,
            if a.wide { " (wide machine)" } else { "" },
            if a.revert_tie_break {
                "reverted (pre-fix)"
            } else {
                "shipped"
            },
        );
        let out = check_liveness(&cfg);
        let wall = t0.elapsed().as_secs_f64();
        if let Some(lv) = &out.livelock {
            eprintln!("{}", lv.render());
            eprintln!(
                "after {} states / {} edges in {wall:.2}s",
                out.states, out.edges
            );
            std::process::exit(1);
        }
        println!(
            "{{\"bench\": \"proto_check_liveness\", {params}, \
             \"tie_break\": {}, \"states\": {}, \"edges\": {}, \
             \"aborts\": {}, \"grants\": {}, \"livelock\": false, \
             \"wall_s\": {wall:.3}}}",
            cfg.cm_tie_break, out.states, out.edges, out.aborts, out.grants
        );
    } else if a.walk {
        eprintln!(
            "proto_check: random walk, {} cores x {} lines{}, {} steps, seed {:#x}",
            a.cores,
            a.lines,
            if a.wide { " (wide machine)" } else { "" },
            a.steps,
            a.seed
        );
        let mut rng = WlRng::new(a.seed, 0);
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        let mut progress = |done: u64| {
            let s = t0.elapsed().as_secs_f64();
            eprintln!("  {done} steps, {:.0} steps/s", done as f64 / s.max(1e-9));
        };
        let out = random_walk(&cfg, a.steps, &mut pick, Some(&mut progress));
        let wall = t0.elapsed().as_secs_f64();
        match out.violation {
            Some(v) => {
                eprintln!("{}", v.render());
                eprintln!("after {} steps in {wall:.2}s", out.steps);
                std::process::exit(1);
            }
            None => {
                println!(
                    "{{\"bench\": \"proto_check_walk\", {params}, \
                     \"steps\": {}, \"seed\": {}, \"wall_s\": {wall:.3}, \
                     \"violations\": 0}}",
                    out.steps, a.seed
                );
            }
        }
    } else {
        eprintln!(
            "proto_check: exhaustive, {} cores x {} lines{}, depth {}, {} jobs",
            a.cores,
            a.lines,
            if a.wide { " (wide machine)" } else { "" },
            a.depth.map_or("unbounded".to_string(), |d| d.to_string()),
            a.jobs,
        );
        let mut progress = |p: &Progress| {
            let s = t0.elapsed().as_secs_f64();
            eprintln!(
                "  {} states, {} transitions, frontier {}, depth {}, {:.0} states/s",
                p.states,
                p.transitions,
                p.frontier,
                p.depth,
                p.states as f64 / s.max(1e-9)
            );
        };
        let out = explore_jobs(&cfg, a.depth, a.jobs, Some(&mut progress));
        let wall = t0.elapsed().as_secs_f64();
        match out.violation {
            Some(v) => {
                eprintln!("{}", v.render());
                eprintln!(
                    "after {} states / {} transitions in {wall:.2}s",
                    out.states, out.transitions
                );
                std::process::exit(1);
            }
            None => {
                println!(
                    "{{\"bench\": \"proto_check\", {params}, \
                     \"depth\": {}, \"jobs\": {}, \"states\": {}, \"transitions\": {}, \
                     \"max_depth\": {}, \"truncated\": {}, \"wall_s\": {wall:.3}, \
                     \"transitions_per_s\": {:.0}, \"peak_frontier_mib\": {:.1}, \
                     \"violations\": 0}}",
                    a.depth.map_or(-1i64, |d| d as i64),
                    a.jobs,
                    out.states,
                    out.transitions,
                    out.max_depth,
                    out.depth_truncated,
                    out.transitions as f64 / wall.max(1e-9),
                    out.peak_frontier_bytes as f64 / (1u64 << 20) as f64,
                )
            }
        }
    }
}
