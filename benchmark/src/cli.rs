//! Command line, result document and the driver's one-line result.

use crate::json::Json;
use crate::spec::{suite, DEFAULT_SEED};
use crate::suite::{run, Budget, Metric, Options, Outcome, WorkloadRecord};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Schema tag of the result document.
pub const SCHEMA: &str = "flextm-benchmark/1";

const USAGE: &str = "\
usage: run.sh [--workload <name>] [--seed <n>] [--seconds <s> | --reps <n>]
              [--trace <0|1> | --traced] [--quick] [--out <file>]
       run.sh compare <parent.json> <change.json>

Without --workload every workload runs, repetitions interleaved, and the
result document is printed. With --workload the document is followed by a
last line {\"correct\", \"attempted\", \"failed\", \"metrics\"}: the end-to-end
metrics, or with --trace 1 the layer metrics.";

/// A parsed `run` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// `--workload`: run only this one and end with the one-line result.
    pub workload: Option<String>,
    /// `--seed` (decimal or `0x` hex).
    pub seed: u64,
    /// `--seconds` / `--reps`.
    pub budget: Budget,
    /// `--trace 1` / `--traced`.
    pub traced: bool,
    /// `--quick`: one repetition of sixteenth-size workloads.
    pub quick: bool,
    /// `--out`: also write the document here.
    pub out: Option<PathBuf>,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Invocation {
    /// Run workloads.
    Run(RunArgs),
    /// Compare two result documents.
    Compare(PathBuf, PathBuf),
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, parent, change] => Ok(Invocation::Compare(parent.into(), change.into())),
            _ => Err("compare takes exactly two files".to_string()),
        };
    }
    let mut run = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        budget: Budget::Default,
        traced: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => run.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                run.seed = parse_u64(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                run.budget = Budget::Seconds(s.ok_or_else(|| bad(v))?);
            }
            "--reps" => {
                let v = value()?;
                let n = v.parse::<u32>().ok().filter(|&n| n > 0);
                run.budget = Budget::Reps(n.ok_or_else(|| bad(v))?);
            }
            "--trace" => {
                let v = value()?;
                run.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--traced" => run.traced = true,
            "--quick" => run.quick = true,
            "--out" => run.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run.quick && run.budget == Budget::Default {
        run.budget = Budget::Reps(1);
    }
    Ok(Invocation::Run(run))
}

/// The `benchmark/` directory: where `out/` goes and beside which
/// `BENCHMARK.json` lives. `cargo run` names it at run time; a binary
/// started directly falls back to where it was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host_block(args: &RunArgs) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // A driver's checkout is not a git repository: no revision there.
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"], &bench_dir())
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "engine",
            Json::str(if cfg!(target_arch = "x86_64") {
                "fiber"
            } else {
                "threads"
            }),
        ),
        ("git_rev", Json::Str(rev)),
        ("seed", Json::Str(format!("0x{:X}", args.seed))),
        (
            "budget",
            Json::Str(match args.budget {
                Budget::Default => "default repetitions".to_string(),
                Budget::Reps(n) => format!("{n} repetitions"),
                Budget::Seconds(s) => format!("{s} seconds"),
            }),
        ),
        ("quick", Json::Bool(args.quick)),
        ("traced", Json::Bool(args.traced)),
    ])
}

fn metrics_json(metrics: &[Metric], with_direction: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if with_direction {
            fields.push(("better", Json::str(m.better.label())));
        }
        (m.name, Json::obj(fields))
    }))
}

fn record_json(r: &WorkloadRecord) -> Json {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    Json::obj([
        ("name", Json::str(r.name)),
        ("reps", Json::Num(f64::from(r.reps))),
        ("correct", Json::Bool(r.correct)),
        ("ops_attempted", Json::Num(r.ops_attempted as f64)),
        ("ops_failed", Json::Num(r.ops_failed as f64)),
        ("sim_digest", Json::str(r.sim_digest.as_str())),
        (
            "counts",
            Json::obj(r.counts.iter().map(|&(k, v)| (k, Json::Num(v as f64)))),
        ),
        ("end_to_end", metrics_json(&r.end_to_end, true)),
        ("per_layer", metrics_json(&r.per_layer, true)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
        (
            "samples",
            Json::obj([("timed_s", nums(&r.timed_s)), ("setup_s", nums(&r.setup_s))]),
        ),
    ])
}

/// The result document.
pub fn document(args: &RunArgs, outcome: &Outcome) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("host", host_block(args)),
        (
            "workloads",
            Json::Arr(outcome.records.iter().map(record_json).collect()),
        ),
    ])
}

/// The driver's result: exactly `correct`, `attempted`, `failed` and
/// `metrics` — the end-to-end metrics, or the layer metrics when traced.
pub fn driver_line(record: &WorkloadRecord, traced: bool) -> String {
    let metrics = if traced {
        &record.per_layer
    } else {
        &record.end_to_end
    };
    Json::obj([
        ("correct", Json::Bool(record.correct)),
        ("attempted", Json::Num(record.ops_attempted as f64)),
        ("failed", Json::Num(record.ops_failed as f64)),
        ("metrics", metrics_json(metrics, false)),
    ])
    .to_line()
}

/// Runs the benchmark as `args` asks, printing to stdout. Returns the
/// process exit code: 0, 1 if a correctness check failed (never for
/// noise), 2 for a usage or I/O problem.
pub fn run_command(args: &RunArgs) -> i32 {
    let mut specs = suite(args.quick);
    if let Some(name) = &args.workload {
        specs.retain(|s| s.name == name);
        if specs.is_empty() {
            let names: Vec<_> = suite(false).iter().map(|s| s.name).collect();
            eprintln!(
                "no workload {name:?}; the workloads are {}",
                names.join(", ")
            );
            return 2;
        }
    }
    let outcome = run(
        &specs,
        &Options {
            seed: args.seed,
            traced: args.traced,
            budget: args.budget,
        },
    );
    let doc = document(args, &outcome).to_pretty();
    print!("{doc}");

    let mut io_failed = false;
    let mut save = |path: &Path, text: &str| {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let made = dir.map_or(Ok(()), std::fs::create_dir_all);
        if let Err(e) = made.and_then(|()| std::fs::write(path, text)) {
            eprintln!("writing {}: {e}", path.display());
            io_failed = true;
        }
    };
    if let Some(path) = &args.out {
        save(path, &doc);
    }
    if args.traced {
        save(
            &bench_dir().join("out/trace.json"),
            &outcome.tracer.to_json().to_pretty(),
        );
    }

    for r in &outcome.records {
        for f in &r.failures {
            eprintln!("{}: FAILED: {f}", r.name);
        }
    }
    if args.workload.is_some() {
        println!("{}", driver_line(&outcome.records[0], args.traced));
    }
    if io_failed {
        2
    } else if outcome.records.iter().all(|r| r.correct) {
        0
    } else {
        1
    }
}

/// Entry point shared by the binary: dispatches on the command line.
pub fn main_with_args(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    match parse_args(args) {
        Ok(Invocation::Run(run)) => run_command(&run),
        Ok(Invocation::Compare(parent, change)) => {
            crate::compare::compare_command(&parent, &change)
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let cmd = parse(&[
            "--workload",
            "ht-1t",
            "--seed",
            "0x2A",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        let Ok(Invocation::Run(run)) = cmd else {
            panic!("{cmd:?}")
        };
        assert_eq!(run.workload.as_deref(), Some("ht-1t"));
        assert_eq!(run.seed, 42);
        assert_eq!(run.budget, Budget::Seconds(10.0));
        assert!(run.traced);
    }

    #[test]
    fn defaults_and_quick() {
        let Ok(Invocation::Run(run)) = parse(&[]) else {
            panic!()
        };
        assert_eq!(
            (run.seed, run.budget, run.traced),
            (DEFAULT_SEED, Budget::Default, false)
        );
        let Ok(Invocation::Run(quick)) = parse(&["--quick"]) else {
            panic!()
        };
        assert_eq!(quick.budget, Budget::Reps(1));
        let Ok(Invocation::Run(quick3)) = parse(&["--quick", "--reps", "3"]) else {
            panic!()
        };
        assert_eq!(quick3.budget, Budget::Reps(3));
    }

    #[test]
    fn bad_arguments_are_named() {
        for bad in [
            &["--seed", "x"][..],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--reps", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
            &["compare", "only-one.json"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            parse(&["compare", "a.json", "b.json"]),
            Ok(Invocation::Compare("a.json".into(), "b.json".into()))
        );
    }
}
