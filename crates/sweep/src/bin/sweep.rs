//! `sweep` — parallel, cached, incremental evaluation of the paper
//! matrix; the one generator of every simulated table in
//! EXPERIMENTS.md.
//!
//! ```text
//! # cold run: expand the matrix, fan cells across cores, fill the store
//! cargo run --release -p flextm-sweep --bin sweep -- --spec fig4_ws1
//!
//! # warm run: same command; unchanged cells are served from the store
//! # (summary line reports "executed": 0)
//!
//! # custom matrix
//! cargo run --release -p flextm-sweep --bin sweep -- --spec-file my_matrix.json
//! ```
//!
//! Flags:
//!
//! - `--spec NAME` — a built-in spec: `smoke2x2`, `fig4_ws1`,
//!   `fig4_ws2`, `fig4_conflicts`, `fig5_eager_lazy`,
//!   `fig5_multiprog`, `ablation_overflow`, `ablation_signature`,
//!   `ablation_cst`
//! - `--spec-file PATH` — a JSON matrix spec (see EXPERIMENTS.md)
//! - `--store DIR` — content-addressed results store
//!   (default `target/sweep-store`)
//! - `--emit DIR` — where tables/JSON are written
//!   (default `target/sweep-out`)
//! - `--jobs N` — worker threads (default: host parallelism; `1` is
//!   the serial run — same code, same emitted bytes)
//! - `--quiet` — suppress per-cell progress on stderr
//! - `--hash-spec` — print each cell's canonical config and content
//!   hash, then exit (the cross-process hash-determinism probe)
//!
//! Exit status: 0 on a clean sweep, 1 if any cell failed (each is
//! reported on stderr with its panic message; every other cell's
//! result is still emitted), 2 on usage or spec errors.

use flextm_sweep::aggregate::{emit_cells_json, emit_tables};
use flextm_sweep::runner::{run_sweep, Outcome, RunnerConfig};
use flextm_sweep::spec::MatrixSpec;
use flextm_sweep::store::{binary_fingerprint, config_hash, git_rev, Store};
use std::path::PathBuf;
use std::time::Instant;

fn usage(msg: &str) -> ! {
    eprintln!("sweep: {msg} (see crates/sweep/src/bin/sweep.rs for usage)");
    std::process::exit(2);
}

struct Args {
    spec: Option<String>,
    spec_file: Option<PathBuf>,
    store: PathBuf,
    emit: PathBuf,
    jobs: usize,
    quiet: bool,
    hash_spec: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: None,
        spec_file: None,
        store: PathBuf::from("target/sweep-store"),
        emit: PathBuf::from("target/sweep-out"),
        jobs: std::thread::available_parallelism().map_or(1, usize::from),
        quiet: false,
        hash_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--spec" => args.spec = Some(value("--spec")),
            "--spec-file" => args.spec_file = Some(PathBuf::from(value("--spec-file"))),
            "--store" => args.store = PathBuf::from(value("--store")),
            "--emit" => args.emit = PathBuf::from(value("--emit")),
            "--jobs" => {
                args.jobs = value("--jobs")
                    .parse()
                    .unwrap_or_else(|_| usage("--jobs needs a number"))
            }
            "--quiet" => args.quiet = true,
            "--hash-spec" => args.hash_spec = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn load_spec(args: &Args) -> MatrixSpec {
    match (&args.spec, &args.spec_file) {
        (Some(_), Some(_)) => usage("--spec and --spec-file are mutually exclusive"),
        (Some(name), None) => MatrixSpec::builtin(name)
            .unwrap_or_else(|| usage(&format!("unknown built-in spec {name:?}"))),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("reading {}: {e}", path.display())));
            MatrixSpec::from_json(&text).unwrap_or_else(|e| usage(&e.to_string()))
        }
        (None, None) => usage("need --spec or --spec-file"),
    }
}

fn write_outputs(args: &Args, spec: &MatrixSpec, outcomes: &[Outcome]) {
    std::fs::create_dir_all(&args.emit)
        .unwrap_or_else(|e| usage(&format!("creating {}: {e}", args.emit.display())));
    let tables = emit_tables(&spec.name, &spec.metrics, outcomes);
    let cells = emit_cells_json(&spec.name, outcomes);
    let tables_path = args.emit.join(format!("{}_tables.md", spec.name));
    let cells_path = args.emit.join(format!("{}_cells.json", spec.name));
    std::fs::write(&tables_path, tables)
        .unwrap_or_else(|e| usage(&format!("writing {}: {e}", tables_path.display())));
    std::fs::write(&cells_path, cells)
        .unwrap_or_else(|e| usage(&format!("writing {}: {e}", cells_path.display())));
    if !args.quiet {
        eprintln!(
            "emitted {} and {}",
            tables_path.display(),
            cells_path.display()
        );
    }
}

fn main() {
    let args = parse_args();
    let spec = load_spec(&args);
    let cells = spec.expand();

    if args.hash_spec {
        // Canonical config and content hash per cell — comparing this
        // output across two processes (or two hosts) proves the hash
        // has no per-process state in it.
        for cell in &cells {
            println!("{} {}", config_hash(cell), cell.canonical_json());
        }
        return;
    }

    let t0 = Instant::now();
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| usage(&format!("cannot locate own binary: {e}")));
    let bin_fp = binary_fingerprint(&exe)
        .unwrap_or_else(|e| usage(&format!("fingerprinting {}: {e}", exe.display())));
    let rev = git_rev(exe.parent().unwrap_or(std::path::Path::new(".")));
    let store = Store::open(&args.store, bin_fp, rev)
        .unwrap_or_else(|e| usage(&format!("opening store {}: {e}", args.store.display())));
    let runner_config = RunnerConfig {
        jobs: args.jobs,
        progress: !args.quiet,
    };
    let sweep = run_sweep(&cells, &store, &runner_config);
    for failure in &sweep.failures {
        eprintln!("FAILED {}: {}", failure.cell.label(), failure.error);
    }

    write_outputs(&args, &spec, &sweep.outcomes);

    // The machine-readable summary the smoke test asserts on.
    println!(
        concat!(
            "{{\"spec\": \"{}\", \"cells\": {}, \"executed\": {}, ",
            "\"cached\": {}, \"failed\": {}, \"jobs\": {}, \"wall_s\": {:.3}}}"
        ),
        spec.name,
        cells.len(),
        sweep.executed,
        sweep.cached,
        sweep.failures.len(),
        runner_config.jobs,
        t0.elapsed().as_secs_f64(),
    );
    if !sweep.failures.is_empty() {
        std::process::exit(1);
    }
}
