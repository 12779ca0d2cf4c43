//! Aggregation and emitters: cells → median/CI series → EXPERIMENTS
//! tables and BENCH-style JSON, produced mechanically.
//!
//! The BENCH files' methodology, applied by machine instead of by
//! hand: simulated results are deterministic, so the seed axis gives
//! independent deterministic samples; a series point is the **median**
//! across seeds with the min–max range as the (nonparametric)
//! confidence interval. One normalization rule: each workload's series
//! divide by the 1-thread median of that workload's first series in
//! canonical order — the first runtime the spec lists, so CGL in the
//! Fig. 4 specs and FlexTM(E) in Fig. 5, the paper's baselines.
//!
//! Everything emitted here is deterministic — host wall times never
//! appear — so `scripts/verify.sh` can assert that a cached re-run
//! emits byte-identical files.

use crate::runner::Outcome;
use flextm::CmKind;
use flextm_bench::{cm_label, CellSpec, RuntimeKind, WorkloadKind};

/// One aggregated series point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Thread count.
    pub threads: usize,
    /// Median throughput (txns per million simulated cycles) across
    /// seeds.
    pub median: f64,
    /// Smallest sample.
    pub lo: f64,
    /// Largest sample.
    pub hi: f64,
    /// Sample count (seeds).
    pub n: usize,
}

/// A (workload, runtime, cm, sig_bits) series over the thread axis.
#[derive(Debug, Clone)]
pub struct Series {
    /// Workload.
    pub workload: WorkloadKind,
    /// Runtime.
    pub runtime: RuntimeKind,
    /// CM policy.
    pub cm: CmKind,
    /// Signature bits.
    pub sig_bits: usize,
    /// Points in ascending thread order.
    pub points: Vec<Point>,
}

fn median_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Groups outcomes into series. Input order is the canonical expansion
/// order, which this preserves (first occurrence wins), keeping every
/// emitter deterministic.
pub fn aggregate(outcomes: &[Outcome]) -> Vec<Series> {
    // Per-series accumulator: (threads, throughput samples) pairs.
    type RawPoints = Vec<(usize, Vec<f64>)>;
    let series_key = |c: &CellSpec| (c.workload.label(), c.runtime.label(), c.cm, c.sig_bits);
    let mut series: Vec<(CellSpec, RawPoints)> = Vec::new();
    for outcome in outcomes {
        let cell = &outcome.cell;
        let entry = match series
            .iter_mut()
            .find(|(head, _)| series_key(head) == series_key(cell))
        {
            Some((_, points)) => points,
            None => {
                series.push((cell.clone(), Vec::new()));
                &mut series.last_mut().expect("just pushed").1
            }
        };
        let throughput = outcome.result.throughput();
        match entry.iter_mut().find(|(t, _)| *t == cell.threads) {
            Some((_, samples)) => samples.push(throughput),
            None => entry.push((cell.threads, vec![throughput])),
        }
    }
    series
        .into_iter()
        .map(|(head, mut points)| {
            points.sort_by_key(|(t, _)| *t);
            Series {
                workload: head.workload,
                runtime: head.runtime,
                cm: head.cm,
                sig_bits: head.sig_bits,
                points: points
                    .into_iter()
                    .map(|(threads, mut samples)| {
                        let n = samples.len();
                        let median = median_of(&mut samples);
                        Point {
                            threads,
                            median,
                            lo: samples.first().copied().unwrap_or(0.0),
                            hi: samples.last().copied().unwrap_or(0.0),
                            n,
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

fn series_label(s: &Series) -> String {
    if s.cm == CmKind::Polka && s.sig_bits == 2048 {
        s.runtime.label().to_string()
    } else {
        format!(
            "{} cm={} sig={}",
            s.runtime.label(),
            cm_label(s.cm),
            s.sig_bits
        )
    }
}

/// Renders the EXPERIMENTS.md-style markdown tables: one table per
/// workload, rows = series, columns = the thread counts any of its
/// series has (a failed cell leaves a `—`). Values are normalized to
/// the 1-thread median of the workload's first series, or raw txns per
/// million cycles if that point is missing.
pub fn emit_tables(spec_name: &str, series: &[Series]) -> String {
    let mut out = format!("# sweep `{spec_name}` — median series\n");
    let mut seen: Vec<WorkloadKind> = Vec::new();
    for s in series {
        if !seen.contains(&s.workload) {
            seen.push(s.workload);
        }
    }
    for workload in seen {
        let in_workload: Vec<&Series> = series.iter().filter(|s| s.workload == workload).collect();
        let first = in_workload[0];
        let base = first
            .points
            .iter()
            .find(|p| p.threads == 1)
            .map(|p| p.median)
            .filter(|&b| b > 0.0);
        let mut threads: Vec<usize> = in_workload
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.threads))
            .collect();
        threads.sort_unstable();
        threads.dedup();
        out.push_str(&format!(
            "\n## {} ({})\n\n",
            workload.label(),
            match base {
                Some(_) => format!("normalized to 1T {} median", series_label(first)),
                None => "txns per million cycles".to_string(),
            }
        ));
        out.push_str("| series |");
        for t in &threads {
            out.push_str(&format!(" {t}T |"));
        }
        out.push_str("\n|---|");
        out.push_str(&"---|".repeat(threads.len()));
        out.push('\n');
        let scale = base.unwrap_or(1.0);
        for s in in_workload {
            out.push_str(&format!("| {} |", series_label(s)));
            for &t in &threads {
                match s.points.iter().find(|p| p.threads == t) {
                    None => out.push_str(" — |"),
                    Some(p) if p.n > 1 => out.push_str(&format!(
                        " {:.3} [{:.3}–{:.3}, n={}] |",
                        p.median / scale,
                        p.lo / scale,
                        p.hi / scale,
                        p.n
                    )),
                    Some(p) => out.push_str(&format!(" {:.3} |", p.median / scale)),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Renders the BENCH-style JSON document: every cell's deterministic
/// simulated result (config, counters, digest) in canonical order,
/// ready to archive next to `BENCH_sched.json` — and diffable
/// byte-for-byte against any other run of the same matrix (another
/// worker count, a cached re-run, another host).
pub fn emit_cells_json(spec_name: &str, outcomes: &[Outcome]) -> String {
    let mut out = format!(
        concat!(
            "{{\n \"spec\": \"{}\",\n",
            " \"methodology\": \"deterministic simulated results per cell; ",
            "medians across the seed axis; host wall times excluded\",\n",
            " \"cells\": [\n"
        ),
        spec_name
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        let spec_json = outcome.cell.canonical_json();
        out.push_str(&format!(
            "  {}, \"committed\": {}, \"attempts\": {}, \"sim_ops\": {}, \
             \"sim_cycles\": {}, \"digest\": \"{}\"}}{}\n",
            &spec_json[..spec_json.len() - 1],
            outcome.result.committed,
            outcome.result.attempts,
            outcome.result.sim_ops,
            outcome.result.sim_cycles,
            outcome.result.digest,
            if i + 1 < outcomes.len() { "," } else { "" },
        ));
    }
    out.push_str(" ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MatrixSpec;
    use flextm_bench::CellResult;

    fn outcome(cell: CellSpec, committed: u64, sim_cycles: u64) -> Outcome {
        Outcome {
            cell,
            result: CellResult {
                committed,
                attempts: committed,
                sim_ops: committed * 4,
                sim_cycles,
                digest: "f".repeat(16),
                wall_s: 1.0,
            },
            from_cache: false,
        }
    }

    fn smoke_outcomes() -> Vec<Outcome> {
        // CGL@1T base throughput 10 txns/Mcyc; FlexTM(L)@2T 20.
        MatrixSpec::builtin("smoke2x2")
            .unwrap()
            .expand()
            .into_iter()
            .map(|cell| {
                let scale = cell.threads as u64
                    * if cell.runtime == RuntimeKind::Cgl {
                        1
                    } else {
                        2
                    };
                outcome(cell, 100 * scale, 10_000_000)
            })
            .collect()
    }

    #[test]
    fn medians_and_normalization_follow_fig4() {
        let series = aggregate(&smoke_outcomes());
        assert_eq!(series.len(), 2);
        let table = emit_tables("smoke2x2", &series);
        // CGL base = 10 txns/Mcyc at 1T; FlexTM(L) = 2x/4x that.
        assert!(table.contains("| CGL | 1.000 | 2.000 |"), "{table}");
        assert!(table.contains("| FlexTM(L) | 2.000 | 4.000 |"), "{table}");
    }

    #[test]
    fn the_first_series_in_spec_order_is_the_baseline() {
        // Fig. 5 lists no CGL: its tables divide by 1T of the runtime
        // the spec names first.
        let mut outcomes = smoke_outcomes();
        outcomes.rotate_left(2); // FlexTM(L) cells first
        let table = emit_tables("s", &aggregate(&outcomes));
        assert!(
            table.contains("(normalized to 1T FlexTM(L) median)"),
            "{table}"
        );
        assert!(table.contains("| FlexTM(L) | 1.000 | 2.000 |"), "{table}");
        assert!(table.contains("| CGL | 0.500 | 1.000 |"), "{table}");
    }

    #[test]
    fn a_failed_cell_leaves_a_gap_under_its_own_header() {
        // Without CGL@1T (the baseline cell) the values fall back to
        // raw; either way the surviving 2T value stays in the 2T column.
        let mut outcomes = smoke_outcomes();
        outcomes.remove(0);
        let table = emit_tables("s", &aggregate(&outcomes));
        assert!(table.contains("(txns per million cycles)"), "{table}");
        assert!(table.contains("| series | 1T | 2T |"), "{table}");
        assert!(table.contains("| CGL | — | 20.000 |"), "{table}");
        assert!(table.contains("| FlexTM(L) | 20.000 | 40.000 |"), "{table}");

        // Without FlexTM(L)@1T the baseline is intact.
        let mut outcomes = smoke_outcomes();
        outcomes.remove(2);
        let table = emit_tables("s", &aggregate(&outcomes));
        assert!(table.contains("| series | 1T | 2T |"), "{table}");
        assert!(table.contains("| CGL | 1.000 | 2.000 |"), "{table}");
        assert!(table.contains("| FlexTM(L) | — | 4.000 |"), "{table}");
    }

    #[test]
    fn multi_seed_points_report_range_and_n() {
        let spec = MatrixSpec {
            seeds: vec![1, 2, 3],
            ..MatrixSpec::builtin("smoke2x2").unwrap()
        };
        let outcomes: Vec<Outcome> = spec
            .expand()
            .into_iter()
            .map(|cell| {
                let jitter = cell.seed * 10; // distinct per-seed samples
                outcome(cell, 100 + jitter, 10_000_000)
            })
            .collect();
        let series = aggregate(&outcomes);
        let p = &series[0].points[0];
        assert_eq!(p.n, 3);
        assert!(p.lo < p.median && p.median < p.hi);
        let table = emit_tables("s", &series);
        assert!(table.contains("n=3"), "{table}");
    }

    #[test]
    fn emitted_outputs_are_deterministic() {
        let outcomes = smoke_outcomes();
        let series = aggregate(&outcomes);
        assert_eq!(
            emit_tables("smoke2x2", &series),
            emit_tables("smoke2x2", &aggregate(&outcomes))
        );
        let json = emit_cells_json("smoke2x2", &outcomes);
        assert_eq!(json, emit_cells_json("smoke2x2", &outcomes));
        // And it parses back with our own codec.
        let doc = flextm_trace::json::parse(&json).expect("emitted JSON parses");
        assert_eq!(
            doc.get("cells")
                .and_then(flextm_trace::json::Json::as_arr)
                .map(<[_]>::len),
            Some(4)
        );
    }
}
