//! Aggregation and emitters: cells → median/CI series → EXPERIMENTS
//! tables and a per-cell JSON document, produced mechanically.
//!
//! Simulated results are deterministic, so the seed axis gives
//! independent deterministic samples; a series point is the **median**
//! across seeds with the min–max range as the (nonparametric)
//! confidence interval. A spec names the [`Metric`]s its tables print;
//! each is one function of a [`CellResult`]. One normalization rule,
//! for throughput only: each workload's series divide by the 1-thread
//! median of that workload's first series in canonical order — the
//! first runtime the spec lists, so CGL in the Fig. 4 specs and
//! FlexTM(E) in Fig. 5, the paper's baselines.
//!
//! Everything emitted here is deterministic — host wall times never
//! appear — so `scripts/verify.sh` can assert that a cached re-run
//! emits byte-identical files.

use crate::runner::Outcome;
use flextm::CmKind;
use flextm_bench::{cm_label, CellResult, CellSpec, Variant, WorkloadKind};

/// What a table prints: one function of a cell's result each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Transactions per million simulated cycles (Fig. 4's y-axis).
    Throughput,
    /// Aborted attempts as a percentage of all attempts.
    AbortPct,
    /// Aborted attempts per million simulated cycles — under
    /// [`Variant::PrimeMix`] every aborted attempt yields to one chunk
    /// of prime work, so this is Fig. 5(e–f)'s Prime throughput.
    AbortsPerMcycle,
    /// Lines spilled to the overflow table.
    Overflows,
    /// Median over commits of the number of distinct transactions each
    /// conflicted with (the Fig. 4 side table's "Md").
    ConflictsMedian,
    /// Maximum of the same (the side table's "Mx").
    ConflictsMax,
}

/// Every [`Metric`].
pub const ALL_METRICS: [Metric; 6] = [
    Metric::Throughput,
    Metric::AbortPct,
    Metric::AbortsPerMcycle,
    Metric::Overflows,
    Metric::ConflictsMedian,
    Metric::ConflictsMax,
];

impl Metric {
    /// (label in spec documents, table heading, decimals printed).
    fn describe(self) -> (&'static str, &'static str, usize) {
        match self {
            Metric::Throughput => ("throughput", "txns per million cycles", 3),
            Metric::AbortPct => ("abort_pct", "aborted attempts, % of attempts", 1),
            Metric::AbortsPerMcycle => (
                "aborts_per_mcycle",
                "aborted attempts per million cycles",
                3,
            ),
            Metric::Overflows => ("overflows", "lines overflowed to the OT", 0),
            Metric::ConflictsMedian => (
                "conflicts_median",
                "conflicting transactions per commit, median",
                0,
            ),
            Metric::ConflictsMax => (
                "conflicts_max",
                "conflicting transactions per commit, maximum",
                0,
            ),
        }
    }

    /// Stable label (spec documents).
    pub fn label(self) -> &'static str {
        self.describe().0
    }

    /// Inverse of [`Metric::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        ALL_METRICS.into_iter().find(|m| m.label() == s)
    }

    /// The metric's value for one cell.
    pub fn value(self, r: &CellResult) -> f64 {
        let aborted = (r.attempts - r.committed) as f64;
        match self {
            Metric::Throughput => r.throughput(),
            Metric::AbortPct if r.attempts == 0 => 0.0,
            Metric::AbortPct => aborted * 100.0 / r.attempts as f64,
            Metric::AbortsPerMcycle if r.sim_cycles == 0 => 0.0,
            Metric::AbortsPerMcycle => aborted * 1e6 / r.sim_cycles as f64,
            Metric::Overflows => r.overflows as f64,
            Metric::ConflictsMedian => {
                let total: u64 = r.conflict_histogram.iter().sum();
                let mut seen = 0;
                r.conflict_histogram
                    .iter()
                    .position(|&count| {
                        seen += count;
                        total > 0 && seen * 2 >= total
                    })
                    .unwrap_or(0) as f64
            }
            Metric::ConflictsMax => r
                .conflict_histogram
                .iter()
                .rposition(|&count| count > 0)
                .unwrap_or(0) as f64,
        }
    }
}

/// One aggregated series point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Thread count.
    pub threads: usize,
    /// Median of the metric across seeds.
    pub median: f64,
    /// Smallest sample.
    pub lo: f64,
    /// Largest sample.
    pub hi: f64,
    /// Sample count (seeds).
    pub n: usize,
}

/// A (workload, runtime, cm, sig_bits, variant) series over the thread
/// axis.
#[derive(Debug, Clone)]
pub struct Series {
    /// The series' first cell in canonical order, which names it.
    pub head: CellSpec,
    /// Points in ascending thread order.
    pub points: Vec<Point>,
}

fn median_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Groups outcomes into series of `metric`. Input order is the
/// canonical expansion order, which this preserves (first occurrence
/// wins), keeping every emitter deterministic.
pub fn aggregate<'a>(
    outcomes: impl IntoIterator<Item = &'a Outcome>,
    metric: Metric,
) -> Vec<Series> {
    // Per-series accumulator: (threads, metric samples) pairs.
    type RawPoints = Vec<(usize, Vec<f64>)>;
    let series_key = |c: &CellSpec| (c.workload, c.runtime, c.cm, c.sig_bits, c.variant);
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
        let sample = metric.value(&outcome.result);
        match entry.iter_mut().find(|(t, _)| *t == cell.threads) {
            Some((_, samples)) => samples.push(sample),
            None => entry.push((cell.threads, vec![sample])),
        }
    }
    series
        .into_iter()
        .map(|(head, mut points)| {
            points.sort_by_key(|(t, _)| *t);
            Series {
                head,
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

fn series_label(head: &CellSpec) -> String {
    let mut label = head.runtime.label().to_string();
    if head.cm != CmKind::Polka || head.sig_bits != 2048 {
        label.push_str(&format!(" cm={} sig={}", cm_label(head.cm), head.sig_bits));
    }
    if head.variant != Variant::Paper {
        label.push_str(&format!(" variant={}", head.variant.label()));
    }
    label
}

/// Renders the EXPERIMENTS.md-style markdown tables: per workload, one
/// table per metric in `metrics`, rows = series, columns = the thread
/// counts any of its series has (a failed cell leaves a `—`).
/// Throughput is normalized to the 1-thread median of the workload's
/// first series, or raw if that point is missing; every other metric
/// prints raw.
pub fn emit_tables(spec_name: &str, metrics: &[Metric], outcomes: &[Outcome]) -> String {
    let mut out = format!("# sweep `{spec_name}` — median series\n");
    let mut workloads: Vec<WorkloadKind> = Vec::new();
    for outcome in outcomes {
        if !workloads.contains(&outcome.cell.workload) {
            workloads.push(outcome.cell.workload);
        }
    }
    for workload in workloads {
        for &metric in metrics {
            let of_workload = outcomes.iter().filter(|o| o.cell.workload == workload);
            let series = aggregate(of_workload, metric);
            let (_, unit, places) = metric.describe();
            let base = series[0]
                .points
                .iter()
                .find(|p| metric == Metric::Throughput && p.threads == 1)
                .map(|p| p.median)
                .filter(|&b| b > 0.0);
            let mut threads: Vec<usize> = series
                .iter()
                .flat_map(|s| s.points.iter().map(|p| p.threads))
                .collect();
            threads.sort_unstable();
            threads.dedup();
            out.push_str(&format!(
                "\n## {} ({})\n\n",
                workload.label(),
                match base {
                    Some(_) => format!("normalized to 1T {} median", series_label(&series[0].head)),
                    None => unit.to_string(),
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
            for s in &series {
                out.push_str(&format!("| {} |", series_label(&s.head)));
                for &t in &threads {
                    match s.points.iter().find(|p| p.threads == t) {
                        None => out.push_str(" — |"),
                        Some(p) if p.n > 1 => out.push_str(&format!(
                            " {:.places$} [{:.places$}–{:.places$}, n={}] |",
                            p.median / scale,
                            p.lo / scale,
                            p.hi / scale,
                            p.n
                        )),
                        Some(p) => out.push_str(&format!(" {:.places$} |", p.median / scale)),
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Renders the per-cell JSON document: every cell's deterministic
/// simulated result (config, counters, digest) in canonical order —
/// diffable byte-for-byte against any other run of the same matrix
/// (another worker count, a cached re-run, another host).
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
            "  {}, {}}}{}\n",
            &spec_json[..spec_json.len() - 1],
            outcome.result.fields_json(),
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
    use flextm_bench::RuntimeKind;

    fn outcome(cell: CellSpec, committed: u64, sim_cycles: u64) -> Outcome {
        Outcome {
            cell,
            result: CellResult {
                committed,
                attempts: committed,
                sim_ops: committed * 4,
                sim_cycles,
                overflows: 0,
                conflict_histogram: Vec::new(),
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
        let outcomes = smoke_outcomes();
        assert_eq!(aggregate(&outcomes, Metric::Throughput).len(), 2);
        let table = emit_tables("smoke2x2", &[Metric::Throughput], &outcomes);
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
        let table = emit_tables("s", &[Metric::Throughput], &outcomes);
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
        let table = emit_tables("s", &[Metric::Throughput], &outcomes);
        assert!(table.contains("(txns per million cycles)"), "{table}");
        assert!(table.contains("| series | 1T | 2T |"), "{table}");
        assert!(table.contains("| CGL | — | 20.000 |"), "{table}");
        assert!(table.contains("| FlexTM(L) | 20.000 | 40.000 |"), "{table}");

        // Without FlexTM(L)@1T the baseline is intact.
        let mut outcomes = smoke_outcomes();
        outcomes.remove(2);
        let table = emit_tables("s", &[Metric::Throughput], &outcomes);
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
        let series = aggregate(&outcomes, Metric::Throughput);
        let p = &series[0].points[0];
        assert_eq!(p.n, 3);
        assert!(p.lo < p.median && p.median < p.hi);
        let table = emit_tables("s", &[Metric::Throughput], &outcomes);
        assert!(table.contains("n=3"), "{table}");
    }

    #[test]
    fn each_metric_is_one_function_of_the_result_under_its_own_heading() {
        let mut cells = MatrixSpec::builtin("ablation_cst").unwrap().expand();
        cells.truncate(2); // HashTable 4T: Paper, CommitToken
        let outcomes: Vec<Outcome> = cells
            .into_iter()
            .map(|cell| {
                let mut o = outcome(cell, 100, 10_000_000);
                o.result.attempts = 150;
                o.result.overflows = 7;
                o.result.conflict_histogram = vec![40, 50, 10];
                o
            })
            .collect();
        let values: Vec<f64> = ALL_METRICS
            .iter()
            .map(|m| m.value(&outcomes[0].result))
            .collect();
        assert_eq!(values, [10.0, 100.0 / 3.0, 5.0, 7.0, 1.0, 2.0]);
        // No commits, no attempts, no cycles: every metric is 0, not NaN.
        let idle = outcome(outcomes[0].cell.clone(), 0, 0);
        assert!(ALL_METRICS.iter().all(|m| m.value(&idle.result) == 0.0));

        let table = emit_tables("s", &[Metric::AbortPct, Metric::ConflictsMax], &outcomes);
        assert!(
            table.contains("## HashTable (aborted attempts, % of attempts)\n"),
            "{table}"
        );
        assert!(table.contains("| FlexTM(L) | 33.3 |"), "{table}");
        assert!(
            table.contains("| FlexTM(L) variant=CommitToken | 33.3 |"),
            "{table}"
        );
        assert!(
            table.contains("## HashTable (conflicting transactions per commit, maximum)\n"),
            "{table}"
        );
        assert!(table.contains("| FlexTM(L) | 2 |"), "{table}");
    }

    #[test]
    fn emitted_outputs_are_deterministic() {
        let outcomes = smoke_outcomes();
        assert_eq!(
            emit_tables("smoke2x2", &ALL_METRICS, &outcomes),
            emit_tables("smoke2x2", &ALL_METRICS, &outcomes)
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
