//! `compare parent.json change.json`: one row per workload × end-to-end
//! metric with a verdict, plus every exact count or digest that moved.
//! All verdict logic lives here; the bounds come from `/BENCHMARK.json`.
//!
//! A verdict compares two single runs, using each run's own
//! repetition-to-repetition spread as the noise estimate. A performance
//! claim needs the ten-alternating-pairs protocol in the README, not one
//! `compare`.

use crate::cli::bench_dir;
use crate::json::Json;
use crate::stats;
use std::fmt::Write as _;
use std::path::Path;

/// How a metric moved between parent and change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Moved by no more than the bound.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The runs' own spread exceeds the bound and their samples overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. `worsening` is the change's relative movement in
/// the bad direction (negative when it improved); `parent_costs` and
/// `change_costs` are the runs' per-repetition samples of the host time
/// behind the metric (smaller is better; empty for exact metrics).
pub fn verdict(worsening: f64, bound: f64, parent_costs: &[f64], change_costs: &[f64]) -> Verdict {
    let noise = stats::spread(parent_costs).max(stats::spread(change_costs));
    if noise > bound {
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        return if max(change_costs) < stats::min(parent_costs) {
            Verdict::Improved
        } else if stats::min(change_costs) > max(parent_costs) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// `v` with six significant digits.
fn sig6(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (5 - magnitude).clamp(0, 12) as usize)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn samples(w: &Json, key: &str) -> Vec<f64> {
    w.get("samples")
        .and_then(|s| s.get(key))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Renders the comparison of two result documents under `contract`
/// (the parsed `BENCHMARK.json`).
///
/// # Errors
///
/// A message when a document lacks the structure the suite writes.
pub fn render(contract: &Json, parent: &Json, change: &Json) -> Result<String, String> {
    let declared = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let parent_workloads = parent
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("parent document has no workloads")?;

    let mut out = String::new();
    let mut moved = Vec::new();
    writeln!(
        out,
        "{:<16} {:<13} {:>14} {:>14} {:>22}  verdict",
        "workload", "metric", "parent", "change", "change/parent"
    )
    .expect("writing to a String cannot fail");
    for pw in parent_workloads {
        let name = pw
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let Some(cw) = workload(change, name) else {
            moved.push(format!("{name}: missing from the change document"));
            continue;
        };
        for m in declared {
            let metric = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let value = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: no {metric} value"))
            };
            let (p, c) = (value(pw)?, value(cw)?);
            let ratio = c / p;
            let worsening = if higher { 1.0 - ratio } else { ratio - 1.0 };
            let key = match metric {
                "setup_s" => "setup_s",
                "ops_per_s" => "timed_s",
                _ => "",
            };
            let v = verdict(worsening, bound, &samples(pw, key), &samples(cw, key));
            writeln!(
                out,
                "{name:<16} {metric:<13} {:>14} {:>14} {:>22}  {}",
                sig6(p),
                sig6(c),
                format!("{ratio:.4} of {}", sig6(p)),
                v.label()
            )
            .expect("writing to a String cannot fail");
        }

        let digest = |w: &Json| {
            w.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if digest(pw) != digest(cw) {
            moved.push(format!(
                "{name}: sim_digest {} -> {}",
                digest(pw).unwrap_or_default(),
                digest(cw).unwrap_or_default()
            ));
        }
        let counts = |w: &Json| {
            w.get("counts")
                .and_then(Json::as_obj)
                .map(<[_]>::to_vec)
                .unwrap_or_default()
        };
        let change_counts = counts(cw);
        for (k, pv) in counts(pw) {
            let cv = change_counts
                .iter()
                .find(|(ck, _)| *ck == k)
                .map(|(_, v)| v);
            if cv != Some(&pv) {
                moved.push(format!(
                    "{name}: {k} {} -> {}",
                    pv.to_line(),
                    cv.map_or("absent".to_string(), Json::to_line)
                ));
            }
        }
    }
    if moved.is_empty() {
        out.push_str("exact counts and digests: identical\n");
    } else {
        out.push_str("exact counts and digests that moved:\n");
        for line in moved {
            writeln!(out, "  {line}").expect("writing to a String cannot fail");
        }
    }
    Ok(out)
}

/// The `compare` subcommand. Returns the process exit code (2 when a
/// file cannot be read or understood).
pub fn compare_command(parent: &Path, change: &Path) -> i32 {
    let contract = bench_dir().join("../BENCHMARK.json");
    let rendered = load(&contract)
        .and_then(|contract| Ok((contract, load(parent)?, load(change)?)))
        .and_then(|(contract, parent, change)| render(&contract, &parent, &change));
    match rendered {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(message) => {
            eprintln!("{message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_runs_are_judged_against_the_bound() {
        let quiet = [1.00, 1.01, 1.00, 1.02];
        assert_eq!(verdict(0.02, 0.10, &quiet, &quiet), Verdict::WithinBound);
        assert_eq!(verdict(0.15, 0.10, &quiet, &quiet), Verdict::Worse);
        assert_eq!(verdict(-0.15, 0.10, &quiet, &quiet), Verdict::Improved);
        // Exact metrics carry no samples and therefore no noise.
        assert_eq!(verdict(0.03, 0.02, &[], &[]), Verdict::Worse);
    }

    #[test]
    fn noisy_runs_resolve_only_when_samples_do_not_overlap() {
        let parent = [1.0, 1.3, 1.1, 1.6];
        let overlapping = [0.9, 1.4, 1.2, 1.0];
        let all_faster = [0.5, 0.7, 0.6, 0.8];
        let all_slower = [2.0, 2.6, 2.2, 3.0];
        assert_eq!(
            verdict(0.5, 0.10, &parent, &overlapping),
            Verdict::Unresolved
        );
        assert_eq!(verdict(-0.5, 0.10, &parent, &all_faster), Verdict::Improved);
        assert_eq!(verdict(0.5, 0.10, &parent, &all_slower), Verdict::Worse);
    }

    fn doc(ops_per_s: f64, digest: &str, committed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": [{{"name": "w", "sim_digest": "{digest}",
                "counts": {{"committed": {committed}}},
                "end_to_end": {{"ops_per_s": {{"value": {ops_per_s}}}}},
                "samples": {{"timed_s": [1.0, 1.01, 1.0], "setup_s": []}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(sig6(0.000003914), "0.00000391400");
        assert_eq!(sig6(14_374_991.93), "14374992");
        assert_eq!(sig6(37.088856), "37.0889");
        assert_eq!(sig6(0.0), "0.00000");
    }

    #[test]
    fn render_reports_rows_and_moved_counts() {
        let contract = Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let same = render(&contract, &doc(100.0, "aa", 5.0), &doc(103.0, "aa", 5.0)).unwrap();
        assert!(same.contains("within-bound"), "{same}");
        assert!(same.contains("1.0300 of 100.000"), "{same}");
        assert!(same.contains("identical"), "{same}");

        let moved = render(&contract, &doc(100.0, "aa", 5.0), &doc(80.0, "bb", 6.0)).unwrap();
        assert!(moved.contains("worse"), "{moved}");
        assert!(moved.contains("w: sim_digest aa -> bb"), "{moved}");
        assert!(moved.contains("w: committed 5 -> 6"), "{moved}");
    }
}
