//! Runs the binary the way its users and its driver do and checks what
//! it prints against `/BENCHMARK.json`.

use flextm_benchmark::json::Json;
use flextm_benchmark::spec::suite;
use std::path::Path;
use std::process::Command;

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flextm-benchmark"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8(out.stdout).unwrap(),
    )
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {v:?}"))
}

fn declared(contract: &Json, list: &str) -> Vec<(String, String, String)> {
    contract
        .get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
                str_field(m, "better").to_string(),
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Every declared metric of `list` is in `workload[list]` with the
/// declared unit and direction, and is a finite number.
fn check_metrics(workload: &Json, list: &str, declared: &[(String, String, String)]) {
    let name = str_field(workload, "name");
    let reported = workload.get(list).and_then(Json::as_obj).unwrap();
    assert_eq!(reported.len(), declared.len(), "{name}: {list} count");
    for (metric, unit, better) in declared {
        assert!(well_formed(metric), "{metric}: malformed name");
        let m = workload
            .get(list)
            .and_then(|l| l.get(metric))
            .unwrap_or_else(|| panic!("{name}: {list} lacks {metric}"));
        assert_eq!(str_field(m, "unit"), unit, "{name}/{metric}: unit");
        assert_eq!(str_field(m, "better"), better, "{name}/{metric}: direction");
        let value = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite(), "{name}/{metric} = {value}");
    }
}

fn workload<'a>(doc: &'a Json, name: &str) -> &'a Json {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|w| str_field(w, "name") == name)
        .unwrap_or_else(|| panic!("no workload {name}"))
}

fn count(w: &Json, key: &str) -> f64 {
    w.get("counts")
        .and_then(|c| c.get(key))
        .and_then(Json::as_f64)
        .unwrap()
}

fn layer(w: &Json, key: &str) -> f64 {
    w.get("per_layer")
        .and_then(|l| l.get(key))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no layer metric {key}"))
}

#[test]
fn contract_declares_what_the_suite_defines() {
    let contract = contract();
    let declared_workloads = contract.get("workloads").and_then(Json::as_arr).unwrap();
    let defined = suite(false);
    assert_eq!(declared_workloads.len(), defined.len());
    for (d, s) in declared_workloads.iter().zip(&defined) {
        assert_eq!(str_field(d, "name"), s.name);
        assert_eq!(str_field(d, "why"), s.why);
        assert!(well_formed(s.name));
    }
    assert!(declared(&contract, "end_to_end").len() <= 16);
    assert!(declared(&contract, "per_layer").len() <= 128);
    assert_eq!(
        contract
            .get("paths")
            .and_then(Json::as_arr)
            .map(|p| p.iter().filter_map(Json::as_str).collect::<Vec<_>>()),
        Some(vec!["benchmark"])
    );
}

#[test]
fn quick_untraced_run_reports_every_end_to_end_metric() {
    let contract = contract();
    let (code, stdout) = run(&["--quick"]);
    assert_eq!(code, 0, "{stdout}");
    let doc = Json::parse(&stdout).unwrap();
    for host_key in [
        "nproc", "cpu", "rustc", "profile", "engine", "git_rev", "seed", "budget",
    ] {
        assert!(
            doc.get("host").and_then(|h| h.get(host_key)).is_some(),
            "host lacks {host_key}"
        );
    }
    let end_to_end = declared(&contract, "end_to_end");
    for s in suite(true) {
        let w = workload(&doc, s.name);
        check_metrics(w, "end_to_end", &end_to_end);
        assert_eq!(
            w.get("ops_failed").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            s.name
        );
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{}", s.name);
        for (metric, _, _) in &end_to_end {
            let v = w
                .get("end_to_end")
                .unwrap()
                .get(metric)
                .unwrap()
                .get("value")
                .unwrap();
            assert!(
                v.as_f64().unwrap() > 0.0,
                "{}/{metric} is not positive",
                s.name
            );
        }
    }
    // The isolation and bypass workloads bypass what they say they do.
    let ht1 = workload(&doc, "ht-1t");
    assert!(
        count(ht1, "grants") / count(ht1, "ops") < 0.01,
        "ht-1t rendezvous per op"
    );
    let rstm = workload(&doc, "rbtree-rstm-16t");
    assert_eq!(
        count(rstm, "tloads") + count(rstm, "tstores") + count(rstm, "cas_commits"),
        0.0
    );
}

#[test]
fn quick_traced_run_reports_every_layer_metric_and_writes_the_trace() {
    let contract = contract();
    let (code, stdout) = run(&["--quick", "--traced"]);
    assert_eq!(code, 0, "{stdout}");
    let doc = Json::parse(&stdout).unwrap();
    let per_layer = declared(&contract, "per_layer");
    for s in suite(true) {
        let w = workload(&doc, s.name);
        check_metrics(w, "per_layer", &per_layer);
        let shares = layer(w, "est.sched_share")
            + layer(w, "est.proto_share")
            + layer(w, "est.unattributed_share");
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: est shares sum to {shares}",
            s.name
        );
    }
    assert!(layer(workload(&doc, "ht-1t"), "machine.rendezvous_per_op") < 0.01);

    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace.json");
    let spans = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
    let spans = spans.as_arr().unwrap();
    assert!(spans.iter().any(|s| str_field(s, "name") == "timed"));
    assert!(spans.iter().any(|s| str_field(s, "name") == "explore"));
    for s in spans {
        let at = |k| s.get(k).and_then(Json::as_f64).unwrap();
        assert!(at("end_ns") >= at("start_ns"));
    }
}

#[test]
fn driver_mode_ends_with_exactly_the_contract_line() {
    let contract = contract();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--quick",
            "--workload",
            "ht-16t",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ];
        let (code, stdout) = run(&args);
        assert_eq!(code, 0, "{stdout}");
        let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<_> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = last.get("metrics").and_then(Json::as_obj).unwrap();
        let declared = declared(&contract, list);
        assert_eq!(metrics.len(), declared.len(), "--trace {trace}");
        for ((name, m), (want, unit, _)) in metrics.iter().zip(&declared) {
            assert_eq!(name, want, "--trace {trace}: metric order");
            assert_eq!(str_field(m, "unit"), unit);
            let keys: Vec<_> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }
}

#[test]
fn bad_invocations_exit_2_without_a_result() {
    for args in [
        &["--workload", "no-such"][..],
        &["--frobnicate"],
        &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
    ] {
        let (code, stdout) = run(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}

#[test]
fn compare_judges_a_run_against_itself_as_within_bound() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/self_compare.json");
    let out = out.to_str().unwrap();
    let (code, _) = run(&[
        "--quick",
        "--reps",
        "3",
        "--workload",
        "ht-16t",
        "--out",
        out,
    ]);
    assert_eq!(code, 0);
    let (code, table) = run(&["compare", out, out]);
    assert_eq!(code, 0, "{table}");
    assert_eq!(
        table.matches("within-bound").count() + table.matches("unresolved").count(),
        3,
        "{table}"
    );
    assert!(
        table.contains("heap_peak_mb") && table.contains("1.0000 of"),
        "{table}"
    );
    assert!(
        table.contains("exact counts and digests: identical"),
        "{table}"
    );
}
