//! Producer/consumer schema pinning: the JSON records the bench
//! binaries emit must round-trip through the sweep farm's parser.
//!
//! `sched_bench` builds its stdout line via `SchedRecord::to_json` (a
//! library call, not ad-hoc printing in the binary), and this test
//! parses that exact encoding — so a field rename, a type change, or a
//! formatting drift on either side fails here instead of silently
//! producing unparseable archives. (The environment has no serde; the
//! sweep crate's own codec plays that role.)

use flextm_bench::{CellResult, SchedRecord, SchedRunParams};
use flextm_sweep::json::{parse, Json};
use flextm_sweep::runner::parse_cell_record;
use flextm_sweep::MatrixSpec;

fn sample_record(params: Option<SchedRunParams>) -> SchedRecord {
    SchedRecord {
        bench: "sched_64core_hashtable".to_string(),
        strict_lockstep: false,
        threads: 64,
        txns_per_thread: 1536,
        committed: 98304,
        attempts: 105291,
        sim_ops: 683699,
        sim_cycles: 531018,
        fast_ops: 212195,
        slow_ops: 137300,
        grants: 137299,
        rendezvous_per_op: 0.8571,
        wall_s: 0.432,
        sim_ops_per_s: 1591007.0,
        sim_cycles_per_s: 1229208.0,
        params,
    }
}

#[test]
fn sched_record_round_trips_through_the_sweep_parser() {
    let record = sample_record(Some(SchedRunParams {
        warmup_per_thread: 8,
        seed: "0xF1E7".to_string(),
    }));
    let line = record.to_json();
    let doc = parse(&line).expect("sched_bench output parses");

    // Every field, with its type, as the consumer reads them.
    assert_eq!(
        doc.get("bench").and_then(Json::as_str),
        Some("sched_64core_hashtable")
    );
    assert_eq!(
        doc.get("strict_lockstep").and_then(Json::as_bool),
        Some(false)
    );
    for (key, want) in [
        ("threads", 64),
        ("txns_per_thread", 1536),
        ("committed", 98304),
        ("attempts", 105291),
        ("sim_ops", 683699),
        ("sim_cycles", 531018),
        ("fast_ops", 212195),
        ("slow_ops", 137300),
        ("grants", 137299),
        ("warmup_per_thread", 8),
    ] {
        assert_eq!(doc.get(key).and_then(Json::as_u64), Some(want), "{key}");
    }
    for (key, want) in [
        ("rendezvous_per_op", 0.8571),
        ("wall_s", 0.432),
        ("sim_ops_per_s", 1591007.0),
        ("sim_cycles_per_s", 1229208.0),
    ] {
        assert_eq!(doc.get(key).and_then(Json::as_f64), Some(want), "{key}");
    }
    assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(0xF1E7));

    // Byte-exact re-encoding: the parser holds the full information
    // content of the producer's line.
    assert_eq!(doc.encode(), line);
}

#[test]
fn sched_record_without_params_also_round_trips() {
    let line = sample_record(None).to_json();
    let doc = parse(&line).expect("parses");
    assert_eq!(doc.get("seed"), None);
    assert_eq!(doc.encode(), line);
}

/// Same pin for the cell records the farm's children emit: producer
/// (`CellResult::to_json`) and consumer (`parse_cell_record`) must
/// agree, including the spec echo.
#[test]
fn cell_record_round_trips_through_the_farm_parser() {
    for cell in MatrixSpec::builtin("smoke2x2").unwrap().expand() {
        let result = CellResult {
            committed: 32,
            attempts: 37,
            sim_ops: 1234,
            sim_cycles: 56789,
            digest: "0badc0de0badc0de".to_string(),
            wall_s: 0.015625,
        };
        let line = result.to_json(&cell);
        assert_eq!(parse_cell_record(&cell, &line).expect("parses"), result);
        assert_eq!(parse(&line).unwrap().encode(), line);
    }
}
