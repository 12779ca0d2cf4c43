//! Failure paths of everything that reads JSON back in: the attempt
//! trace (`flextm_trace::parse_jsonl`), matrix spec documents, and
//! store entries all go through `flextm_trace::json`. Valid documents
//! are truncated and byte-mutated under a seeded RNG (hand-rolled, like
//! `procset_props.rs` — the offline build has no `proptest`): no
//! parser may panic, a trace cut mid-record must name the cut line,
//! and a store entry cut mid-write must read as a miss so the cell
//! re-runs.

use flextm_sim::AbortCause;
use flextm_sweep::{cell_from_json, run_sweep, MatrixSpec, RunnerConfig, Store};
use flextm_trace::{json, parse_jsonl, to_jsonl, ConflictClass, TraceEv, TraceRecord};
use std::path::PathBuf;

/// xorshift64* — any deterministic stream works here.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One record of every event shape, including a commit mask wider than
/// 64 bits.
fn trace_text() -> String {
    let evs = [
        TraceEv::Begin,
        TraceEv::Conflict {
            enemy: 3,
            kind: ConflictClass::ExposedRead,
        },
        TraceEv::Stall { cycles: 48 },
        TraceEv::Abort {
            cause: AbortCause::CmSelf,
            enemy: Some(3),
        },
        TraceEv::Abort {
            cause: AbortCause::AouAlert,
            enemy: None,
        },
        TraceEv::Commit {
            enemies: (1 << 100) | 0b101,
        },
    ];
    let records: Vec<TraceRecord> = evs
        .into_iter()
        .enumerate()
        .map(|(i, ev)| TraceRecord {
            tid: i as u64 % 2,
            seq: 1 + i as u64 / 2,
            clock: 20 + 70 * i as u64,
            ev,
        })
        .collect();
    to_jsonl(&records)
}

fn smoke_cells() -> Vec<flextm_sweep::cell::CellSpec> {
    MatrixSpec::builtin("smoke2x2").unwrap().expand()
}

/// A store holding exactly one entry (smoke cell 0, really executed);
/// returns the store, its directory and the entry's path.
fn one_entry_store(tag: &str) -> (Store, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "flextm-sweep-json-failure-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir, "f".repeat(16), "test".to_string()).expect("store opens");
    let cold = run_sweep(&smoke_cells()[..1], &store, &QUIET);
    assert_eq!((cold.executed, cold.failures.len()), (1, 0));
    let entry = std::fs::read_dir(&dir)
        .expect("store dir lists")
        .next()
        .expect("one entry")
        .expect("entry reads")
        .path();
    (store, dir, entry)
}

const QUIET: RunnerConfig = RunnerConfig {
    jobs: 1,
    progress: false,
};

/// Truncates `text` or overwrites 1–3 of its bytes with arbitrary ones
/// (invalid UTF-8 becomes U+FFFD, so multi-byte input is covered too).
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if rng.below(3) == 0 {
        bytes.truncate(rng.below(bytes.len()));
    } else {
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            bytes[at] = rng.next() as u8;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_documents_never_panic_a_parser() {
    let (store, dir, entry) = one_entry_store("mutate");
    let cell = smoke_cells().remove(0);
    let corpus = [
        trace_text(),
        MatrixSpec::builtin("fig4_ws1").unwrap().canonical_json(),
        cell.canonical_json(),
        std::fs::read_to_string(&entry).expect("entry reads"),
    ];
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    let mut rejected = 0;
    for round in 0..4000 {
        let text = mutate(&mut rng, &corpus[round % corpus.len()]);
        // Every reader sees every document: a mutated trace is also a
        // hostile spec, and so on. Any `Result` is acceptable; a panic
        // fails the test.
        rejected += usize::from(json::parse(&text).is_err());
        let _ = parse_jsonl(&text);
        let _ = MatrixSpec::from_json(&text);
        let _ = cell_from_json(&text);
        std::fs::write(&entry, &text).expect("entry writes");
        let _ = store.lookup(&cell);
    }
    assert!(rejected > 1000, "the mutations were too gentle: {rejected}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_trace_cut_mid_record_errors_naming_the_cut_line() {
    let text = trace_text();
    let lines = text.lines().count();
    for cut in 0..=text.len() {
        let prefix = &text[..cut];
        let whole_lines = prefix.matches('\n').count();
        if prefix.is_empty() || prefix.ends_with('\n') || prefix.ends_with('}') {
            // Cut between records (or after a record's closing brace).
            let complete = whole_lines + usize::from(prefix.ends_with('}'));
            let records = parse_jsonl(prefix).expect("whole records parse");
            assert_eq!(records.len(), complete, "cut at byte {cut}");
        } else {
            let err = parse_jsonl(prefix).expect_err("a cut record must not parse");
            assert_eq!(err.line, whole_lines + 1, "cut at byte {cut}: {err}");
        }
    }
    assert_eq!(parse_jsonl(&text).expect("parses").len(), lines);
}

#[test]
fn a_store_entry_cut_mid_write_is_a_miss_and_the_cell_reruns() {
    let (store, dir, entry) = one_entry_store("truncate");
    let cells = &smoke_cells()[..1];
    let whole = std::fs::read_to_string(&entry).expect("entry reads");
    let stored = store.lookup(&cells[0]).unwrap().expect("hit after the run");

    // Every proper prefix (short of the trailing newline) is a miss,
    // never a hard error and never a hit.
    let body = whole.trim_end().len();
    for cut in 0..body {
        std::fs::write(&entry, &whole[..cut]).expect("entry writes");
        assert_eq!(store.lookup(&cells[0]).unwrap(), None, "cut at byte {cut}");
    }

    // ... and a sweep over a cut entry re-runs the cell and heals it.
    let mut rng = Rng(0x5EED_CAFE_F00D_0002);
    for _ in 0..6 {
        let cut = rng.below(body);
        std::fs::write(&entry, &whole[..cut]).expect("entry writes");
        let rerun = run_sweep(cells, &store, &QUIET);
        assert_eq!(
            (rerun.executed, rerun.cached, rerun.failures.len()),
            (1, 0, 0),
            "cut at byte {cut}"
        );
        let healed = store.lookup(&cells[0]).unwrap().expect("entry rewritten");
        assert_eq!(healed.result.digest, stored.result.digest);
        assert_eq!(healed.result.sim_cycles, stored.result.sim_cycles);
    }
    std::fs::remove_dir_all(&dir).ok();
}
