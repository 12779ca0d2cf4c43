//! Config-hash determinism: the content-addressed store is only sound
//! if the same cell always hashes to the same key (across processes —
//! no ASLR, no per-process hash seeds, no map iteration order) and any
//! semantic change to the cell moves the key.

use flextm::CmKind;
use flextm_sweep::cell::{CellSpec, RuntimeKind, Variant, WorkloadKind};
use flextm_sweep::{config_hash, MatrixSpec};
use std::process::Command;

fn sample() -> CellSpec {
    CellSpec {
        workload: WorkloadKind::HashTable,
        runtime: RuntimeKind::FlexTmEager,
        cm: CmKind::Polka,
        threads: 8,
        sig_bits: 2048,
        seed: 0xF1E7,
        txns_per_thread: 96,
        warmup_per_thread: 24,
        variant: Variant::Paper,
    }
}

#[test]
fn identical_specs_hash_identically() {
    assert_eq!(config_hash(&sample()), config_hash(&sample()));
}

/// Every field of the cell is load-bearing: flipping any one of them
/// must move the hash, or the store would serve results for a
/// different configuration.
#[test]
fn every_field_change_moves_the_hash() {
    let base = sample();
    let variants = [
        CellSpec {
            workload: WorkloadKind::RbTree,
            ..base.clone()
        },
        CellSpec {
            runtime: RuntimeKind::FlexTmLazy,
            ..base.clone()
        },
        CellSpec {
            cm: CmKind::Aggressive,
            ..base.clone()
        },
        CellSpec {
            threads: 16,
            ..base.clone()
        },
        CellSpec {
            sig_bits: 1024,
            ..base.clone()
        },
        CellSpec {
            seed: 0xF1E8,
            ..base.clone()
        },
        CellSpec {
            txns_per_thread: 97,
            ..base.clone()
        },
        CellSpec {
            warmup_per_thread: 25,
            ..base.clone()
        },
        CellSpec {
            variant: Variant::CommitToken,
            ..base.clone()
        },
    ];
    let base_hash = config_hash(&base);
    let mut seen = vec![base_hash.clone()];
    for variant in variants {
        let h = config_hash(&variant);
        assert_ne!(h, base_hash, "changing {variant:?} did not move the hash");
        assert!(
            !seen.contains(&h),
            "two distinct cells collided: {variant:?}"
        );
        seen.push(h);
    }
}

#[test]
fn expansion_has_no_duplicate_keys() {
    let cells = MatrixSpec::builtin("fig4_ws1").unwrap().expand();
    let mut keys: Vec<String> = cells.iter().map(config_hash).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), cells.len());
}

/// The cross-process pin: two separate invocations of the sweep
/// binary must print identical (hash, canonical-config) lines for the
/// same spec. This is where a pointer value, a randomized `HashMap`
/// order, or a per-process hasher seed leaking into the key would
/// show up.
#[test]
fn two_processes_agree_on_every_key() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["--spec", "fig4_ws1", "--hash-spec"])
            .output()
            .expect("sweep --hash-spec runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("utf8")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert_eq!(first.lines().count(), 100, "fig4_ws1 is 5×4×5 cells");
    // And the in-process hash agrees with what the binary printed.
    let cells = MatrixSpec::builtin("fig4_ws1").unwrap().expand();
    for (line, cell) in first.lines().zip(&cells) {
        let key = line.split_whitespace().next().unwrap();
        assert_eq!(key, config_hash(cell));
    }
}
