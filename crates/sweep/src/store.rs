//! The content-addressed results store that makes re-runs incremental.
//!
//! Every completed cell is filed under a key derived from **what would
//! change its result**: the cell's canonical config JSON and a
//! fingerprint of the worker binary that produced it. A re-run looks
//! each expanded cell up first and only executes the misses — edit one
//! workload and rebuild, and the binary fingerprint shifts, so the
//! whole matrix re-executes; change one axis of the spec, and only the
//! new cells run; change nothing, and the sweep is pure cache.
//!
//! The git revision is deliberately **provenance, not key**: a
//! docs-only commit moves the revision without changing the binary
//! (which would over-invalidate), and a dirty tree changes results
//! without moving the revision (which would under-invalidate — the
//! failure mode that silently serves stale data). The binary
//! fingerprint covers both; the revision is recorded in each entry for
//! audit.

use crate::cell::{fnv1a, CellResult, CellSpec, FNV_OFFSET};
use crate::spec::cell_from_json;
use flextm_sim::SchedStats;
use flextm_trace::json::{parse, Json};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// 128-bit content hash of a cell's canonical config: two FNV-1a
/// passes with distinct offset bases, hex-encoded. Deterministic by
/// construction (no pointer values, no map iteration order, no
/// per-process hash seeds), which the cross-process determinism test
/// pins.
pub fn config_hash(cell: &CellSpec) -> String {
    let canonical = cell.canonical_json();
    let mut a = FNV_OFFSET;
    fnv1a(&mut a, canonical.as_bytes());
    // Second plane: different basis, and the length folded in, so the
    // combined 128 bits do not collapse to a function of one 64-bit
    // state.
    let mut b = FNV_OFFSET ^ 0x5bd1_e995_9d1b_899f;
    fnv1a(&mut b, canonical.as_bytes());
    b ^= canonical.len() as u64;
    format!("{a:016x}{b:016x}")
}

/// FNV-1a fingerprint of the worker binary's bytes.
pub fn binary_fingerprint(exe: &Path) -> io::Result<String> {
    let bytes = fs::read(exe)?;
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &bytes);
    Ok(format!("{h:016x}"))
}

/// Best-effort git revision of `dir`'s repository, with a `+dirty`
/// suffix when the working tree has modifications. Provenance only.
pub fn git_rev(dir: &Path) -> String {
    let run = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git")
            .args(args)
            .current_dir(dir)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match run(&["rev-parse", "--short=12", "HEAD"]) {
        None => "unknown".to_string(),
        Some(rev) => match run(&["status", "--porcelain"]) {
            Some(s) if !s.is_empty() => format!("{rev}+dirty"),
            _ => rev,
        },
    }
}

/// One stored cell: the result plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCell {
    /// The deterministic result (plus the original run's wall time).
    pub result: CellResult,
    /// Git revision recorded when the cell executed.
    pub git_rev: String,
}

/// The on-disk store: one JSON file per (config hash, binary
/// fingerprint) pair in a flat directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    bin_fp: String,
    git_rev: String,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, keyed for the
    /// worker binary fingerprinted as `bin_fp`.
    pub fn open(dir: &Path, bin_fp: String, git_rev: String) -> io::Result<Store> {
        fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            bin_fp,
            git_rev,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The worker binary fingerprint this store instance keys on.
    pub fn bin_fp(&self) -> &str {
        &self.bin_fp
    }

    fn path_for(&self, cell: &CellSpec) -> PathBuf {
        self.dir
            .join(format!("{}-{}.json", config_hash(cell), self.bin_fp))
    }

    /// Looks `cell` up. A present-but-unreadable entry (truncated
    /// write, schema drift) is treated as a miss — the cell re-runs
    /// and overwrites it — but a *mismatched echo* (the stored config
    /// is not the one hashed) is a hard error: that means key
    /// collision or store corruption, and serving it would be wrong.
    pub fn lookup(&self, cell: &CellSpec) -> io::Result<Option<StoredCell>> {
        let path = self.path_for(cell);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let Ok(doc) = parse(&text) else {
            return Ok(None);
        };
        let Some(config) = doc.get("config").map(Json::encode) else {
            return Ok(None);
        };
        match cell_from_json(&config) {
            Ok(stored_spec) if stored_spec == *cell => {}
            _ => {
                return Err(io::Error::other(format!(
                    "store entry {} echoes a different cell config (collision or corruption); \
                     delete the store directory to recover",
                    path.display()
                )));
            }
        }
        let Some(result) = doc.get("result") else {
            return Ok(None);
        };
        let field = |key: &str| result.get(key).and_then(Json::as_u64);
        let (Some(committed), Some(attempts), Some(sim_ops), Some(sim_cycles), Some(overflows)) = (
            field("committed"),
            field("attempts"),
            field("sim_ops"),
            field("sim_cycles"),
            field("overflows"),
        ) else {
            return Ok(None);
        };
        let Some(conflict_histogram) = result
            .get("conflict_histogram")
            .and_then(Json::as_arr)
            .and_then(|bins| bins.iter().map(Json::as_u64).collect::<Option<Vec<_>>>())
        else {
            return Ok(None);
        };
        let Some(digest) = result.get("digest").and_then(Json::as_str) else {
            return Ok(None);
        };
        let sched_field = |key: &str| result.get("sched")?.get(key)?.as_u64();
        let (Some(fast_ops), Some(slow_ops), Some(grants)) = (
            sched_field("fast_ops"),
            sched_field("slow_ops"),
            sched_field("grants"),
        ) else {
            return Ok(None);
        };
        let wall_s = result.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
        let git_rev = doc
            .get("meta")
            .and_then(|m| m.get("git_rev"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        Ok(Some(StoredCell {
            result: CellResult {
                committed,
                attempts,
                sim_ops,
                sim_cycles,
                overflows,
                conflict_histogram,
                digest: digest.to_string(),
                sched: SchedStats {
                    fast_ops,
                    slow_ops,
                    grants,
                },
                wall_s,
            },
            git_rev,
        }))
    }

    /// Files a completed cell. Written to a temporary sibling and
    /// renamed, so concurrent workers (or a killed sweep) can never
    /// leave a half-written entry under the final name.
    pub fn insert(&self, cell: &CellSpec, result: &CellResult) -> io::Result<()> {
        let path = self.path_for(cell);
        let entry = format!(
            concat!(
                "{{\"key\": \"{}-{}\",\n",
                " \"config\": {},\n",
                " \"result\": {{{}, \"sched\": {{\"fast_ops\": {}, \"slow_ops\": {}, ",
                "\"grants\": {}}}, \"wall_s\": {:.6}}},\n",
                " \"meta\": {{\"git_rev\": \"{}\", \"bin_fp\": \"{}\"}}}}\n"
            ),
            config_hash(cell),
            self.bin_fp,
            cell.canonical_json(),
            result.fields_json(),
            result.sched.fast_ops,
            result.sched.slow_ops,
            result.sched.grants,
            result.wall_s,
            self.git_rev,
            self.bin_fp,
        );
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, entry)?;
        fs::rename(&tmp, &path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MatrixSpec;

    fn sample_cell() -> CellSpec {
        MatrixSpec::builtin("smoke2x2").unwrap().expand().remove(0)
    }

    fn sample_result() -> CellResult {
        CellResult {
            committed: 32,
            attempts: 33,
            sim_ops: 400,
            sim_cycles: 9000,
            overflows: 2,
            conflict_histogram: vec![30, 1, 0, 1],
            digest: "0123456789abcdef".to_string(),
            sched: SchedStats {
                fast_ops: 300,
                slow_ops: 100,
                grants: 90,
            },
            wall_s: 0.125,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flextm-sweep-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let dir = temp_dir("roundtrip");
        let store = Store::open(&dir, "feedbeef".repeat(2), "abc123".to_string()).unwrap();
        let cell = sample_cell();
        assert_eq!(store.lookup(&cell).unwrap(), None);
        let result = sample_result();
        store.insert(&cell, &result).unwrap();
        let hit = store.lookup(&cell).unwrap().expect("hit after insert");
        assert_eq!(hit.result, result);
        assert_eq!(hit.git_rev, "abc123");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn different_binary_fingerprint_misses() {
        let dir = temp_dir("binfp");
        let a = Store::open(&dir, "a".repeat(16), "r".to_string()).unwrap();
        let cell = sample_cell();
        a.insert(&cell, &sample_result()).unwrap();
        let b = Store::open(&dir, "b".repeat(16), "r".to_string()).unwrap();
        assert_eq!(b.lookup(&cell).unwrap(), None, "new binary must re-run");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let dir = temp_dir("corrupt");
        let store = Store::open(&dir, "c".repeat(16), "r".to_string()).unwrap();
        let cell = sample_cell();
        fs::write(store.path_for(&cell), "not json").unwrap();
        assert_eq!(store.lookup(&cell).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_config_echo_is_a_hard_error() {
        let dir = temp_dir("mismatch");
        let store = Store::open(&dir, "d".repeat(16), "r".to_string()).unwrap();
        let cells = MatrixSpec::builtin("smoke2x2").unwrap().expand();
        store.insert(&cells[0], &sample_result()).unwrap();
        // Forge: move cell 0's entry under cell 1's key.
        fs::rename(store.path_for(&cells[0]), store.path_for(&cells[1])).unwrap();
        assert!(store.lookup(&cells[1]).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
