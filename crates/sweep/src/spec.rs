//! Declarative matrix specs and their expansion into cells.
//!
//! A spec is a cross product over the evaluation axes — workload ×
//! runtime × CM policy × threads × signature size × seed — plus scalar
//! sizing (base timed transactions per thread). [`MatrixSpec::expand`]
//! holds the tree's one sizing rule: the base count scaled per
//! workload ([`WorkloadKind::txn_scale`], floor 8) and a
//! `(txns / 4).max(8)` warm-up. The built-in specs are the paper's two
//! throughput-vs-threads matrices, Fig. 4(a–g) and Fig. 5(a–d), plus
//! the CI smoke.

use flextm::CmKind;
use flextm_bench::{cm_from_label, cm_label, CellSpec, RuntimeKind, WorkloadKind};
use flextm_trace::json::{parse, Json};

/// A declarative matrix: every combination of the axis vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Spec name (store metadata and emitted file names).
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<WorkloadKind>,
    /// Runtime axis (eager/lazy are distinct runtimes).
    pub runtimes: Vec<RuntimeKind>,
    /// CM policy axis.
    pub cms: Vec<CmKind>,
    /// Thread-count axis.
    pub threads: Vec<usize>,
    /// Signature-size axis (bits).
    pub sig_bits: Vec<usize>,
    /// Seed axis (each seed is an independent deterministic sample).
    pub seeds: Vec<u64>,
    /// Base timed transactions per thread (scaled per workload).
    pub txns_per_thread: u64,
}

/// A spec that does not describe a runnable matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl MatrixSpec {
    /// The built-in specs: `smoke2x2` is the CI smoke (2 runtimes × 2
    /// thread counts on HashTable, small sizing); `fig4_ws1` is
    /// Fig. 4(a–e) (Workload-Set 1 × CGL / FlexTM(E) / RTM-F / RSTM),
    /// `fig4_ws2` is Fig. 4(f–g) (Vacation × CGL / FlexTM(E) / TL2)
    /// and `fig5_eager_lazy` is Fig. 5(a–d) (eager vs. lazy FlexTM) —
    /// the paper's system matrix, all with Polka, at threads
    /// {1, 2, 4, 8, 16}. The first runtime listed is the one each
    /// table is normalized to (`aggregate::emit_tables`).
    pub fn builtin(name: &str) -> Option<MatrixSpec> {
        use RuntimeKind::{Cgl, FlexTmEager, FlexTmLazy, Rstm, RtmF, Tl2};
        use WorkloadKind::{
            Delaunay, HashTable, LfuCache, RandomGraph, RbTree, VacationHigh, VacationLow,
        };
        let paper = |workloads: &[WorkloadKind], runtimes: &[RuntimeKind]| MatrixSpec {
            name: name.to_string(),
            workloads: workloads.to_vec(),
            runtimes: runtimes.to_vec(),
            cms: vec![CmKind::Polka],
            threads: vec![1, 2, 4, 8, 16],
            sig_bits: vec![2048],
            seeds: vec![0xF1E7],
            txns_per_thread: 96,
        };
        match name {
            "smoke2x2" => Some(MatrixSpec {
                threads: vec![1, 2],
                txns_per_thread: 16,
                ..paper(&[HashTable], &[Cgl, FlexTmLazy])
            }),
            "fig4_ws1" => Some(paper(
                &[HashTable, RbTree, LfuCache, RandomGraph, Delaunay],
                &[Cgl, FlexTmEager, RtmF, Rstm],
            )),
            "fig4_ws2" => Some(paper(
                &[VacationLow, VacationHigh],
                &[Cgl, FlexTmEager, Tl2],
            )),
            "fig5_eager_lazy" => Some(paper(
                &[RbTree, VacationHigh, LfuCache, RandomGraph],
                &[FlexTmEager, FlexTmLazy],
            )),
            _ => None,
        }
    }

    /// Parses a spec document (see `EXPERIMENTS.md` for the format).
    /// Axes default to the paper configuration when omitted; `name`,
    /// `workloads`, `runtimes` and `threads` are required.
    pub fn from_json(text: &str) -> Result<MatrixSpec, SpecError> {
        let doc = parse(text).map_err(|e| SpecError(e.to_string()))?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError("missing \"name\"".to_string()))?
            .to_string();
        let str_axis = |key: &str| -> Result<Option<Vec<String>>, SpecError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => {
                    let arr = v
                        .as_arr()
                        .ok_or_else(|| SpecError(format!("\"{key}\" must be an array")))?;
                    arr.iter()
                        .map(|item| {
                            item.as_str().map(str::to_string).ok_or_else(|| {
                                SpecError(format!("\"{key}\" entries must be strings"))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()
                        .map(Some)
                }
            }
        };
        let num_axis = |key: &str| -> Result<Option<Vec<u64>>, SpecError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => {
                    let arr = v
                        .as_arr()
                        .ok_or_else(|| SpecError(format!("\"{key}\" must be an array")))?;
                    arr.iter()
                        .map(|item| {
                            item.as_u64().ok_or_else(|| {
                                SpecError(format!("\"{key}\" entries must be unsigned numbers"))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()
                        .map(Some)
                }
            }
        };

        let workloads = str_axis("workloads")?
            .ok_or_else(|| SpecError("missing \"workloads\"".to_string()))?
            .iter()
            .map(|s| {
                WorkloadKind::from_label(s)
                    .ok_or_else(|| SpecError(format!("unknown workload {s:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let runtimes = str_axis("runtimes")?
            .ok_or_else(|| SpecError("missing \"runtimes\"".to_string()))?
            .iter()
            .map(|s| {
                RuntimeKind::from_label(s)
                    .ok_or_else(|| SpecError(format!("unknown runtime {s:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cms = match str_axis("cm")? {
            None => vec![CmKind::Polka],
            Some(labels) => labels
                .iter()
                .map(|s| {
                    cm_from_label(s).ok_or_else(|| SpecError(format!("unknown CM policy {s:?}")))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let threads = num_axis("threads")?
            .ok_or_else(|| SpecError("missing \"threads\"".to_string()))?
            .into_iter()
            .map(|t| t as usize)
            .collect();
        let sig_bits = num_axis("sig_bits")?
            .unwrap_or_else(|| vec![2048])
            .into_iter()
            .map(|b| b as usize)
            .collect();
        let seeds = num_axis("seeds")?.unwrap_or_else(|| vec![0xF1E7]);
        let txns_per_thread = match doc.get("txns_per_thread") {
            None => 96,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| SpecError("\"txns_per_thread\" must be a number".to_string()))?,
        };

        let spec = MatrixSpec {
            name,
            workloads,
            runtimes,
            cms,
            threads,
            sig_bits,
            seeds,
            txns_per_thread,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Rejects matrices a cell would panic on (so a bad spec fails
    /// here, once, instead of as N cells failing) and repeated axis
    /// entries (which would expand to identical cells: one
    /// deterministic sample reported as `n` of them, and two workers
    /// filing the same store key at once).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.workloads.is_empty()
            || self.runtimes.is_empty()
            || self.cms.is_empty()
            || self.threads.is_empty()
            || self.sig_bits.is_empty()
            || self.seeds.is_empty()
        {
            return Err(SpecError("every axis needs at least one entry".to_string()));
        }
        fn no_repeats<T: PartialEq>(
            axis: &str,
            entries: &[T],
            show: impl Fn(&T) -> String,
        ) -> Result<(), SpecError> {
            for (i, entry) in entries.iter().enumerate() {
                if entries[..i].contains(entry) {
                    return Err(SpecError(format!(
                        "\"{axis}\" lists {} more than once",
                        show(entry)
                    )));
                }
            }
            Ok(())
        }
        no_repeats("workloads", &self.workloads, |w| w.label().to_string())?;
        no_repeats("runtimes", &self.runtimes, |r| r.label().to_string())?;
        no_repeats("cm", &self.cms, |&c| cm_label(c).to_string())?;
        no_repeats("threads", &self.threads, usize::to_string)?;
        no_repeats("sig_bits", &self.sig_bits, usize::to_string)?;
        no_repeats("seeds", &self.seeds, |s| format!("0x{s:X}"))?;
        for &t in &self.threads {
            if t == 0 || t > 128 {
                return Err(SpecError(format!(
                    "threads {t} out of range (1..=128, the ProcSet machine-width cap)"
                )));
            }
        }
        for &bits in &self.sig_bits {
            // SignatureConfig: power of two, 4 banks, each bank a
            // power-of-two bit count.
            if !bits.is_power_of_two() || !(64..=1 << 20).contains(&bits) {
                return Err(SpecError(format!(
                    "sig_bits {bits} invalid (power of two in 64..=1048576)"
                )));
            }
        }
        if self.txns_per_thread == 0 {
            return Err(SpecError("txns_per_thread must be positive".to_string()));
        }
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(SpecError(format!(
                "name {:?} must be non-empty [A-Za-z0-9_-] (it names emitted files)",
                self.name
            )));
        }
        Ok(())
    }

    /// Expands the cross product in canonical (nested-axis) order:
    /// workload, runtime, cm, threads, sig_bits, seed. Sizing is per
    /// workload: high-conflict workloads run fewer, heavier
    /// transactions, and the warm-up (on top of the harness's
    /// functional L2 warm) steady-states the data structure and the
    /// per-thread caches.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &workload in &self.workloads {
            let txns_per_thread =
                (self.txns_per_thread as f64 * workload.txn_scale()).max(8.0) as u64;
            let warmup_per_thread = (txns_per_thread / 4).max(8);
            for &runtime in &self.runtimes {
                for &cm in &self.cms {
                    for &threads in &self.threads {
                        for &sig_bits in &self.sig_bits {
                            for &seed in &self.seeds {
                                cells.push(CellSpec {
                                    workload,
                                    runtime,
                                    cm,
                                    threads,
                                    sig_bits,
                                    seed,
                                    txns_per_thread,
                                    warmup_per_thread,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The spec re-encoded as its canonical JSON document.
    pub fn canonical_json(&self) -> String {
        let axis = |items: Vec<Json>| Json::Arr(items);
        Json::Obj(vec![
            ("name".to_string(), Json::str(&self.name)),
            (
                "workloads".to_string(),
                axis(
                    self.workloads
                        .iter()
                        .map(|w| Json::str(w.label()))
                        .collect(),
                ),
            ),
            (
                "runtimes".to_string(),
                axis(self.runtimes.iter().map(|r| Json::str(r.label())).collect()),
            ),
            (
                "cm".to_string(),
                axis(self.cms.iter().map(|&c| Json::str(cm_label(c))).collect()),
            ),
            (
                "threads".to_string(),
                axis(
                    self.threads
                        .iter()
                        .map(|&t| Json::num_u64(t as u64))
                        .collect(),
                ),
            ),
            (
                "sig_bits".to_string(),
                axis(
                    self.sig_bits
                        .iter()
                        .map(|&b| Json::num_u64(b as u64))
                        .collect(),
                ),
            ),
            (
                "seeds".to_string(),
                axis(
                    self.seeds
                        .iter()
                        .map(|&s| Json::str(format!("0x{s:X}")))
                        .collect(),
                ),
            ),
            (
                "txns_per_thread".to_string(),
                Json::num_u64(self.txns_per_thread),
            ),
        ])
        .encode()
    }
}

/// Parses a [`CellSpec`] from its canonical JSON (the store's config
/// echo).
pub fn cell_from_json(text: &str) -> Result<CellSpec, SpecError> {
    let doc = parse(text).map_err(|e| SpecError(e.to_string()))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| SpecError(format!("missing \"{key}\"")))
    };
    let workload = field("workload")?
        .as_str()
        .and_then(WorkloadKind::from_label)
        .ok_or_else(|| SpecError("bad \"workload\"".to_string()))?;
    let runtime = field("runtime")?
        .as_str()
        .and_then(RuntimeKind::from_label)
        .ok_or_else(|| SpecError("bad \"runtime\"".to_string()))?;
    let cm = field("cm")?
        .as_str()
        .and_then(cm_from_label)
        .ok_or_else(|| SpecError("bad \"cm\"".to_string()))?;
    let num = |key: &str| -> Result<u64, SpecError> {
        field(key)?
            .as_u64()
            .ok_or_else(|| SpecError(format!("bad \"{key}\"")))
    };
    Ok(CellSpec {
        workload,
        runtime,
        cm,
        threads: num("threads")? as usize,
        sig_bits: num("sig_bits")? as usize,
        seed: num("seed")?,
        txns_per_thread: num("txns_per_thread")?,
        warmup_per_thread: num("warmup_per_thread")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_smoke_expands_to_2x2() {
        let spec = MatrixSpec::builtin("smoke2x2").unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 4);
        // Canonical order: runtime-major over the thread axis.
        assert_eq!(cells[0].runtime, RuntimeKind::Cgl);
        assert_eq!(cells[0].threads, 1);
        assert_eq!(cells[1].threads, 2);
        assert_eq!(cells[2].runtime, RuntimeKind::FlexTmLazy);
        // Sizing: 16 txns, warm-up (16/4).max(8) = 8.
        assert!(cells.iter().all(|c| c.txns_per_thread == 16));
        assert!(cells.iter().all(|c| c.warmup_per_thread == 8));
    }

    #[test]
    fn builtin_figure_specs_are_the_paper_matrices() {
        for (name, workloads, runtimes) in [
            ("fig4_ws1", 5, 4),
            ("fig4_ws2", 2, 3),
            ("fig5_eager_lazy", 4, 2),
        ] {
            let spec = MatrixSpec::builtin(name).unwrap();
            spec.validate().unwrap();
            assert_eq!(spec.name, name);
            assert_eq!(spec.expand().len(), workloads * runtimes * 5, "{name}");
        }
        assert_eq!(MatrixSpec::builtin("fig4_hashtable"), None);
    }

    #[test]
    fn expand_sizes_each_workload_from_the_base_count() {
        let spec = MatrixSpec {
            workloads: flextm_bench::ALL_WORKLOADS.to_vec(),
            ..MatrixSpec::builtin("fig4_ws1").unwrap()
        };
        assert_eq!(spec.txns_per_thread, 96);
        for cell in spec.expand() {
            let expected = match cell.workload {
                WorkloadKind::RandomGraph => (24, 8),
                WorkloadKind::Delaunay => (48, 12),
                _ => (96, 24),
            };
            assert_eq!(
                (cell.txns_per_thread, cell.warmup_per_thread),
                expected,
                "{}",
                cell.label()
            );
            assert_eq!(
                (cell.cm, cell.sig_bits, cell.seed),
                (CmKind::Polka, 2048, 0xF1E7)
            );
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = MatrixSpec::builtin("fig4_ws1").unwrap();
        let parsed = MatrixSpec::from_json(&spec.canonical_json()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn cell_json_round_trips() {
        for cell in MatrixSpec::builtin("fig4_ws1").unwrap().expand() {
            let parsed = cell_from_json(&cell.canonical_json()).unwrap();
            assert_eq!(parsed, cell);
        }
    }

    #[test]
    fn spec_defaults_fill_the_paper_configuration() {
        let spec = MatrixSpec::from_json(
            "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \
             \"runtimes\": [\"FlexTM(E)\"], \"threads\": [4]}",
        )
        .unwrap();
        assert_eq!(spec.cms, vec![CmKind::Polka]);
        assert_eq!(spec.sig_bits, vec![2048]);
        assert_eq!(spec.seeds, vec![0xF1E7]);
        assert_eq!(spec.txns_per_thread, 96);
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        for (label, text) in [
            ("unknown workload", "{\"name\": \"t\", \"workloads\": [\"HashMap\"], \"runtimes\": [\"CGL\"], \"threads\": [1]}"),
            ("unknown runtime", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"HTM\"], \"threads\": [1]}"),
            ("threads over machine cap", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [256]}"),
            ("non-power-of-two signature", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [1], \"sig_bits\": [1000]}"),
            ("empty axis", "{\"name\": \"t\", \"workloads\": [], \"runtimes\": [\"CGL\"], \"threads\": [1]}"),
            ("bad name", "{\"name\": \"a/b\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [1]}"),
            ("repeated threads", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [2, 2, 2, 2]}"),
            ("repeated seeds", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [2], \"seeds\": [7, \"0x7\"]}"),
            ("repeated runtime", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\", \"RSTM\", \"CGL\"], \"threads\": [1]}"),
        ] {
            assert!(MatrixSpec::from_json(text).is_err(), "{label} should fail");
        }
        // The message names the axis and the value.
        let err = MatrixSpec {
            seeds: vec![7, 9, 7],
            ..MatrixSpec::builtin("smoke2x2").unwrap()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.0, "\"seeds\" lists 0x7 more than once");
    }
}
