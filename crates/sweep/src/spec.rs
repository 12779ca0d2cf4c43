//! Declarative matrix specs and their expansion into cells.
//!
//! A spec is a cross product over the evaluation axes — workload ×
//! runtime × CM policy × threads × signature size × seed × variant —
//! plus scalar sizing (base timed transactions per thread) and the
//! metrics its tables print. [`MatrixSpec::expand`] holds the tree's
//! one sizing rule: the base count scaled per workload
//! ([`WorkloadKind::txn_scale`], floor 8) and a `(txns / 4).max(8)`
//! warm-up. The built-in specs are every simulated table of
//! EXPERIMENTS.md — Fig. 4(a–g) and its conflicts side table,
//! Fig. 5(a–d) and (e–f), and the three ablations — plus the CI smoke.

use crate::aggregate::Metric;
use flextm::CmKind;
use flextm_bench::{cm_from_label, cm_label, CellSpec, RuntimeKind, Variant, WorkloadKind};
use flextm_trace::json::{parse, Json};

/// The top-level keys a spec document may carry.
const SPEC_KEYS: [&str; 10] = [
    "name",
    "workloads",
    "runtimes",
    "cm",
    "threads",
    "sig_bits",
    "seeds",
    "variants",
    "txns_per_thread",
    "metrics",
];

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
    /// Machine/runtime variant axis.
    pub variants: Vec<Variant>,
    /// Base timed transactions per thread (scaled per workload).
    pub txns_per_thread: u64,
    /// What the emitted tables print, in order (not an axis: every
    /// metric reads the same cells).
    pub metrics: Vec<Metric>,
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
    /// The built-in specs (EXPERIMENTS.md tabulates them): `smoke2x2`,
    /// the CI smoke; the paper's system matrix at threads {1, 2, 4, 8,
    /// 16} — `fig4_ws1` (Fig. 4(a–e)), `fig4_ws2` (Fig. 4(f–g)) and
    /// `fig5_eager_lazy` (Fig. 5(a–d)), whose first runtime is the one
    /// each throughput table is normalized to; and the side experiments
    /// on FlexTM — `fig4_conflicts`, `fig5_multiprog` (Fig. 5(e–f)),
    /// `ablation_overflow` (§7.3), `ablation_signature`, `ablation_cst`
    /// — which share their `Paper` cells with `fig5_eager_lazy` where
    /// workload and thread count coincide. All Polka, 96 base
    /// transactions, seed 0xF1E7 unless the spec lists seeds.
    pub fn builtin(name: &str) -> Option<MatrixSpec> {
        use Metric::{
            AbortPct, AbortsPerMcycle, ConflictsMax, ConflictsMedian, Overflows, Throughput,
        };
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
            variants: vec![Variant::Paper],
            txns_per_thread: 96,
            metrics: vec![Throughput],
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
            "fig4_conflicts" => Some(MatrixSpec {
                threads: vec![8, 16],
                metrics: vec![ConflictsMedian, ConflictsMax],
                ..paper(&flextm_bench::ALL_WORKLOADS, &[FlexTmLazy])
            }),
            "fig5_multiprog" => Some(MatrixSpec {
                threads: vec![4, 8, 16],
                variants: vec![Variant::PrimeMix],
                metrics: vec![AbortsPerMcycle, Throughput],
                ..paper(&[RandomGraph, LfuCache], &[FlexTmEager, FlexTmLazy])
            }),
            "ablation_overflow" => Some(MatrixSpec {
                threads: vec![8],
                seeds: vec![0xF1E7, 0xBEEF, 0xCAFE],
                variants: vec![Variant::SmallL1, Variant::SmallL1Ideal],
                metrics: vec![Throughput, Overflows],
                ..paper(
                    &[HashTable, RbTree, RandomGraph, VacationHigh],
                    &[FlexTmLazy],
                )
            }),
            "ablation_signature" => Some(MatrixSpec {
                threads: vec![8],
                sig_bits: vec![64, 256, 1024, 2048, 8192],
                variants: vec![Variant::BitSelect, Variant::Paper],
                metrics: vec![Throughput, AbortPct],
                ..paper(&[RbTree], &[FlexTmLazy])
            }),
            "ablation_cst" => Some(MatrixSpec {
                threads: vec![4, 8, 16],
                variants: vec![Variant::Paper, Variant::CommitToken],
                ..paper(&[HashTable, VacationLow, RbTree], &[FlexTmLazy])
            }),
            _ => None,
        }
    }

    /// Parses a spec document (see `EXPERIMENTS.md` for the format).
    /// Axes default to the paper configuration when omitted; `name`,
    /// `workloads`, `runtimes` and `threads` are required. A key the
    /// format does not define is an error, not a default: the document
    /// is the only sizing input there is, so a misspelt `seed` must
    /// not quietly measure the paper's.
    pub fn from_json(text: &str) -> Result<MatrixSpec, SpecError> {
        let doc = parse(text).map_err(|e| SpecError(e.to_string()))?;
        if let Json::Obj(fields) = &doc {
            if let Some((key, _)) = fields
                .iter()
                .find(|(k, _)| !SPEC_KEYS.contains(&k.as_str()))
            {
                return Err(SpecError(format!(
                    "unknown key {key:?} (accepted: {})",
                    SPEC_KEYS.join(", ")
                )));
            }
        }
        let missing = |key: &str| SpecError(format!("missing \"{key}\""));
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("name"))?
            .to_string();
        // One axis: absent, or an array whose every entry `entry` accepts.
        fn axis<T>(
            doc: &Json,
            key: &str,
            expected: &str,
            entry: impl Fn(&Json) -> Option<T>,
        ) -> Result<Option<Vec<T>>, SpecError> {
            let Some(value) = doc.get(key) else {
                return Ok(None);
            };
            let items = value
                .as_arr()
                .ok_or_else(|| SpecError(format!("\"{key}\" must be an array")))?;
            let parsed = items.iter().map(|item| {
                entry(item).ok_or_else(|| {
                    SpecError(format!("\"{key}\": {} is not {expected}", item.encode()))
                })
            });
            parsed.collect::<Result<Vec<_>, _>>().map(Some)
        }
        fn labels<T>(
            doc: &Json,
            key: &str,
            expected: &str,
            from_label: fn(&str) -> Option<T>,
        ) -> Result<Option<Vec<T>>, SpecError> {
            axis(doc, key, expected, |item| {
                item.as_str().and_then(from_label)
            })
        }
        let numbers = |key: &str| axis(&doc, key, "an unsigned number", Json::as_u64);

        let workloads = labels(&doc, "workloads", "a workload", WorkloadKind::from_label)?
            .ok_or_else(|| missing("workloads"))?;
        let runtimes = labels(&doc, "runtimes", "a runtime", RuntimeKind::from_label)?
            .ok_or_else(|| missing("runtimes"))?;
        let cms = labels(&doc, "cm", "a CM policy", cm_from_label)?
            .unwrap_or_else(|| vec![CmKind::Polka]);
        let threads = numbers("threads")?.ok_or_else(|| missing("threads"))?;
        let sig_bits = numbers("sig_bits")?.unwrap_or_else(|| vec![2048]);
        let seeds = numbers("seeds")?.unwrap_or_else(|| vec![0xF1E7]);
        let variants = labels(&doc, "variants", "a variant", Variant::from_label)?
            .unwrap_or_else(|| vec![Variant::Paper]);
        let txns_per_thread = match doc.get("txns_per_thread") {
            None => 96,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| SpecError("\"txns_per_thread\" must be a number".to_string()))?,
        };
        let metrics = labels(&doc, "metrics", "a metric", Metric::from_label)?
            .unwrap_or_else(|| vec![Metric::Throughput]);

        let spec = MatrixSpec {
            name,
            workloads,
            runtimes,
            cms,
            threads: threads.into_iter().map(|t| t as usize).collect(),
            sig_bits: sig_bits.into_iter().map(|b| b as usize).collect(),
            seeds,
            variants,
            txns_per_thread,
            metrics,
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
            || self.variants.is_empty()
            || self.metrics.is_empty()
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
        no_repeats("variants", &self.variants, |v| v.label().to_string())?;
        no_repeats("metrics", &self.metrics, |m| m.label().to_string())?;
        for &variant in &self.variants {
            if let Some(runtime) = self.runtimes.iter().find(|&&r| !variant.supports(r)) {
                return Err(SpecError(format!(
                    "variant {} needs a FlexTM runtime; {} cannot honour it",
                    variant.label(),
                    runtime.label()
                )));
            }
        }
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
    /// workload, runtime, cm, threads, sig_bits, seed, variant. Sizing is per
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
                                for &variant in &self.variants {
                                    cells.push(CellSpec {
                                        workload,
                                        runtime,
                                        cm,
                                        threads,
                                        sig_bits,
                                        seed,
                                        txns_per_thread,
                                        warmup_per_thread,
                                        variant,
                                    });
                                }
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
        fn axis<T>(items: &[T], entry: impl Fn(&T) -> Json) -> Json {
            Json::Arr(items.iter().map(entry).collect())
        }
        let fields = [
            ("name", Json::str(&self.name)),
            ("workloads", axis(&self.workloads, |w| Json::str(w.label()))),
            ("runtimes", axis(&self.runtimes, |r| Json::str(r.label()))),
            ("cm", axis(&self.cms, |&c| Json::str(cm_label(c)))),
            ("threads", axis(&self.threads, |&t| Json::num_u64(t as u64))),
            (
                "sig_bits",
                axis(&self.sig_bits, |&b| Json::num_u64(b as u64)),
            ),
            (
                "seeds",
                axis(&self.seeds, |s| Json::str(format!("0x{s:X}"))),
            ),
            ("variants", axis(&self.variants, |v| Json::str(v.label()))),
            ("txns_per_thread", Json::num_u64(self.txns_per_thread)),
            ("metrics", axis(&self.metrics, |m| Json::str(m.label()))),
        ];
        Json::Obj(fields.map(|(key, value)| (key.to_string(), value)).to_vec()).encode()
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
    let variant = field("variant")?
        .as_str()
        .and_then(Variant::from_label)
        .ok_or_else(|| SpecError("bad \"variant\"".to_string()))?;
    Ok(CellSpec {
        workload,
        runtime,
        cm,
        threads: num("threads")? as usize,
        sig_bits: num("sig_bits")? as usize,
        seed: num("seed")?,
        txns_per_thread: num("txns_per_thread")?,
        warmup_per_thread: num("warmup_per_thread")?,
        variant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::config_hash;

    /// Every built-in spec with its pinned cell count.
    const BUILTINS: [(&str, usize); 9] = [
        ("smoke2x2", 4),
        ("fig4_ws1", 100),
        ("fig4_ws2", 30),
        ("fig5_eager_lazy", 40),
        ("fig4_conflicts", 14),
        ("fig5_multiprog", 12),
        ("ablation_overflow", 24),
        ("ablation_signature", 10),
        ("ablation_cst", 18),
    ];

    /// What the one sizing rule gives a workload from the base 96.
    fn paper_sizing(workload: WorkloadKind) -> (u64, u64) {
        match workload {
            WorkloadKind::RandomGraph => (24, 8),
            WorkloadKind::Delaunay => (48, 12),
            _ => (96, 24),
        }
    }

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
        for (name, count) in BUILTINS {
            let spec = MatrixSpec::builtin(name).unwrap();
            spec.validate().unwrap();
            assert_eq!(spec.name, name);
            let cells = spec.expand();
            assert_eq!(cells.len(), count, "{name}");
            // One sizing rule: every spec at the base 96 sizes alike.
            for cell in cells.iter().filter(|_| spec.txns_per_thread == 96) {
                assert_eq!(
                    (cell.txns_per_thread, cell.warmup_per_thread),
                    paper_sizing(cell.workload),
                    "{name}: {}",
                    cell.label()
                );
            }
        }
        assert_eq!(MatrixSpec::builtin("fig4_hashtable"), None);
    }

    /// The sharing claim, checked without simulating: where a side
    /// spec measures the paper configuration it expands to the very
    /// cells `fig5_eager_lazy` files, so the store serves them.
    #[test]
    fn side_specs_share_their_paper_cells_with_fig5_eager_lazy() {
        let keys = |name: &str, keep: &dyn Fn(&CellSpec) -> bool| -> Vec<String> {
            let cells = MatrixSpec::builtin(name).unwrap().expand();
            cells.iter().filter(|c| keep(c)).map(config_hash).collect()
        };
        let fig5 = keys("fig5_eager_lazy", &|c| c.runtime == RuntimeKind::FlexTmLazy);
        let cst = keys("ablation_cst", &|c| {
            c.variant == Variant::Paper && c.workload == WorkloadKind::RbTree
        });
        let fig5_workloads = MatrixSpec::builtin("fig5_eager_lazy").unwrap().workloads;
        let conflicts = keys("fig4_conflicts", &|c| fig5_workloads.contains(&c.workload));
        assert_eq!((cst.len(), conflicts.len()), (3, 8));
        for key in cst.iter().chain(&conflicts) {
            assert!(fig5.contains(key), "{key} is not a fig5_eager_lazy cell");
        }
    }

    #[test]
    fn expand_sizes_each_workload_from_the_base_count() {
        let spec = MatrixSpec {
            workloads: flextm_bench::ALL_WORKLOADS.to_vec(),
            ..MatrixSpec::builtin("fig4_ws1").unwrap()
        };
        assert_eq!(spec.txns_per_thread, 96);
        for cell in spec.expand() {
            assert_eq!(
                (cell.txns_per_thread, cell.warmup_per_thread),
                paper_sizing(cell.workload),
                "{}",
                cell.label()
            );
            assert_eq!(
                (cell.cm, cell.sig_bits, cell.seed, cell.variant),
                (CmKind::Polka, 2048, 0xF1E7, Variant::Paper)
            );
        }
    }

    #[test]
    fn spec_json_round_trips() {
        for (name, _) in BUILTINS {
            let spec = MatrixSpec::builtin(name).unwrap();
            let parsed = MatrixSpec::from_json(&spec.canonical_json()).unwrap();
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn cell_json_round_trips() {
        for (name, _) in BUILTINS {
            for cell in MatrixSpec::builtin(name).unwrap().expand() {
                let parsed = cell_from_json(&cell.canonical_json()).unwrap();
                assert_eq!(parsed, cell);
            }
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
        assert_eq!(spec.variants, vec![Variant::Paper]);
        assert_eq!(spec.txns_per_thread, 96);
        assert_eq!(spec.metrics, vec![Metric::Throughput]);
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
            ("misspelt key", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"CGL\"], \"threads\": [1], \"sigbits\": [64]}"),
            ("unknown variant", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"FlexTM(L)\"], \"threads\": [1], \"variants\": [\"H3\"]}"),
            ("unknown metric", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"FlexTM(L)\"], \"threads\": [1], \"metrics\": [\"latency\"]}"),
            ("Prime mix on an STM", "{\"name\": \"t\", \"workloads\": [\"HashTable\"], \"runtimes\": [\"FlexTM(L)\", \"TL2\"], \"threads\": [1], \"variants\": [\"PrimeMix\"]}"),
        ] {
            assert!(MatrixSpec::from_json(text).is_err(), "{label} should fail");
        }
        // One message of each kind the document can get wrong: each
        // names what was wrong and, for a key, what would be right.
        for (extra, message) in [
            (
                "\"seed\": [7]",
                "unknown key \"seed\" (accepted: name, workloads, runtimes, cm, threads, \
                 sig_bits, seeds, variants, txns_per_thread, metrics)",
            ),
            (
                "\"variants\": [\"CommitToken\"]",
                "variant CommitToken needs a FlexTM runtime; RSTM cannot honour it",
            ),
            (
                "\"variants\": [\"commit-token\"]",
                "\"variants\": \"commit-token\" is not a variant",
            ),
            (
                "\"metrics\": [\"aborts\"]",
                "\"metrics\": \"aborts\" is not a metric",
            ),
        ] {
            let text = format!(
                "{{\"name\": \"t\", \"workloads\": [\"HashTable\"], \
                 \"runtimes\": [\"RSTM\"], \"threads\": [1], {extra}}}"
            );
            assert_eq!(MatrixSpec::from_json(&text).unwrap_err().0, message);
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
