//! # fairlens-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 4) against the FairLens implementations.
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig10_correctness_fairness` | Fig. 10(a–d): 4 correctness + 5 fairness metrics × 19 approaches × 4 datasets |
//! | `fig11_scalability` | Fig. 11(a–c): runtime vs data size; Fig. 11(d–f): runtime vs #attributes |
//! | `fig12_stability` | Fig. 12 (headline) and Figs. 13–16 (full): metric variance over 10 random folds |
//! | `ablations` | DESIGN.md's knob sweeps (Zafar `c`, Salimi strata, CD bounds, Thomas tolerance) |
//!
//! All four binaries are built on the same three-layer API:
//!
//! 1. [`spec::ExperimentSpec`] — a builder describing *what* to run
//!    (datasets, approaches, folds, scale, CD bounds);
//! 2. [`runner::Runner`] — a work-stealing thread pool that evaluates every
//!    (approach × dataset × fold) cell with per-cell deterministic seeding,
//!    so `--threads N` and `--threads 1` produce identical numbers; under a
//!    [`runner::RunPolicy`] it additionally isolates panics, enforces
//!    per-cell deadlines, retries transient failures with derived seeds,
//!    and streams checkpoints so a killed run is resumable;
//! 3. [`record::RunRecord`] — one structured result row per cell,
//!    serialised as JSON-lines under `results/`, with failed cells in a
//!    `*.failures.jsonl` sidecar ([`record::CellFailure`]).
//!
//! [`cli::CommonArgs`] gives the binaries a shared `--threads/--seed/
//! --scale/--out/--cell-timeout/--retries/--resume` surface.
//! Criterion micro-benchmarks
//! (`cargo bench -p fairlens-bench`) cover per-approach training latency
//! and the solver kernels.

use fairlens_core::FittedPipeline;
use fairlens_frame::Dataset;
use fairlens_metrics::{causal_discrimination, causal_risk_difference, MetricReport};
use fairlens_synth::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod cli;
pub mod record;
pub mod runner;
pub mod spec;
pub mod xverify;

/// The shared JSON machinery the records are serialized with, re-exported
/// so downstream result-file tooling keeps a single import root.
pub use fairlens_json as json;

pub use cli::CommonArgs;
pub use record::{
    failures_path, read_failures, read_failures_lossy, read_jsonl, read_jsonl_lossy,
    write_jsonl_atomic, RunRecord, METRIC_KEYS,
};
pub use runner::{CellFailure, FailureKind, RunBatch, RunPolicy, Runner};
#[cfg(any(test, feature = "fault-inject"))]
pub use runner::{FaultKind, FaultSpec};
pub use spec::{cell_seed, retry_seed, ApproachSelector, ExperimentSpec, ScaleSpec};

/// The paper's CD estimation bound: 99 % confidence, 1 % error.
pub const PAPER_CD_BOUNDS: (f64, f64) = (0.99, 0.01);

/// The full metric suite for a fitted pipeline and its predictions on
/// `test`: confusion-matrix metrics, DI*, TPR/TNR balance, interventional
/// CD (re-predicting through the pipeline with `S` flipped, RNG seeded
/// from `cd_seed ^ 0xCD`) and CRD with the dataset's resolving attributes.
/// Shared by the runner and the model exporter.
pub fn metric_suite(
    fitted: &FittedPipeline,
    kind: DatasetKind,
    test: &Dataset,
    preds: &[u8],
    cd_seed: u64,
    cd_bounds: (f64, f64),
) -> MetricReport {
    let mut cd_rng = StdRng::seed_from_u64(cd_seed ^ 0xCD);
    let cd = causal_discrimination(
        test,
        |d| fitted.predict(d),
        cd_bounds.0,
        cd_bounds.1,
        &mut cd_rng,
    );
    let crd = causal_risk_difference(test, preds, kind.resolving_attrs());
    MetricReport::from_predictions(test.labels(), preds, test.sensitive(), cd, crd)
}

/// Render one Fig. 10 panel as a plain-text table from runner records.
pub fn print_fig10_records(dataset: &str, rows: &[&RunRecord]) {
    println!();
    println!("=== Fig. 10 — {dataset} ===");
    print!("{:<9} {:<19}", "stage", "approach");
    for h in MetricReport::headers() {
        print!(" {h:>9}");
    }
    println!(" {:>9}", "fit(ms)");
    for r in rows {
        print!("{:<9} {:<19}", r.stage, r.approach);
        match &r.metrics {
            Some(values) => {
                for v in values {
                    print!(" {v:>9.3}");
                }
            }
            None => {
                for _ in MetricReport::headers() {
                    print!(" {:>9}", "-");
                }
            }
        }
        println!(" {:>9.0}", r.fit_ms);
    }
}

/// Mean / std / min / max over the finite portion of a sample (population
/// std, as the paper's box plots summarise observed folds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Number of non-finite values (NaN / ±∞) excluded from the sample —
    /// e.g. precision of an all-negative predictor, or a failed fold's
    /// placeholder.
    pub skipped: usize,
}

/// Summarise a sample, skipping NaN / ±∞ (counted in `skipped` rather than
/// poisoning every statistic); zeroes for an empty or all-non-finite
/// sample.
pub fn summarize(values: &[f64]) -> Summary {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let skipped = values.len() - finite.len();
    if finite.is_empty() {
        return Summary { mean: 0.0, std: 0.0, min: 0.0, max: 0.0, skipped };
    }
    let mean = fairlens_linalg::vector::mean(&finite);
    let std = fairlens_linalg::vector::stddev(&finite);
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &finite {
        min = min.min(v);
        max = max.max(v);
    }
    Summary { mean, std, min, max, skipped }
}

/// Parse a `--scale` style CLI argument shared by the binaries.
///
/// * `paper` (default) — the paper's documented dataset sizes;
/// * `quick` — sizes capped at 8 000 rows, for smoke runs and CI.
pub fn scale_rows(kind: DatasetKind, scale: &str) -> usize {
    ScaleSpec::parse(scale).unwrap_or(ScaleSpec::Paper).rows(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - (1.25_f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.skipped, 0);
        assert_eq!(summarize(&[]).mean, 0.0);
    }

    #[test]
    fn summary_skips_non_finite() {
        let s = summarize(&[1.0, f64::NAN, 3.0, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.skipped, 3);
        let all_bad = summarize(&[f64::NAN, f64::NAN]);
        assert_eq!(all_bad.mean, 0.0);
        assert_eq!(all_bad.skipped, 2);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(scale_rows(DatasetKind::Adult, "paper"), 45_222);
        assert_eq!(scale_rows(DatasetKind::Adult, "quick"), 8_000);
        assert_eq!(scale_rows(DatasetKind::German, "quick"), 1_000);
    }
}
