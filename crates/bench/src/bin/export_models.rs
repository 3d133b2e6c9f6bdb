//! Train and persist serving artifacts for every (approach × dataset) cell.
//!
//! For each selected dataset the binary generates the synthetic data at the
//! requested scale, splits off the benchmark's fold-0 train/test split with
//! the standard seed derivation, fits each selected approach, evaluates the
//! full metric suite on the held-out fold, and saves a versioned `.flm`
//! artifact (provenance + schema + fitted pipeline) that `fairlens-serve`
//! can load and predict from byte-identically.
//!
//! ```text
//! export_models [--scale quick|paper] [--seed S] [--out DIR] [--trace PATH]
//!               [--datasets German,Adult] [--approaches LR,Hardt^EO]
//! ```
//!
//! Defaults: all four datasets, the baseline plus all 18 registry variants.
//! Cells whose training fails (infeasible solver, degenerate groups) are
//! reported and skipped; the binary exits non-zero only if *nothing* could
//! be exported or an artifact could not be written.

use std::path::Path;
use std::time::Instant;

use fairlens_bench::cli::{announce_output, CommonArgs};
use fairlens_bench::spec::{cell_seed, dataset_seed, fold_seed};
use fairlens_bench::{metric_suite, PAPER_CD_BOUNDS};
use fairlens_core::{all_approaches, baseline_approach, Approach, ModelArtifact};
use fairlens_frame::split;
use fairlens_synth::{DatasetKind, ALL_DATASETS};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "export_models [--scale quick|paper] [--seed S] [--out DIR] [--trace PATH] \
                     [--datasets NAMES] [--approaches NAMES]";

/// `<dataset>-<approach>.flm`, lowercased with `^`/spaces/`/` folded to `-`
/// so the id is shell- and URL-safe. This is also the model id the server
/// exposes.
fn model_id(dataset: &str, approach: &str) -> String {
    let sanitize = |s: &str| {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            if c.is_ascii_alphanumeric() {
                out.push(c.to_ascii_lowercase());
            } else if !out.ends_with('-') {
                out.push('-');
            }
        }
        out.trim_end_matches('-').to_string()
    };
    format!("{}-{}", sanitize(dataset), sanitize(approach))
}

/// Pop `flag VALUE` out of `rest`, splitting the value on commas. Leaves
/// unrelated arguments in place so leftovers can be rejected below.
fn take_list(flag: &str, rest: &mut Vec<String>) -> Option<Vec<String>> {
    let pos = rest.iter().position(|a| a == flag)?;
    if pos + 1 >= rest.len() {
        eprintln!("error: {flag} needs a value\nusage: {USAGE}");
        std::process::exit(2);
    }
    let value = rest.remove(pos + 1);
    rest.remove(pos);
    Some(value.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect())
}

fn main() {
    let mut args = CommonArgs::from_env(USAGE);
    let out_dir = if args.out == Path::new("results") {
        // The artifacts are inputs to the server, not experiment results;
        // keep them apart from the JSONL records by default.
        Path::new("models").to_owned()
    } else {
        args.out.clone()
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("[export_models] cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }

    let dataset_names = take_list("--datasets", &mut args.rest);
    let approach_filter = take_list("--approaches", &mut args.rest);
    if let Some(stray) = args.rest.first() {
        eprintln!("error: unexpected argument {stray:?}\nusage: {USAGE}");
        std::process::exit(2);
    }

    let datasets: Vec<DatasetKind> = match dataset_names {
        None => ALL_DATASETS.to_vec(),
        Some(names) => {
            let mut kinds = Vec::new();
            for n in &names {
                match ALL_DATASETS.iter().find(|k| k.name().eq_ignore_ascii_case(n)) {
                    Some(k) => kinds.push(*k),
                    None => {
                        eprintln!("error: unknown dataset {n:?}\nusage: {USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            kinds
        }
    };

    // export_models bypasses the Runner, so it drives its own trace sink:
    // one data track per dataset, one cell track per exported model.
    let trace = args.trace.as_ref().map(|_| fairlens_trace::TraceSink::new());

    let mut exported = 0usize;
    let mut skipped = 0usize;
    for kind in datasets {
        let name = kind.name();
        let rows = args.scale.rows(kind);
        let (train, test) = {
            let _collect = trace.as_ref().map(|s| s.collect(format!("data/{name}/r{rows}")));
            let _synth = fairlens_trace::span("synth");
            let data = kind.generate(rows, dataset_seed(args.seed, name));
            let mut split_rng = StdRng::seed_from_u64(fold_seed(args.seed, name, 0));
            split::train_test_split(&data, 0.3, &mut split_rng)
        };

        // Per-dataset resolution so the Salimi variants pick up the
        // dataset's inadmissible attributes.
        let approaches: Vec<Approach> = std::iter::once(baseline_approach())
            .chain(all_approaches(kind.salimi_inadmissible()))
            .filter(|a| {
                approach_filter
                    .as_ref()
                    .map(|f| f.iter().any(|n| n == a.name))
                    .unwrap_or(true)
            })
            .collect();

        for approach in approaches {
            let seed = cell_seed(args.seed, approach.name, name, 0);
            let _collect = trace.as_ref().map(|s| {
                s.collect(format!(
                    "cell/{name}/r{rows}/a{}/f0/{}",
                    train.n_attrs(),
                    approach.name
                ))
            });
            let t0 = Instant::now();
            let fit_result = {
                let _span = fairlens_trace::span("fit");
                approach.fit(&train, seed)
            };
            let fitted = match fit_result {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("[export_models] skip {name}/{}: fit failed: {e}", approach.name);
                    skipped += 1;
                    continue;
                }
            };
            // Metrics fill in below; packaging first skips pipelines the
            // artifact format cannot express before predicting with them.
            let packaged = ModelArtifact::new(&approach, name, &train, &fitted, seed, Vec::new());
            let mut artifact = match packaged {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("[export_models] skip {name}/{}: {e}", approach.name);
                    skipped += 1;
                    continue;
                }
            };
            let preds = {
                let _span = fairlens_trace::span("predict");
                fitted.predict(&test)
            };
            let report = {
                let _span = fairlens_trace::span("metrics");
                metric_suite(&fitted, kind, &test, &preds, seed, PAPER_CD_BOUNDS)
            };
            artifact.train_metrics = fairlens_bench::METRIC_KEYS
                .iter()
                .map(|k| k.to_string())
                .zip(report.values())
                .collect();
            let path = out_dir.join(format!("{}.flm", model_id(name, approach.name)));
            if let Err(e) = artifact.save(&path) {
                eprintln!("[export_models] cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!(
                "[export_models] {} ({} rows, fit {} ms)",
                path.display(),
                train.n_rows(),
                t0.elapsed().as_millis()
            );
            exported += 1;
        }
    }

    announce_output("export_models", &out_dir, exported);
    if let (Some(path), Some(sink)) = (&args.trace, &trace) {
        let collapsed = path.with_extension("collapsed");
        if let Err(e) =
            sink.write_jsonl(path).and_then(|()| sink.write_collapsed(&collapsed))
        {
            eprintln!("[export_models] cannot write trace {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "[trace] wrote {} (flamegraph stacks: {})",
            path.display(),
            collapsed.display()
        );
    }
    if skipped > 0 {
        eprintln!("[export_models] {skipped} cell(s) skipped");
    }
    if exported == 0 {
        eprintln!("[export_models] nothing exported");
        std::process::exit(1);
    }
}
