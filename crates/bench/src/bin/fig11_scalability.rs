//! Fig. 11: efficiency and scalability.
//!
//! * Fig. 11(a–c) — runtime *overhead over LR* as the number of data points
//!   grows (1 K → 40 K rows of Adult), reported per stage (pre / in / post);
//! * Fig. 11(d–f) — runtime overhead as the number of attributes grows
//!   (2 → 26 attributes of Credit).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fairlens-bench --bin fig11_scalability \
//!     [-- [--threads N] [--seed S] [--scale quick|paper] [--out DIR] \
//!         [--cell-timeout SECS] [--retries N] [--resume PATH] [--trace PATH] \
//!         [size|attrs|both]]
//! ```
//!
//! `--scale quick` halves the sweep (sizes up to 10 K, attributes up to 22)
//! for smoke runs. As in the paper, the reported value for in- and
//! post-processing is `total pipeline time − LR time`, so pure-overhead
//! comparisons across stages are meaningful. A pre-processor's LR trains on
//! repaired data and may converge faster than plain LR, which would hide a
//! cheap repair behind a clamp at 0, so pre-processing rows report the
//! cell's `repair` trace span instead; the binary always collects a trace
//! in-process for this (written out only with `--trace`). Every timing cell
//! runs single-threaded on one worker (the runner never parallelises
//! *within* a cell), so `--threads` only overlaps different cells; use
//! `--threads 1` for the least-noisy timings. Records stream to
//! `<out>/fig11_scalability.jsonl` with their `rows` / `attrs` coordinates;
//! every sweep point checkpoints into the same file, so an interrupted
//! sweep continues with `--resume <that file>` (note that resumed timing
//! cells keep their originally measured times, and resumed
//! pre-processing cells print `-`: they left no trace in this process).

use fairlens_bench::{CommonArgs, ExperimentSpec, RunBatch, RunPolicy, RunRecord, Runner, ScaleSpec};
use fairlens_core::{all_approaches, Stage};
use fairlens_synth::DatasetKind;
use fairlens_trace::{TraceSink, TrackData};

const USAGE: &str = "fig11_scalability [--threads N] [--seed S] [--scale quick|paper] [--out DIR] \
                     [--cell-timeout SECS] [--retries N] [--resume PATH] [--trace PATH] \
                     [size|attrs|both]";

fn main() {
    let args = CommonArgs::from_env(USAGE);
    let mode = args.rest.first().map(String::as_str).unwrap_or("both").to_string();
    let quick = args.scale == ScaleSpec::Quick;
    let runner = Runner::new(args.threads);
    let out = args.out_file("fig11_scalability");
    let mut policy = args.run_policy(&out).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {USAGE}");
        std::process::exit(2);
    });
    policy.trace.get_or_insert_with(TraceSink::new);
    let mut agg = RunBatch::default();

    if mode == "size" || mode == "both" {
        let sizes: &[usize] = if quick {
            &[1_000, 2_000, 5_000, 10_000]
        } else {
            &[1_000, 2_000, 5_000, 10_000, 20_000, 40_000]
        };
        size_sweep(&runner, args.seed, sizes, &policy, &mut agg);
    }
    if mode == "attrs" || mode == "both" {
        let attrs: &[usize] = if quick {
            &[2, 6, 10, 14, 18, 22]
        } else {
            &[2, 6, 10, 14, 18, 22, 26]
        };
        attr_sweep(&runner, args.seed, attrs, &policy, &mut agg);
    }

    fairlens_bench::cli::announce_run("fig11", &out, &agg);
    if let Err(e) = args.finish_trace(&policy) {
        eprintln!("[fig11] {e}");
        std::process::exit(1);
    }
    // Cross-verify on the sweep's dataset at the run scale — the sweep
    // specs themselves are timing-only and vary only in size.
    let xspec = ExperimentSpec::new(args.seed).datasets([DatasetKind::Adult]).scale(args.scale);
    args.finish_xverify("fig11", &xspec);
}

/// Run one timing-only spec per sweep point; cells within a point are
/// spread over the pool, each cell itself single-threaded. Every point
/// checkpoints into the shared results file — the runner carries earlier
/// points' rows through each finalize.
fn run_points(
    runner: &Runner,
    label: &str,
    specs: Vec<ExperimentSpec>,
    policy: &RunPolicy,
    agg: &mut RunBatch,
) -> Vec<Vec<RunRecord>> {
    specs
        .into_iter()
        .map(|spec| {
            let batch = runner.run_with(&spec, policy);
            for f in &batch.failures {
                // Calmon beyond 22 attributes reports Unsupported — the
                // paper's "did not converge for more than 22 attributes".
                eprintln!("[{label}] FAILED {f}");
            }
            agg.records.extend(batch.records.iter().cloned());
            agg.failures.extend(batch.failures.iter().cloned());
            agg.resumed += batch.resumed;
            batch.records
        })
        .collect()
}

/// One table cell: the `repair` span of a pre-processing cell's last
/// attempt, or `fit − LR fit` for the other stages.
fn overhead_cell(
    records: &[RunRecord],
    tracks: &[TrackData],
    stage: Stage,
    name: &str,
    lr_ms: Option<f64>,
) -> String {
    let Some(r) = records.iter().find(|r| r.approach == name) else {
        return "-".into();
    };
    let ms = if stage == Stage::Pre {
        let track = format!("cell/{}/r{}/a{}/f{}/{}", r.dataset, r.rows, r.attrs, r.fold, name);
        tracks.iter().find(|t| t.track == track).and_then(|t| {
            t.events
                .iter()
                .rev()
                .find(|e| e.kind() == "exit" && e.name() == "repair")
                .and_then(|e| e.dur_us())
                .map(|us| us as f64 / 1e3)
        })
    } else {
        lr_ms.map(|lr| (r.fit_ms - lr).max(0.0))
    };
    ms.map_or_else(|| "-".into(), |ms| format!("{ms:.0}"))
}

/// Print one sweep's table: a header of sweep points, LR's absolute fit
/// time, then one row per variant.
fn print_table(
    kind: DatasetKind,
    points: &[String],
    per_point: &[Vec<RunRecord>],
    policy: &RunPolicy,
) {
    println!(
        "(milliseconds: pre = repair step, in/post = overhead over LR; '-' = failed/unsupported)"
    );
    let tracks = policy.trace.as_ref().map(TraceSink::tracks).unwrap_or_default();
    print!("{:<6} {:<19}", "stage", "approach");
    for point in points {
        print!(" {point:>9}");
    }
    println!();

    // Baseline LR times per point (subtracted from in/post variants).
    let lr_ms: Vec<Option<f64>> = per_point
        .iter()
        .map(|records| records.iter().find(|r| r.approach == "LR").map(|r| r.fit_ms))
        .collect();
    print!("{:<6} {:<19}", "base", "LR (absolute)");
    for t in &lr_ms {
        match t {
            Some(ms) => print!(" {ms:>9.0}"),
            None => print!(" {:>9}", "-"),
        }
    }
    println!();

    for stage in [Stage::Pre, Stage::In, Stage::Post] {
        for approach in all_approaches(kind.salimi_inadmissible())
            .iter()
            .filter(|a| a.stage == stage)
        {
            print!("{:<6} {:<19}", stage.label(), approach.name);
            for (records, lr) in per_point.iter().zip(&lr_ms) {
                print!(" {:>9}", overhead_cell(records, &tracks, stage, approach.name, *lr));
            }
            println!();
        }
    }
}

/// Fig. 11(a–c): vary |D| on Adult.
fn size_sweep(runner: &Runner, seed: u64, sizes: &[usize], policy: &RunPolicy, agg: &mut RunBatch) {
    println!("=== Fig. 11(a–c) — runtime overhead vs data size (Adult) ===");
    let kind = DatasetKind::Adult;

    let specs = sizes
        .iter()
        .map(|&n| {
            ExperimentSpec::new(seed)
                .datasets([kind])
                .scale(ScaleSpec::Rows(n))
                .timing_only(true)
        })
        .collect();
    let per_point = run_points(runner, "fig11/size", specs, policy, agg);
    let points: Vec<String> = sizes.iter().map(|n| format!("{}K", n / 1000)).collect();
    print_table(kind, &points, &per_point, policy);
}

/// Fig. 11(d–f): vary |X| on Credit.
fn attr_sweep(
    runner: &Runner,
    seed: u64,
    attr_counts: &[usize],
    policy: &RunPolicy,
    agg: &mut RunBatch,
) {
    println!();
    println!("=== Fig. 11(d–f) — runtime overhead vs #attributes (Credit) ===");
    let kind = DatasetKind::Credit;
    // The paper uses the Credit dataset at its natural size for this sweep.
    let n = kind.default_rows();

    let specs = attr_counts
        .iter()
        .map(|&a| {
            ExperimentSpec::new(seed)
                .datasets([kind])
                .scale(ScaleSpec::Rows(n))
                .attrs(a)
                .timing_only(true)
        })
        .collect();
    let per_point = run_points(runner, "fig11/attrs", specs, policy, agg);
    let points: Vec<String> = attr_counts.iter().map(|a| format!("{a}att")).collect();
    print_table(kind, &points, &per_point, policy);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_bench::spec::ApproachSelector;

    #[test]
    fn cheap_repair_prints_its_own_time() {
        // ZhaWu's repaired Adult 5 K trains LR faster than the raw data
        // does, so `fit − LR` clamps to 0; the repair span does not.
        let policy = RunPolicy { trace: Some(TraceSink::new()), ..RunPolicy::default() };
        let spec = ExperimentSpec::new(7)
            .datasets([DatasetKind::Adult])
            .scale(ScaleSpec::Rows(5_000))
            .approaches(ApproachSelector::Named(vec!["ZhaWu^PSF".into()]))
            .timing_only(true);
        let batch = Runner::new(1).run_with(&spec, &policy);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        let tracks = policy.trace.as_ref().map(TraceSink::tracks).unwrap_or_default();
        let cell = overhead_cell(&batch.records, &tracks, Stage::Pre, "ZhaWu^PSF", Some(f64::MAX));
        let ms: f64 = cell.parse().unwrap_or_else(|_| panic!("not a number: {cell:?}"));
        assert!(ms > 0.0, "repair printed {cell}");
    }
}
