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
//! for smoke runs. As in the paper, in-processing rows report `total
//! pipeline time − LR time`. Pre- and post-processing rows report the
//! cell's own `repair` or `adjust` trace span instead: a pre-processor's LR
//! may converge faster on repaired data, hiding a cheap repair behind a
//! clamp at 0, and an adjuster's sub-ms fit is lost in LR's noise. The
//! binary always collects a trace in-process for this (written out only
//! with `--trace`), and warms up on one untimed LR cell before each sweep.
//! Every timing cell runs single-threaded on one worker (the runner never parallelises
//! *within* a cell), so `--threads` only overlaps different cells; use
//! `--threads 1` for the least-noisy timings. Records stream to
//! `<out>/fig11_scalability.jsonl` with their `rows` / `attrs` coordinates;
//! every sweep point checkpoints into the same file, so an interrupted
//! sweep continues with `--resume <that file>` (note that resumed timing
//! cells keep their originally measured times, and resumed pre- and
//! post-processing cells print `-`: they left no trace in this process).

use fairlens_bench::spec::ApproachSelector;
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
    if let Some(first) = specs.first() {
        // Untimed warm-up, outside `policy`: no variant leaves LR alone.
        let lr_only = first.clone().approaches(ApproachSelector::Named(Vec::new()));
        runner.run_with(&lr_only, &RunPolicy::default());
    }
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
/// attempt, the `adjust` span of a post-processing one, or `fit − LR fit`
/// for in-processing.
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
    let ms = if matches!(stage, Stage::Pre | Stage::Post) {
        let span = if stage == Stage::Pre { "repair" } else { "adjust" };
        let track = format!("cell/{}/r{}/a{}/f{}/{}", r.dataset, r.rows, r.attrs, r.fold, name);
        tracks.iter().find(|t| t.track == track).and_then(|t| {
            t.events
                .iter()
                .rev()
                .find(|e| e.kind() == "exit" && e.name() == span)
                .and_then(|e| e.dur_us())
                .map(|us| us as f64 / 1e3)
        })
    } else {
        lr_ms.map(|lr| (r.fit_ms - lr).max(0.0))
    };
    ms.map_or_else(|| "-".into(), fmt_ms)
}

/// Whole milliseconds from 10 ms up; below that, three decimals, so a
/// sub-millisecond adjuster (Hardt's `adjust` is ~35 µs) does not print 0.
fn fmt_ms(ms: f64) -> String {
    if ms < 10.0 {
        format!("{ms:.3}")
    } else {
        format!("{ms:.0}")
    }
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
        "(milliseconds: pre = repair step, in = overhead over LR, post = adjuster fit; \
         '-' = failed/unsupported)"
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
        print!(" {:>9}", t.map_or_else(|| "-".into(), fmt_ms));
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

    #[test]
    fn cheap_repair_prints_its_own_time() {
        // ZhaWu's repaired Adult 5 K trains LR faster than the raw data
        // does, so `fit − LR` clamps to 0; the repair span does not.
        let policy = RunPolicy { trace: Some(TraceSink::new()), ..RunPolicy::default() };
        let spec = ExperimentSpec::new(7)
            .datasets([DatasetKind::Adult])
            .scale(ScaleSpec::Rows(5_000))
            .approaches(ApproachSelector::Named(vec!["ZhaWu^PSF".into(), "Hardt^EO".into()]))
            .timing_only(true);
        let batch = Runner::new(1).run_with(&spec, &policy);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        let tracks = policy.trace.as_ref().map(TraceSink::tracks).unwrap_or_default();
        let cell = overhead_cell(&batch.records, &tracks, Stage::Pre, "ZhaWu^PSF", Some(f64::MAX));
        let ms: f64 = cell.parse().unwrap_or_else(|_| panic!("not a number: {cell:?}"));
        assert!(ms > 0.0, "repair printed {cell}");
        // Hardt's adjuster fits in well under 1 ms, which `fit − LR` loses
        // in LR's noise. Its row prints the `adjust` span, so it needs no
        // LR time at all.
        let cell = overhead_cell(&batch.records, &tracks, Stage::Post, "Hardt^EO", None);
        let ms: f64 = cell.parse().unwrap_or_else(|_| panic!("not a number: {cell:?}"));
        assert!(ms > 0.0, "adjust printed {cell}");
    }

    #[test]
    fn sub_ten_ms_cells_keep_their_fraction() {
        assert_eq!(fmt_ms(0.035), "0.035");
        assert_eq!(fmt_ms(9.9994), "9.999");
        assert_eq!(fmt_ms(10.0), "10");
        assert_eq!(fmt_ms(31_115.4), "31115");
    }
}
