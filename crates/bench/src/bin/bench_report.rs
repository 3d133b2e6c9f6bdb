//! Machine-readable perf baselines: the first points of the repo's
//! `BENCH_*.json` trajectory.
//!
//! Drives the blocked linalg kernels and the serve flush path through the
//! vendored criterion stub (draining [`criterion::take_results`] instead
//! of scraping stdout), measures the fig11 fit phase at 40 K Adult rows
//! before/after the blocked kernels via the `fairlens-trace` `fit` span
//! (the same span `trace_report` attributes), and writes
//! `BENCH_linalg.json` / `BENCH_serve.json`.
//!
//! The before/after comparison runs in one process: the kernels keep
//! their naive references in-tree behind the
//! [`fairlens_linalg::kernels::set_force_naive`] switch, so "before" is
//! the identical workload routed through the pre-blocking code paths.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fairlens-bench --bin bench_report -- \
//!     [--out DIR] [--skip-fit] [--check BENCH_linalg.json]
//! ```
//!
//! * default: full-scale kernel sweep + quick-scale sweep + fit-phase
//!   before/after; writes both JSON baselines to `--out` (default `.`).
//! * `--check FILE`: quick-scale kernel sweep only, compared against the
//!   committed baseline's `quick_kernels` section, with two verdicts per
//!   kernel. The absolute verdict compares the fast-path median with the
//!   baseline's; it moves with the machine's load and sets the exit code:
//!   non-zero if any kernel regressed more than 20%. The relative verdict
//!   compares this run's naive/fast speedup with the baseline's `speedup`;
//!   both halves of the ratio share one run's load, so it flags a kernel
//!   that lost more than 20% of its speedup. Both are printed. This is the
//!   `scripts/check.sh` bench smoke (gated by `FAIRLENS_BENCH_STRICT`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use criterion::{black_box, take_results, Criterion, Summary};
use fairlens_core::baseline_approach;
use fairlens_json::{object, Value};
use fairlens_linalg::kernels;
use fairlens_synth::DatasetKind;

const USAGE: &str = "bench_report [--out DIR] [--skip-fit] [--check BENCH_linalg.json]";

/// Median wall-clock per variant of one kernel at one shape.
struct KernelRow {
    kernel: String,
    shape: String,
    fast_median_ns: u64,
    naive_median_ns: u64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.naive_median_ns as f64 / (self.fast_median_ns.max(1)) as f64
    }

    fn to_value(&self) -> Value {
        object([
            ("kernel", Value::String(self.kernel.clone())),
            ("shape", Value::String(self.shape.clone())),
            ("fast_median_ns", Value::Integer(self.fast_median_ns)),
            ("naive_median_ns", Value::Integer(self.naive_median_ns)),
            ("speedup", Value::Number(self.speedup())),
        ])
    }
}

fn main() {
    let mut out_dir = PathBuf::from(".");
    let mut skip_fit = false;
    let mut check: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage_exit())),
            "--skip-fit" => skip_fit = true,
            "--check" => check = Some(PathBuf::from(args.next().unwrap_or_else(|| usage_exit()))),
            _ => {
                eprintln!("unknown argument: {arg}");
                usage_exit();
            }
        }
    }

    if let Some(baseline) = check {
        run_check(&baseline);
        return;
    }

    println!("== linalg kernels, full scale ==");
    let full = measure_kernels(false);
    println!("== linalg kernels, quick scale (the check.sh gate shapes) ==");
    let quick = measure_kernels(true);

    let fit = if skip_fit {
        None
    } else {
        println!("== fig11 fit phase, Adult 40K rows, naive vs blocked ==");
        Some(measure_fit(40_000, 2))
    };

    let linalg = object([
        ("schema", Value::String("fairlens-bench-linalg/v1".into())),
        ("kernels", Value::Array(full.iter().map(KernelRow::to_value).collect())),
        ("quick_kernels", Value::Array(quick.iter().map(KernelRow::to_value).collect())),
        (
            "fit40k",
            fit.map_or(Value::Null, |(naive_ms, fast_ms)| {
                object([
                    ("rows", Value::Integer(40_000)),
                    ("dataset", Value::String("adult".into())),
                    ("measured_via", Value::String("fairlens-trace span 'fit'".into())),
                    ("naive_ms", Value::Number(naive_ms)),
                    ("fast_ms", Value::Number(fast_ms)),
                    ("speedup", Value::Number(naive_ms / fast_ms.max(1e-9))),
                ])
            }),
        ),
    ]);
    write_json(&out_dir.join("BENCH_linalg.json"), &linalg);

    println!("== serve flush path, batched single-pass vs per-call two-pass ==");
    let serve_full = measure_serve(false);
    let serve_quick = measure_serve(true);
    let serve = object([
        ("schema", Value::String("fairlens-bench-serve/v1".into())),
        ("flush", Value::Array(serve_full.iter().map(KernelRow::to_value).collect())),
        ("quick_flush", Value::Array(serve_quick.iter().map(KernelRow::to_value).collect())),
    ]);
    write_json(&out_dir.join("BENCH_serve.json"), &serve);
}

fn usage_exit() -> ! {
    eprintln!("usage: {USAGE}");
    std::process::exit(2)
}

fn write_json(path: &Path, value: &Value) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    let mut text = value.to_json();
    text.push('\n');
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

/// Shapes mirrored from `crates/linalg/benches/kernels.rs`.
struct Shapes {
    dot_len: usize,
    gemv: (usize, usize),
    gemm: (usize, usize, usize),
    gram: (usize, usize),
    transpose: (usize, usize),
    samples: usize,
}

fn shapes(quick: bool) -> Shapes {
    if quick {
        Shapes {
            dot_len: 1024,
            gemv: (512, 64),
            gemm: (96, 96, 96),
            gram: (2_000, 32),
            transpose: (256, 256),
            samples: 10,
        }
    } else {
        Shapes {
            dot_len: 8192,
            gemv: (4_096, 64),
            gemm: (256, 256, 256),
            gram: (40_000, 64),
            transpose: (1_024, 512),
            samples: 20,
        }
    }
}

fn filled(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 977) as f64).mul_add(1.3e-3, 0.25)).collect()
}

/// Run the fast and naive variant of every kernel, returning joined rows.
fn measure_kernels(quick: bool) -> Vec<KernelRow> {
    kernels::set_force_naive(false);
    let s = shapes(quick);
    let mut c = Criterion::default();
    let mut g = c.benchmark_group("linalg");
    g.sample_size(s.samples);

    let x = filled(s.dot_len);
    let y = filled(s.dot_len);
    g.bench_function(format!("dot/fast/{}", s.dot_len), |b| {
        b.iter(|| kernels::dot(black_box(&x), black_box(&y)))
    });
    g.bench_function(format!("dot/naive/{}", s.dot_len), |b| {
        b.iter(|| kernels::dot_naive(black_box(&x), black_box(&y)))
    });

    let (rows, cols) = s.gemv;
    let a = filled(rows * cols);
    let xv = filled(cols);
    let xt = filled(rows);
    let mut out_r = vec![0.0; rows];
    let mut out_c = vec![0.0; cols];
    g.bench_function(format!("gemv/fast/{rows}x{cols}"), |b| {
        b.iter(|| kernels::gemv(rows, cols, black_box(&a), black_box(&xv), &mut out_r))
    });
    g.bench_function(format!("gemv/naive/{rows}x{cols}"), |b| {
        b.iter(|| kernels::gemv_naive(rows, cols, black_box(&a), black_box(&xv), &mut out_r))
    });
    g.bench_function(format!("gemv_t/fast/{rows}x{cols}"), |b| {
        b.iter(|| kernels::gemv_t(rows, cols, black_box(&a), black_box(&xt), &mut out_c))
    });
    g.bench_function(format!("gemv_t/naive/{rows}x{cols}"), |b| {
        b.iter(|| kernels::gemv_t_naive(rows, cols, black_box(&a), black_box(&xt), &mut out_c))
    });

    let (m, k, n) = s.gemm;
    let ga = filled(m * k);
    let gb = filled(k * n);
    let mut gc = vec![0.0; m * n];
    g.bench_function(format!("gemm/fast/{m}x{k}x{n}"), |b| {
        b.iter(|| kernels::gemm(m, k, n, black_box(&ga), black_box(&gb), &mut gc))
    });
    g.bench_function(format!("gemm/naive/{m}x{k}x{n}"), |b| {
        b.iter(|| kernels::gemm_naive(m, k, n, black_box(&ga), black_box(&gb), &mut gc))
    });

    let (grows, gcols) = s.gram;
    let gm = filled(grows * gcols);
    let gw = filled(grows);
    let mut gout = vec![0.0; gcols * gcols];
    g.bench_function(format!("gram_weighted/fast/{grows}x{gcols}"), |b| {
        b.iter(|| kernels::gram_weighted(grows, gcols, black_box(&gm), black_box(&gw), &mut gout))
    });
    g.bench_function(format!("gram_weighted/naive/{grows}x{gcols}"), |b| {
        b.iter(|| {
            kernels::gram_weighted_naive(grows, gcols, black_box(&gm), black_box(&gw), &mut gout)
        })
    });

    let (trows, tcols) = s.transpose;
    let tm = filled(trows * tcols);
    let mut tout = vec![0.0; trows * tcols];
    g.bench_function(format!("transpose/fast/{trows}x{tcols}"), |b| {
        b.iter(|| kernels::transpose(trows, tcols, black_box(&tm), &mut tout))
    });
    g.bench_function(format!("transpose/naive/{trows}x{tcols}"), |b| {
        b.iter(|| kernels::transpose_naive(trows, tcols, black_box(&tm), &mut tout))
    });

    g.finish();
    join_variants(take_results())
}

/// The serve flush workload: one trained baseline pipeline scoring a
/// 256-row micro-batch. `fast` = the new single-pass
/// `predict_with_proba` on blocked kernels; `naive` = the pre-PR shape,
/// separate `predict` + `predict_proba` passes on the naive references.
fn measure_serve(quick: bool) -> Vec<KernelRow> {
    let train_rows = if quick { 2_000 } else { 10_000 };
    let train = DatasetKind::Adult.generate(train_rows, 11);
    let batch = DatasetKind::Adult.generate(256, 99);
    kernels::set_force_naive(false);
    let pipeline = baseline_approach().fit(&train, 7).expect("baseline fit");

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("serve");
    g.sample_size(if quick { 10 } else { 30 });
    // Same trailing shape label on both variants so `join_variants` pairs
    // them into one row: fast = single-pass batched predict_with_proba,
    // naive = the pre-rewrite two-pass predict + predict_proba.
    g.bench_function("flush_256/fast/adult_256", |b| {
        kernels::set_force_naive(false);
        b.iter(|| pipeline.predict_with_proba(black_box(&batch)))
    });
    g.bench_function("flush_256/naive/adult_256", |b| {
        kernels::set_force_naive(true);
        b.iter(|| {
            let labels = pipeline.predict(black_box(&batch));
            let scores = pipeline.predict_proba(black_box(&batch));
            (labels, scores)
        })
    });
    g.finish();
    kernels::set_force_naive(false);
    join_variants(take_results())
}

/// Join `<group>/<kernel>/fast/<shape>` and `<group>/<kernel>/naive/<shape>`
/// summaries into per-kernel rows (order of first appearance).
fn join_variants(summaries: Vec<Summary>) -> Vec<KernelRow> {
    let mut rows: Vec<KernelRow> = Vec::new();
    for s in &summaries {
        let mut parts = s.label.splitn(2, '/');
        let _group = parts.next().unwrap_or_default();
        let rest = parts.next().unwrap_or_default();
        let segs: Vec<&str> = rest.split('/').collect();
        let (kernel, variant, shape) = match segs.as_slice() {
            [kernel, variant, shape] => (kernel.to_string(), *variant, shape.to_string()),
            [kernel, variant] => (kernel.to_string(), *variant, String::new()),
            _ => continue,
        };
        let row = match rows.iter_mut().find(|r| r.kernel == kernel && r.shape == shape) {
            Some(r) => r,
            None => {
                rows.push(KernelRow {
                    kernel,
                    shape,
                    fast_median_ns: 0,
                    naive_median_ns: 0,
                });
                rows.last_mut().unwrap()
            }
        };
        match variant {
            "fast" => row.fast_median_ns = s.median_ns,
            "naive" => row.naive_median_ns = s.median_ns,
            _ => {}
        }
    }
    for r in &rows {
        println!("  {:<16} {:<14} {:>7.2}x  (fast {} ns, naive {} ns)",
            r.kernel, r.shape, r.speedup(), r.fast_median_ns, r.naive_median_ns);
    }
    rows
}

/// Fit the baseline LR pipeline on Adult at `rows` with each kernel
/// routing, timing the `fit` span through a [`fairlens_trace::TraceSink`]
/// — the same span `trace_report` attributes. Returns `(naive_ms,
/// fast_ms)`, each the minimum over `reps` runs.
fn measure_fit(rows: usize, reps: usize) -> (f64, f64) {
    let data = DatasetKind::Adult.generate(rows, 42);
    let approach = baseline_approach();
    let mut fit_ms = [f64::INFINITY; 2];
    for (slot, naive) in [(0usize, true), (1usize, false)] {
        kernels::set_force_naive(naive);
        for _ in 0..reps {
            let sink = fairlens_trace::TraceSink::new();
            {
                let _guard = sink.collect("bench_report");
                let _span = fairlens_trace::span("fit");
                let t0 = Instant::now();
                approach.fit(&data, 7).expect("baseline fit");
                black_box(t0.elapsed());
            }
            let dur_us = sink
                .tracks()
                .iter()
                .flat_map(|t| t.events.iter())
                .filter(|e| e.name() == "fit")
                .filter_map(|e| e.dur_us())
                .max()
                .expect("fit span recorded");
            fit_ms[slot] = fit_ms[slot].min(dur_us as f64 / 1_000.0);
        }
        println!(
            "  fit[{}] {} rows: {:.1} ms",
            if naive { "naive" } else { "fast" },
            rows,
            fit_ms[slot]
        );
    }
    kernels::set_force_naive(false);
    (fit_ms[0], fit_ms[1])
}

/// `--check`: quick-scale sweep vs the committed baseline's
/// `quick_kernels`; >20% fast-path median regression fails, and a >20%
/// loss of the in-run naive/fast speedup is reported beside it.
fn run_check(baseline_path: &Path) {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", baseline_path.display());
            std::process::exit(1);
        }
    };
    let baseline = fairlens_json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {}: {e}", baseline_path.display());
        std::process::exit(1);
    });
    let Some(Value::Array(base_rows)) = baseline.get("quick_kernels") else {
        eprintln!("{}: no quick_kernels section", baseline_path.display());
        std::process::exit(1);
    };

    println!("== bench check: quick kernels vs {} ==", baseline_path.display());
    let current = measure_kernels(true);
    let number = |b: &Value, key: &str| match b.get(key) {
        Some(Value::Integer(n)) => Some(*n as f64),
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    };
    let mut regressed = Vec::new();
    let mut speedup_lost = Vec::new();
    for row in &current {
        let base = base_rows.iter().find(|b| {
            b.get("kernel").and_then(Value::as_str) == Some(row.kernel.as_str())
                && b.get("shape").and_then(Value::as_str) == Some(row.shape.as_str())
        });
        let Some((base_ns, base_speedup)) =
            base.and_then(|b| Some((number(b, "fast_median_ns")?, number(b, "speedup")?)))
        else {
            println!("  {:<16} {:<14} (no baseline entry — skipped)", row.kernel, row.shape);
            continue;
        };
        let ratio = row.fast_median_ns as f64 / base_ns.max(1.0);
        let absolute = if ratio > 1.2 {
            regressed.push(row.kernel.as_str());
            "REGRESSED"
        } else {
            "ok"
        };
        let kept = row.speedup() / base_speedup;
        let relative = if kept < 1.0 / 1.2 {
            speedup_lost.push(row.kernel.as_str());
            "SPEEDUP-LOST"
        } else {
            "ok"
        };
        println!(
            "  {:<16} {:<14} {:>8} ns vs baseline {:>8} ns  ({:+.1}%)  {absolute:<9}  \
             speedup {:>6.2}x vs baseline {:>6.2}x  ({:+.1}%)  {relative}",
            row.kernel,
            row.shape,
            row.fast_median_ns,
            base_ns,
            (ratio - 1.0) * 100.0,
            row.speedup(),
            base_speedup,
            (kept - 1.0) * 100.0
        );
    }
    let verdict = |names: &[&str]| {
        if names.is_empty() {
            "ok".to_string()
        } else {
            names.join(", ")
        }
    };
    println!("absolute verdict (fast median, moves with machine load): {}", verdict(&regressed));
    println!("relative verdict (in-run naive/fast speedup): {}", verdict(&speedup_lost));
    if !regressed.is_empty() {
        eprintln!("bench check FAILED: a kernel regressed more than 20% vs the committed baseline");
        std::process::exit(1);
    }
    println!("bench check passed");
}
