//! The offline workloads: the paper's grids, run by the bench crate's
//! `Runner` on one thread.
//!
//! A run is several independently seeded *draws* of one grid, each run
//! `ROUNDS` times in interleaved rounds. One draw's solver work moves by
//! ~10 % with its data, so summing several draws is what makes `wall_s`
//! comparable across seeds. On a shared machine the same draw also runs up
//! to ~50 % slower while a neighbour contends for its core. That noise only
//! ever adds time, and each core has spells of its own, so the rounds run
//! on the cores in turn and every part of a draw (each cell's fit and
//! predict, and the rest of the draw) counts at its fastest round. Set-up
//! (dataset generation and fold splits) is timed apart from the grids, by
//! calling the same functions with the same derived seeds as the runner.
//! Per-layer numbers come from the runner's own `RunPolicy::trace` spans
//! and solver counters.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fairlens_bench::spec::{dataset_seed, fold_seed};
use fairlens_bench::{
    ApproachSelector, CellFailure, ExperimentSpec, RunPolicy, RunRecord, Runner, ScaleSpec,
    METRIC_KEYS,
};
use fairlens_core::Stage;
use fairlens_frame::split;
use fairlens_json::{parse, Value};
use fairlens_synth::DatasetKind;
use fairlens_trace::{TraceEvent, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::catalog::approach_id;
use crate::stats::{median, nearest_rank, tail};
use crate::{cores, mix, Report};

/// One offline workload.
pub struct Grid {
    /// `--workload` name (also names the reference file).
    pub name: &'static str,
    /// Dataset of every draw.
    kind: DatasetKind,
    /// Rows per draw.
    rows: usize,
    /// Attribute projection (the Fig. 11(d) protocol), if any.
    attrs: Option<usize>,
    /// LR plus the pre-processing variants, timing only (Fig. 11(d));
    /// otherwise LR plus all 18 variants with the metric suite (Fig. 10).
    pre_timing: bool,
    /// About how long one execution of one draw takes on a shared 2-core
    /// x86-64 container, slow spells included; sets the number of draws so
    /// that `ROUNDS` executions of each take about `--seconds`.
    seconds_per_draw: f64,
    /// Rows of the fixed-seed correctness draw.
    check_rows: usize,
    /// The stored metrics of the correctness draw.
    reference: &'static str,
}

/// Fig. 10 on COMPAS: the in-processing solvers (`optim`, `model`,
/// `linalg`) do nearly all the work.
pub const GRID_COMPAS: Grid = Grid {
    name: "grid-compas",
    kind: DatasetKind::Compas,
    rows: 1_000,
    attrs: None,
    pre_timing: false,
    seconds_per_draw: 1.7,
    check_rows: 800,
    reference: include_str!("../reference/grid-compas.json"),
};

/// Fig. 11(d) on Credit projected to 14 attributes: `causal` (ZhaWu's CI
/// tests) and `solver` (MaxSAT) do nearly all the work.
pub const PRE_CREDIT: Grid = Grid {
    name: "pre-credit",
    kind: DatasetKind::Credit,
    rows: 4_000,
    attrs: Some(14),
    pre_timing: true,
    seconds_per_draw: 0.55,
    check_rows: 1_500,
    reference: include_str!("../reference/pre-credit.json"),
};

/// Seed of the correctness draw, fixed so its metrics can be stored.
const CHECK_SEED: u64 = 20_220_612;
/// Largest absolute difference from the stored metrics still accepted.
/// The pipelines are deterministic, so this only absorbs last-digit float
/// noise; one flipped test prediction already moves a metric by ~1e-3.
const CHECK_TOLERANCE: f64 = 1e-9;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Executions of every draw, one round at a time and each round on the
/// next core; each part of a draw counts at its fastest.
const ROUNDS: usize = 4;

impl Grid {
    fn spec(&self, seed: u64, rows: usize, timing_only: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(seed)
            .datasets([self.kind])
            .scale(ScaleSpec::Rows(rows));
        if let Some(k) = self.attrs {
            spec = spec.attrs(k);
        }
        if self.pre_timing {
            spec = spec.approaches(ApproachSelector::Stage(Stage::Pre));
        }
        spec.timing_only(timing_only)
    }

    /// The draws of one run: their count follows `seconds`, their seeds
    /// follow the workload seed. Fewer seconds give a prefix of the list.
    fn draws(&self, seed: u64, seconds: u64) -> Vec<ExperimentSpec> {
        let per_draw = ROUNDS as f64 * self.seconds_per_draw;
        let n = ((seconds as f64 / per_draw).ceil() as u64).max(2);
        (0..n)
            .map(|k| self.spec(mix(seed, k), self.rows, self.pre_timing))
            .collect()
    }

    /// Generate (and split) one draw's data exactly as the runner does;
    /// returns (generation ms, split ms).
    fn materialise(&self, spec: &ExperimentSpec) -> (f64, f64) {
        let name = self.kind.name();
        let t0 = Instant::now();
        let mut full = self.kind.generate(self.rows, dataset_seed(spec.seed, name));
        if let Some(k) = self.attrs {
            let idx: Vec<usize> = (0..k.min(full.n_attrs())).collect();
            full = full.select_attrs(&idx);
        }
        let generate_ms = ms_since(t0);
        let t1 = Instant::now();
        if !self.pre_timing {
            let mut rng = StdRng::seed_from_u64(fold_seed(spec.seed, name, 0));
            black_box(split::train_test_split(
                &full,
                spec.test_fraction(),
                &mut rng,
            ));
        }
        let split_ms = ms_since(t1);
        black_box(full);
        (generate_ms, split_ms)
    }

    /// Run the workload and fill `report`.
    pub fn run(&self, seed: u64, seconds: u64, trace: bool, report: &mut Report) {
        // A traced run executes every draw twice per round, so it takes
        // half the draws to stay within about `--seconds`.
        let draws = self.draws(seed, if trace { seconds / 2 } else { seconds });
        let plain = RunPolicy::default();
        let sink = TraceSink::new();
        let traced_policy = RunPolicy {
            trace: Some(sink.clone()),
            ..Default::default()
        };
        let (mut untraced, mut traced) = (Batch::default(), Batch::default());
        let (mut setups, mut generate, mut split) = (Vec::new(), Vec::new(), Vec::new());
        let steps = ROUNDS * draws.len();
        let all_cores = cores::allowed();
        for step in 0..steps {
            let round = step / draws.len();
            if step % draws.len() == 0 {
                if let Some(all) = &all_cores {
                    if !cores::pin(&[all[round % all.len()]]) {
                        report.note("could not pin the runner to one core".into());
                    }
                }
            }
            // The set-up repetitions are spread over the run, so their median
            // samples the machine at several moments.
            for _ in SETUP_REPS * step / steps..SETUP_REPS * (step + 1) / steps {
                let t0 = Instant::now();
                let (g, s) = draws
                    .iter()
                    .map(|d| self.materialise(d))
                    .fold((0.0, 0.0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
                setups.push(t0.elapsed().as_secs_f64());
                generate.push(g);
                split.push(s);
            }
            let k = step % draws.len();
            untraced.run(k, &draws[k], &plain);
            // Each traced draw right after its untraced twin keeps the
            // overhead estimate clear of slow drifts in machine speed.
            if trace {
                traced.run(k, &draws[k], &traced_policy);
            }
        }
        if let Some(all) = &all_cores {
            cores::pin(all);
        }
        self.account(&untraced, report);

        if trace {
            self.account(&traced, report);
            let overhead = 100.0 * (traced.wall_s() / untraced.wall_s() - 1.0);
            report.set("trace.overhead_pct", overhead, steps);
            layers_from_trace(&sink, &traced.records, report);
            report.set("synth.generate_ms", median(&generate), SETUP_REPS);
            report.set("frame.split_ms", median(&split), SETUP_REPS);
        } else {
            // One draw is one grid a researcher waits for: its wall-clock
            // is the offline latency. A run has tens of draws at most, so
            // the tail rule reports the median.
            let mut latencies: Vec<f64> = untraced.fastest().iter().map(|s| s * 1e3).collect();
            latencies.sort_by(f64::total_cmp);
            let cells = (untraced.records.len() + untraced.failures.len()) / ROUNDS;
            let p99 = tail(&latencies);
            report.set("wall_s", untraced.wall_s(), steps);
            report.set("throughput_rps", cells as f64 / untraced.wall_s(), cells);
            report.set(
                "latency_p50_ms",
                nearest_rank(&latencies, 50.0).value,
                latencies.len(),
            );
            report.set("latency_p99_ms", p99.value, latencies.len());
            report.note(format!(
                "latency_p99_ms is p{:.1} of {} grid draws",
                p99.pct,
                latencies.len()
            ));
            report.set("setup_s", median(&setups), SETUP_REPS);
        }

        for d in self.check() {
            report.deviation(d);
        }
    }

    /// Count cells as operations: a failed cell, or a Fig. 10 cell whose
    /// metrics are missing or outside [0, 1], is a failed operation.
    fn account(&self, batch: &Batch, report: &mut Report) {
        report.attempted += (batch.records.len() + batch.failures.len()) as u64;
        report.failed += batch.failures.len() as u64;
        for f in &batch.failures {
            report.note(format!("cell failed: {f}"));
        }
        if self.pre_timing {
            return;
        }
        for r in &batch.records {
            let ok = r
                .metrics
                .is_some_and(|m| m.iter().all(|v| (0.0..=1.0).contains(v)));
            if !ok {
                report.failed += 1;
                report.deviation(format!("{}: metrics missing or outside [0, 1]", r.approach));
            }
        }
    }

    /// The fixed-seed correctness draw, with the metric suite on every
    /// workload.
    fn check_draw(&self) -> Batch {
        let mut batch = Batch::default();
        batch.run(
            0,
            &self.spec(CHECK_SEED, self.check_rows, false),
            &RunPolicy::default(),
        );
        batch
    }

    /// Run the fixed-seed correctness draw (outside every timed region) and
    /// compare each cell's metrics with the stored reference. Returns the
    /// deviations, named by approach and metric.
    fn check(&self) -> Vec<String> {
        let batch = self.check_draw();
        let reference = match parse_reference(self.reference) {
            Ok(r) => r,
            Err(e) => return vec![format!("reference for {}: {e}", self.name)],
        };
        let mut deviations: Vec<String> = batch
            .failures
            .iter()
            .map(|f| format!("check draw: {f}"))
            .collect();
        for r in &batch.records {
            let Some(expected) = reference.get(&r.approach) else {
                deviations.push(format!("{}: no reference cell", r.approach));
                continue;
            };
            let got = r.metrics.unwrap_or([f64::NAN; 9]);
            for ((key, want), have) in METRIC_KEYS.iter().zip(expected).zip(got) {
                // Written so that a NaN on either side is a deviation too.
                let within = (have - want).abs() <= CHECK_TOLERANCE;
                if !within {
                    deviations.push(format!("{} {key}: {have} (reference {want})", r.approach));
                }
            }
        }
        for approach in reference.keys() {
            if !batch.records.iter().any(|r| &r.approach == approach) {
                deviations.push(format!("{approach}: reference cell not produced"));
            }
        }
        deviations
    }

    /// The reference file content for the current code's correctness draw.
    pub fn reference_json(&self) -> Result<String, String> {
        let batch = self.check_draw();
        if let Some(f) = batch.failures.first() {
            return Err(format!("check draw failed: {f}"));
        }
        let mut out = format!(
            "{{\"workload\":\"{}\",\"dataset\":\"{}\",\"rows\":{},\"seed\":{CHECK_SEED},\"cells\":[\n",
            self.name,
            self.kind.name(),
            self.check_rows
        );
        for (i, r) in batch.records.iter().enumerate() {
            let metrics: Vec<(String, Value)> = METRIC_KEYS
                .iter()
                .zip(r.metrics.unwrap_or([f64::NAN; 9]))
                .map(|(k, v)| (k.to_string(), Value::from_f64(v)))
                .collect();
            let cell = Value::Object(vec![
                ("approach".into(), Value::String(r.approach.clone())),
                ("metrics".into(), Value::Object(metrics)),
            ]);
            let sep = if i + 1 < batch.records.len() { "," } else { "" };
            out.push_str(&format!("{}{sep}\n", cell.to_json()));
        }
        out.push_str("]}\n");
        Ok(out)
    }
}

/// What the rounds over the draws produced.
#[derive(Default)]
struct Batch {
    /// By draw, then by approach: seconds in `fit` plus `predict`, one
    /// entry per execution.
    cells: Vec<BTreeMap<String, Vec<f64>>>,
    /// By draw: seconds of every execution outside the cells' `fit` and
    /// `predict` (data generation, metric suite, orchestration).
    rest: Vec<Vec<f64>>,
    records: Vec<RunRecord>,
    failures: Vec<CellFailure>,
}

impl Batch {
    /// Run draw `k`'s grid on one runner thread and add its outcome.
    fn run(&mut self, k: usize, draw: &ExperimentSpec, policy: &RunPolicy) {
        let t0 = Instant::now();
        let out = Runner::new(1).run_with(draw, policy);
        let wall = t0.elapsed().as_secs_f64();
        if self.rest.len() <= k {
            self.rest.resize(k + 1, Vec::new());
            self.cells.resize(k + 1, BTreeMap::new());
        }
        let mut in_cells = 0.0;
        for r in &out.records {
            let s = (r.fit_ms + r.predict_ms) / 1e3;
            in_cells += s;
            self.cells[k].entry(r.approach.clone()).or_default().push(s);
        }
        self.rest[k].push(wall - in_cells);
        self.records.extend(out.records);
        self.failures.extend(out.failures);
    }

    /// Each draw's wall-clock with every part at its fastest over the
    /// rounds: each cell's fit and predict, and the rest of the draw. A
    /// slow spell of a few seconds hits some cells in one round and others
    /// in the next, so this drops it where a whole-draw minimum would not.
    fn fastest(&self) -> Vec<f64> {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        self.rest
            .iter()
            .zip(&self.cells)
            .map(|(rest, cells)| min(rest) + cells.values().map(|v| min(v)).sum::<f64>())
            .collect()
    }

    /// One grid over all the draws, each at its fastest.
    fn wall_s(&self) -> f64 {
        self.fastest().iter().sum()
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// approach → the nine metrics, from a reference file.
fn parse_reference(text: &str) -> Result<BTreeMap<String, [f64; 9]>, String> {
    let v = parse(text)?;
    let cells = v
        .get("cells")
        .cloned()
        .ok_or("missing \"cells\"")?
        .into_array()?;
    let mut out = BTreeMap::new();
    for cell in cells {
        let approach = cell
            .get("approach")
            .and_then(Value::as_str)
            .ok_or("cell without approach")?
            .to_string();
        let mut values = [0.0; 9];
        for (slot, key) in values.iter_mut().zip(METRIC_KEYS) {
            *slot = cell
                .get("metrics")
                .and_then(|m| m.get(key))
                .cloned()
                .ok_or_else(|| format!("{approach}: missing {key}"))?
                .into_f64()?;
        }
        out.insert(approach, values);
    }
    Ok(out)
}

/// Per-layer totals of one round over the draws (the mean over the
/// traced rounds): fit time per approach and per stage, the predict /
/// encode / metric-suite spans, and the solver counters.
fn layers_from_trace(sink: &TraceSink, records: &[RunRecord], report: &mut Report) {
    let stage_of: BTreeMap<&str, &str> = records
        .iter()
        .map(|r| (r.approach.as_str(), r.stage.as_str()))
        .collect();
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |key: String, v: f64| *totals.entry(key).or_insert(0.0) += v;
    for track in sink.tracks() {
        // cell/<dataset>/r<rows>/a<attrs>/f<fold>/<approach>
        let Some(approach) = track
            .track
            .strip_prefix("cell/")
            .and_then(|t| t.splitn(5, '/').nth(4))
        else {
            continue;
        };
        for event in &track.events {
            match event {
                TraceEvent::Exit { name, dur_us, .. } => {
                    let ms = *dur_us as f64 / 1e3;
                    match name.as_str() {
                        "fit" => {
                            add(format!("core.fit_ms.{}", approach_id(approach)), ms);
                            if let Some(stage) = stage_of.get(approach) {
                                add(format!("core.fit_ms.stage-{stage}"), ms);
                            }
                        }
                        "predict" => add("core.predict_ms".into(), ms),
                        "encode" => add("frame.encode_ms".into(), ms),
                        "metrics" => add("metrics.suite_ms".into(), ms),
                        _ => {}
                    }
                }
                TraceEvent::Counter { name, value } => {
                    let key = match name.as_str() {
                        "gd.iterations" => "optim.gd_iterations",
                        "adam.iterations" => "optim.adam_iterations",
                        "maxsat.flips" => "solver.maxsat_flips",
                        "nmf.iterations" => "solver.nmf_iterations",
                        "simplex.iterations" => "solver.simplex_iterations",
                        _ => continue,
                    };
                    add(key.into(), *value as f64);
                }
                _ => {}
            }
        }
    }
    for (key, value) in totals {
        report.set_owned(key, value / ROUNDS as f64, records.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_list(seed: u64) -> Vec<(String, u64)> {
        GRID_COMPAS
            .draws(seed, 10)
            .iter()
            .flat_map(|spec| spec.cells())
            .map(|c| {
                (
                    c.approach.map(|a| a.name.to_string()).unwrap_or_default(),
                    c.seed,
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_cells_other_seed_other_cells() {
        let a = cell_list(1);
        assert_eq!(a.len(), 19 * GRID_COMPAS.draws(1, 10).len());
        assert_eq!(a, cell_list(1));
        let b = cell_list(2);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1 != y.1));
    }

    #[test]
    fn draw_count_follows_seconds() {
        assert_eq!(PRE_CREDIT.draws(5, 10).len(), 5);
        assert_eq!(PRE_CREDIT.draws(5, 0).len(), 2);
        let short = PRE_CREDIT.draws(5, 5);
        assert!(short.len() < 5);
        let long = PRE_CREDIT.draws(5, 10);
        assert!(short.iter().zip(&long).all(|(a, b)| a.seed == b.seed));
        assert!(PRE_CREDIT.draws(5, 10).iter().all(|s| s.is_timing_only()));
        assert!(GRID_COMPAS.draws(5, 10).iter().all(|s| !s.is_timing_only()));
    }

    #[test]
    fn stored_references_parse_and_cover_every_approach() {
        assert_eq!(parse_reference(GRID_COMPAS.reference).unwrap().len(), 19);
        assert_eq!(parse_reference(PRE_CREDIT.reference).unwrap().len(), 8);
    }
}
