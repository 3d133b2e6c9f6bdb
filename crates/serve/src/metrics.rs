//! Prometheus text-format metrics for the prediction server.
//!
//! Counters use a mutexed map keyed by label tuple (request handling is
//! socket-bound, so one short lock per request is noise); histograms use
//! fixed buckets over atomics so the batcher's hot path never takes a
//! lock. Rendering follows the Prometheus exposition format v0.0.4:
//! `# HELP` / `# TYPE` preambles, cumulative `_bucket{le=...}` counts,
//! `_sum` and `_count` per histogram. [`Exposition`] is the one writer
//! for that format; the fleet's registry renders through it too.

use std::collections::BTreeMap;
use std::fmt::{self, Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fairlens_monitor::LiveMetric;

/// Latency buckets, seconds.
const LATENCY_BUCKETS: [f64; 10] =
    [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0];
/// Flush-size buckets, rows.
const BATCH_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Predict-request phases, in request order. Must match the span names
/// the handler emits so the trace and the exposition agree.
pub const PREDICT_PHASES: [&str; 4] = ["parse", "queue", "batch", "predict"];

/// A fixed-bucket histogram over atomics.
struct Histogram<const N: usize> {
    buckets: [AtomicU64; N],
    overflow: AtomicU64,
    /// Sum scaled by 1e6 (micro-units) to stay integral.
    sum_micro: AtomicU64,
    count: AtomicU64,
    bounds: [f64; N],
}

impl<const N: usize> Histogram<N> {
    fn new(bounds: [f64; N]) -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
            count: AtomicU64::new(0),
            bounds,
        }
    }

    fn observe(&self, v: f64) {
        match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_micro.fetch_add((v.max(0.0) * 1e6) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn render(&self, out: &mut Exposition, name: &str, help: &str) {
        out.family(name, "histogram", help);
        self.render_series(out, name, &[]);
    }

    /// One histogram series under a metric `name`, tagged with `labels`
    /// (e.g. `phase="queue"`; none for an unlabelled histogram). The
    /// caller owns the family preamble so several labelled series can
    /// share one metric family.
    fn render_series(&self, out: &mut Exposition, name: &str, labels: &[(&str, &dyn Display)]) {
        let bucket = format!("{name}_bucket");
        let mut with_le = labels.to_vec();
        let le = with_le.len();
        with_le.push(("le", &"+Inf"));
        let mut cumulative = 0u64;
        for (bound, count) in self.bounds.iter().zip(&self.buckets) {
            cumulative += count.load(Ordering::Relaxed);
            with_le[le] = ("le", bound);
            out.sample(&bucket, &with_le, cumulative);
        }
        cumulative += self.overflow.load(Ordering::Relaxed);
        with_le[le] = ("le", &"+Inf");
        out.sample(&bucket, &with_le, cumulative);
        let sum = self.sum_micro.load(Ordering::Relaxed) as f64 / 1e6;
        out.sample(&format!("{name}_sum"), labels, sum);
        out.sample(&format!("{name}_count"), labels, self.count.load(Ordering::Relaxed));
    }
}

/// The `Content-Type` of a rendered exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// A Prometheus text-format writer shared by every metric registry:
/// `# HELP`/`# TYPE` family preambles, then samples whose label values
/// are escaped as the format specifies (`\`, `"` and newline), so a
/// client-supplied value such as a model id can never forge a line.
#[derive(Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// Open a metric family: its `# HELP` and `# TYPE` lines.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    }

    /// One sample line: `name{key="value",...} value`, or `name value`
    /// without labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &dyn Display)], value: impl Display) {
        self.out.push_str(name);
        for (i, (key, label)) in labels.iter().enumerate() {
            self.out.push(if i == 0 { '{' } else { ',' });
            self.out.push_str(key);
            self.out.push_str("=\"");
            let _ = write!(Escaped(&mut self.out), "{label}");
            self.out.push('"');
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Label-value escaping as a `fmt::Write` adapter, so values format
/// straight into the output without an intermediate string.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '\\' => self.0.push_str("\\\\"),
                '"' => self.0.push_str("\\\""),
                '\n' => self.0.push_str("\\n"),
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// The server's metric registry.
pub struct Metrics {
    /// `(route, status)` → request count. BTreeMap keeps render order
    /// deterministic.
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// Error-taxonomy kind → count.
    errors: Mutex<BTreeMap<&'static str, u64>>,
    latency: Histogram<10>,
    /// Per-phase latency, index-aligned with [`PREDICT_PHASES`].
    phases: [Histogram<10>; 4],
    batch_rows: Histogram<8>,
    rows_total: AtomicU64,
    models_loaded: AtomicU64,
    model_evictions: AtomicU64,
    /// Shed reason → count (`queue_full` / `inflight` / `breaker_open`).
    sheds: Mutex<BTreeMap<&'static str, u64>>,
    /// Model id → live executor queue depth.
    queue_depth: Mutex<BTreeMap<String, u64>>,
    /// Model id → (breaker state gauge, opens counter).
    breakers: Mutex<BTreeMap<String, (u64, u64)>>,
    /// Model id → (shadow comparisons, divergences observed).
    shadow: Mutex<BTreeMap<String, (u64, u64)>>,
    /// Predict requests currently being handled.
    inflight: AtomicU64,
    /// Artifacts that failed to load/restore and were quarantined.
    load_failures: AtomicU64,
    /// Model id → live windowed fairness-metric suite, in the monitor's
    /// order (sorted by metric and group at render time).
    live: Mutex<BTreeMap<String, Vec<LiveMetric>>>,
    /// Model id → drift-state gauge (0 ok / 1 warning / 2 alerting).
    drift: Mutex<BTreeMap<String, u64>>,
    /// `(model, status)` → feedback reports (ok/unknown/duplicate/invalid).
    feedback: Mutex<BTreeMap<(String, &'static str), u64>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Self {
        Self {
            requests: Mutex::new(BTreeMap::new()),
            errors: Mutex::new(BTreeMap::new()),
            latency: Histogram::new(LATENCY_BUCKETS),
            phases: std::array::from_fn(|_| Histogram::new(LATENCY_BUCKETS)),
            batch_rows: Histogram::new(BATCH_BUCKETS),
            rows_total: AtomicU64::new(0),
            models_loaded: AtomicU64::new(0),
            model_evictions: AtomicU64::new(0),
            sheds: Mutex::new(BTreeMap::new()),
            queue_depth: Mutex::new(BTreeMap::new()),
            breakers: Mutex::new(BTreeMap::new()),
            shadow: Mutex::new(BTreeMap::new()),
            inflight: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            live: Mutex::new(BTreeMap::new()),
            drift: Mutex::new(BTreeMap::new()),
            feedback: Mutex::new(BTreeMap::new()),
        }
    }

    /// Count one handled request and its wall-clock latency.
    pub fn record_request(&self, route: &str, status: u16, latency_secs: f64) {
        *self
            .requests
            .lock()
            .unwrap()
            .entry((route.to_string(), status))
            .or_insert(0) += 1;
        self.latency.observe(latency_secs);
    }

    /// Record time spent in one predict-request phase. Unknown phase
    /// names are ignored (they still reach the trace, just not the
    /// exposition).
    pub fn record_phase(&self, phase: &str, secs: f64) {
        if let Some(i) = PREDICT_PHASES.iter().position(|p| *p == phase) {
            self.phases[i].observe(secs);
        }
    }

    /// Count one taxonomy error.
    pub fn record_error(&self, kind: &'static str) {
        *self.errors.lock().unwrap().entry(kind).or_insert(0) += 1;
    }

    /// Record one batcher flush of `rows` rows.
    pub fn record_flush(&self, rows: usize) {
        self.batch_rows.observe(rows as f64);
        self.rows_total.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Track the number of resident models.
    pub fn set_models_loaded(&self, n: usize) {
        self.models_loaded.store(n as u64, Ordering::Relaxed);
    }

    /// Count one LRU eviction.
    pub fn record_eviction(&self) {
        self.model_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one shed request by admission-control reason.
    pub fn record_shed(&self, reason: &'static str) {
        *self.sheds.lock().unwrap().entry(reason).or_insert(0) += 1;
    }

    /// Track one model's executor queue depth.
    pub fn set_queue_depth(&self, model: &str, depth: u64) {
        store_gauge(&mut self.queue_depth.lock().unwrap(), model, depth);
    }

    /// [`Self::set_queue_depth`] from an executor's live job counter,
    /// read under the gauge's lock: when an enqueue and the dequeue that
    /// follows it race to publish, the later publisher reads the later
    /// count, so the gauge never keeps a stale depth.
    pub fn publish_queue_depth(&self, model: &str, depth: &AtomicU64) {
        let mut map = self.queue_depth.lock().unwrap();
        store_gauge(&mut map, model, depth.load(Ordering::Relaxed));
    }

    /// Hold the queue-depth gauge's lock, parking every publisher.
    #[cfg(test)]
    pub(crate) fn lock_queue_depth(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, u64>> {
        self.queue_depth.lock().unwrap()
    }

    /// Track one model's breaker state (0 closed / 1 half-open / 2 open).
    pub fn set_breaker_state(&self, model: &str, gauge: u64) {
        let mut map = self.breakers.lock().unwrap();
        map.entry(model.to_string()).or_insert((0, 0)).0 = gauge;
    }

    /// Count one closed→open (or half-open→open) breaker transition.
    pub fn record_breaker_open(&self, model: &str) {
        self.breakers.lock().unwrap().entry(model.to_string()).or_insert((0, 0)).1 += 1;
    }

    /// Count one shadow comparison for `model`, and whether the candidate
    /// diverged from the incumbent on it.
    pub fn record_shadow_compare(&self, model: &str, diverged: bool) {
        let mut map = self.shadow.lock().unwrap();
        let entry = map.entry(model.to_string()).or_insert((0, 0));
        entry.0 += 1;
        if diverged {
            entry.1 += 1;
        }
    }

    /// Track the number of predict requests currently in flight.
    pub fn set_inflight(&self, n: u64) {
        self.inflight.store(n, Ordering::Relaxed);
    }

    /// Count one artifact load/restore failure (quarantine).
    pub fn record_load_failure(&self) {
        self.load_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the full live-metric suite for one model, replacing the
    /// previous snapshot (metrics that left the suite — e.g. a group
    /// vanished from the window — must disappear from the exposition).
    /// After a model's first publish this overwrites its suite in place and
    /// allocates nothing unless the suite outgrows every earlier one.
    pub fn set_live_metrics(&self, model: &str, values: &[LiveMetric]) {
        let mut map = self.live.lock().unwrap();
        match map.get_mut(model) {
            Some(suite) => {
                suite.clear();
                suite.extend_from_slice(values);
            }
            None => {
                map.insert(model.to_string(), values.to_vec());
            }
        }
    }

    /// Track one model's drift state (0 ok / 1 warning / 2 alerting).
    pub fn set_drift_state(&self, model: &str, gauge: u64) {
        let mut map = self.drift.lock().unwrap();
        match map.get_mut(model) {
            Some(g) => *g = gauge,
            None => {
                map.insert(model.to_string(), gauge);
            }
        }
    }

    /// Count one `POST /v1/feedback` report by outcome
    /// (`ok` / `unknown` / `duplicate` / `invalid`).
    pub fn record_feedback(&self, model: &str, status: &'static str) {
        *self.feedback.lock().unwrap().entry((model.to_string(), status)).or_insert(0) += 1;
    }

    /// Render the Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = Exposition::default();

        out.family("fairlens_requests_total", "counter", "Handled HTTP requests.");
        for ((route, status), count) in self.requests.lock().unwrap().iter() {
            out.sample("fairlens_requests_total", &[("route", route), ("status", status)], count);
        }

        out.family("fairlens_errors_total", "counter", "Structured errors by taxonomy kind.");
        for (kind, count) in self.errors.lock().unwrap().iter() {
            out.sample("fairlens_errors_total", &[("kind", kind)], count);
        }

        self.latency.render(
            &mut out,
            "fairlens_request_latency_seconds",
            "Request wall-clock latency.",
        );
        out.family(
            "fairlens_phase_seconds",
            "histogram",
            "Predict-request time by phase (parse/queue/batch/predict).",
        );
        for (phase, hist) in PREDICT_PHASES.iter().zip(&self.phases) {
            hist.render_series(&mut out, "fairlens_phase_seconds", &[("phase", phase)]);
        }

        self.batch_rows.render(
            &mut out,
            "fairlens_batch_rows",
            "Rows per batcher flush (one matrix pass each).",
        );

        out.family("fairlens_predict_rows_total", "counter", "Predicted rows.");
        out.sample("fairlens_predict_rows_total", &[], self.rows_total.load(Ordering::Relaxed));
        out.family(
            "fairlens_shed_total",
            "counter",
            "Requests shed by admission control, by reason.",
        );
        for (reason, count) in self.sheds.lock().unwrap().iter() {
            out.sample("fairlens_shed_total", &[("reason", reason)], count);
        }

        out.family("fairlens_queue_depth", "gauge", "Jobs queued per model executor.");
        for (model, depth) in self.queue_depth.lock().unwrap().iter() {
            out.sample("fairlens_queue_depth", &[("model", model)], depth);
        }

        {
            let breakers = self.breakers.lock().unwrap();
            out.family(
                "fairlens_breaker_state",
                "gauge",
                "Circuit-breaker state per model (0 closed, 1 half-open, 2 open).",
            );
            for (model, (gauge, _)) in breakers.iter() {
                out.sample("fairlens_breaker_state", &[("model", model)], gauge);
            }
            out.family(
                "fairlens_breaker_opens_total",
                "counter",
                "Breaker trips (transitions to open).",
            );
            for (model, (_, opens)) in breakers.iter() {
                out.sample("fairlens_breaker_opens_total", &[("model", model)], opens);
            }
        }

        {
            let shadow = self.shadow.lock().unwrap();
            out.family(
                "fairlens_shadow_compared_total",
                "counter",
                "Requests scored by both the incumbent and its shadow candidate.",
            );
            for (model, (compared, _)) in shadow.iter() {
                out.sample("fairlens_shadow_compared_total", &[("model", model)], compared);
            }
            out.family(
                "fairlens_shadow_divergence_total",
                "counter",
                "Shadow comparisons where the candidate's scores differed from the incumbent's.",
            );
            for (model, (_, diverged)) in shadow.iter() {
                out.sample("fairlens_shadow_divergence_total", &[("model", model)], diverged);
            }
        }

        out.family(
            "fairlens_live_metric",
            "gauge",
            "Windowed live fairness/correctness metrics over scored traffic.",
        );
        for (model, suite) in self.live.lock().unwrap().iter() {
            let mut sorted: Vec<&LiveMetric> = suite.iter().collect();
            sorted.sort_by_key(|m| (m.metric, m.group));
            for m in sorted {
                out.sample(
                    "fairlens_live_metric",
                    &[("model", model), ("metric", &m.metric), ("group", &m.group)],
                    m.value,
                );
            }
        }

        out.family(
            "fairlens_drift_state",
            "gauge",
            "Live-vs-training drift status per model (0 ok, 1 warning, 2 alerting).",
        );
        for (model, gauge) in self.drift.lock().unwrap().iter() {
            out.sample("fairlens_drift_state", &[("model", model)], gauge);
        }

        out.family(
            "fairlens_feedback_total",
            "counter",
            "Outcome-label reports via POST /v1/feedback, by status.",
        );
        for ((model, status), count) in self.feedback.lock().unwrap().iter() {
            out.sample("fairlens_feedback_total", &[("model", model), ("status", status)], count);
        }

        let scalars = [
            ("fairlens_inflight", "gauge", "Predict requests currently in flight.", &self.inflight),
            (
                "fairlens_model_load_failures_total",
                "counter",
                "Artifact load failures (quarantines).",
                &self.load_failures,
            ),
            (
                "fairlens_models_loaded",
                "gauge",
                "Models resident in the registry.",
                &self.models_loaded,
            ),
            ("fairlens_model_evictions_total", "counter", "LRU evictions.", &self.model_evictions),
        ];
        for (name, kind, help, value) in scalars {
            out.family(name, kind, help);
            out.sample(name, &[], value.load(Ordering::Relaxed));
        }
        out.finish()
    }
}

/// Set `model`'s gauge to `value`. Entry reuse keeps this at one
/// allocation per model, not per job.
fn store_gauge(map: &mut BTreeMap<String, u64>, model: &str, value: u64) {
    match map.get_mut(model) {
        Some(v) => *v = value,
        None => {
            map.insert(model.to_string(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(metric: &'static str, group: &'static str, value: f64) -> LiveMetric {
        LiveMetric { metric, group, value }
    }

    /// A registry with every family populated, label values included.
    fn populated() -> Metrics {
        let m = Metrics::new();
        m.record_request("/v1/predict", 200, 0.003);
        m.record_request("/v1/predict", 200, 0.3);
        m.record_request("/metrics", 200, 2.5);
        m.record_request("parse-error", 400, 0.0);
        m.record_error("bad_request");
        m.record_error("overloaded");
        for (phase, secs) in
            [("parse", 0.0004), ("queue", 0.002), ("batch", 0.011), ("predict", 0.07)]
        {
            m.record_phase(phase, secs);
        }
        m.record_flush(3);
        m.record_flush(200);
        m.set_models_loaded(2);
        m.record_eviction();
        m.record_shed("queue_full");
        m.record_shed("inflight");
        m.set_queue_depth("german-lr", 3);
        m.set_queue_depth("adult-lr", 0);
        m.set_breaker_state("german-lr", 2);
        m.record_breaker_open("german-lr");
        m.record_shadow_compare("german-lr", false);
        m.record_shadow_compare("german-lr", true);
        m.set_inflight(5);
        m.record_load_failure();
        m.set_live_metrics(
            "german-lr",
            &[live("di_star", "all", 0.75), live("pos_rate", "1", 0.375)],
        );
        m.set_drift_state("german-lr", 1);
        m.record_feedback("german-lr", "ok");
        m.record_feedback("german-lr", "duplicate");
        m
    }

    #[test]
    fn render_is_byte_identical_to_the_golden_exposition() {
        assert_eq!(populated().render(), include_str!("../testdata/metrics.golden.prom"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = Exposition::default();
        out.family("x_total", "counter", "Help.");
        out.sample("x_total", &[("model", &"back\\slash \"quoted\"\nnext"), ("n", &7)], 1);
        out.sample("x_total", &[], 2.5);
        assert_eq!(
            out.finish(),
            "# HELP x_total Help.\n# TYPE x_total counter\n\
             x_total{model=\"back\\\\slash \\\"quoted\\\"\\nnext\",n=\"7\"} 1\n\
             x_total 2.5\n"
        );
    }

    #[test]
    fn counters_and_histograms_render() {
        let m = Metrics::new();
        m.record_request("/v1/predict", 200, 0.003);
        m.record_request("/v1/predict", 200, 0.3);
        m.record_request("/v1/predict", 400, 0.0001);
        m.record_error("bad_request");
        m.record_phase("queue", 0.002);
        m.record_phase("queue", 0.004);
        m.record_phase("predict", 0.05);
        m.record_phase("not-a-phase", 1.0); // ignored, not a panic
        m.record_flush(3);
        m.record_flush(200);
        m.set_models_loaded(2);
        m.record_eviction();
        let text = m.render();
        assert!(text.contains(
            "fairlens_requests_total{route=\"/v1/predict\",status=\"200\"} 2"
        ));
        assert!(text.contains(
            "fairlens_requests_total{route=\"/v1/predict\",status=\"400\"} 1"
        ));
        assert!(text.contains("fairlens_errors_total{kind=\"bad_request\"} 1"));
        assert!(text.contains("fairlens_request_latency_seconds_count 3"));
        // 0.0001 and 0.003 fall below 0.005; 0.3 only in +Inf
        assert!(text.contains("fairlens_request_latency_seconds_bucket{le=\"0.005\"} 2"));
        assert!(text.contains("fairlens_request_latency_seconds_bucket{le=\"+Inf\"} 3"));
        // Labelled phase series share one HELP/TYPE family.
        assert_eq!(text.matches("# TYPE fairlens_phase_seconds histogram").count(), 1);
        assert!(text.contains("fairlens_phase_seconds_bucket{phase=\"queue\",le=\"0.005\"} 2"));
        assert!(text.contains("fairlens_phase_seconds_count{phase=\"queue\"} 2"));
        assert!(text.contains("fairlens_phase_seconds_count{phase=\"predict\"} 1"));
        assert!(text.contains("fairlens_phase_seconds_count{phase=\"parse\"} 0"));
        assert!(!text.contains("not-a-phase"));
        assert!(text.contains("fairlens_batch_rows_bucket{le=\"4\"} 1"));
        assert!(text.contains("fairlens_batch_rows_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fairlens_batch_rows_sum 203"));
        assert!(text.contains("fairlens_predict_rows_total 203"));
        assert!(text.contains("fairlens_models_loaded 2"));
        assert!(text.contains("fairlens_model_evictions_total 1"));
    }

    #[test]
    fn overload_and_breaker_series_render() {
        let m = Metrics::new();
        m.record_shed("queue_full");
        m.record_shed("queue_full");
        m.record_shed("inflight");
        m.set_queue_depth("german-lr", 3);
        m.set_queue_depth("german-lr", 1); // gauge keeps the latest value
        m.set_breaker_state("german-lr", 2);
        m.record_breaker_open("german-lr");
        m.set_inflight(5);
        m.record_load_failure();
        m.record_shadow_compare("german-lr", false);
        m.record_shadow_compare("german-lr", true);
        let text = m.render();
        assert!(text.contains("fairlens_shed_total{reason=\"queue_full\"} 2"), "{text}");
        assert!(text.contains("fairlens_shed_total{reason=\"inflight\"} 1"));
        assert!(text.contains("fairlens_queue_depth{model=\"german-lr\"} 1"));
        assert!(text.contains("fairlens_breaker_state{model=\"german-lr\"} 2"));
        assert!(text.contains("fairlens_breaker_opens_total{model=\"german-lr\"} 1"));
        assert!(text.contains("fairlens_inflight 5"));
        assert!(text.contains("fairlens_model_load_failures_total 1"));
        assert!(text.contains("fairlens_shadow_compared_total{model=\"german-lr\"} 2"));
        assert!(text.contains("fairlens_shadow_divergence_total{model=\"german-lr\"} 1"));
    }

    #[test]
    fn monitor_series_render_and_replace() {
        let m = Metrics::new();
        m.set_live_metrics(
            "german-lr",
            &[
                live("di_star", "all", 0.75),
                live("pos_rate", "0", 0.5),
                live("pos_rate", "1", 0.375),
            ],
        );
        m.set_drift_state("german-lr", 0);
        m.record_feedback("german-lr", "ok");
        m.record_feedback("german-lr", "ok");
        m.record_feedback("german-lr", "duplicate");
        let text = m.render();
        assert!(text.contains(
            "fairlens_live_metric{model=\"german-lr\",metric=\"di_star\",group=\"all\"} 0.75"
        ), "{text}");
        assert!(text.contains(
            "fairlens_live_metric{model=\"german-lr\",metric=\"pos_rate\",group=\"1\"} 0.375"
        ));
        assert!(text.contains("fairlens_drift_state{model=\"german-lr\"} 0"));
        assert!(text.contains("fairlens_feedback_total{model=\"german-lr\",status=\"ok\"} 2"));
        assert!(text.contains(
            "fairlens_feedback_total{model=\"german-lr\",status=\"duplicate\"} 1"
        ));
        // A new snapshot replaces the model's whole live suite.
        m.set_live_metrics("german-lr", &[live("di_star", "all", 0.8)]);
        m.set_drift_state("german-lr", 2);
        let text = m.render();
        assert!(text.contains(
            "fairlens_live_metric{model=\"german-lr\",metric=\"di_star\",group=\"all\"} 0.8"
        ));
        assert!(!text.contains("pos_rate"), "stale series must be dropped");
        assert!(text.contains("fairlens_drift_state{model=\"german-lr\"} 2"));
    }
}
