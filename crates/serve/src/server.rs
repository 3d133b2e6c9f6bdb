//! The prediction server: routing, admission control, drain.
//!
//! Concurrency model: the shared [`http::Server`] accepts and runs a
//! fixed pool of keep-alive connection workers; this module is the route
//! fn it calls, and each worker blocks on the per-model executor for
//! predictions. A total read deadline turns slow-loris requests into
//! 408s (see [`crate::http`]).
//!
//! Overload protection happens in three layers, cheapest first:
//!
//! 1. **Global in-flight budget** (`--max-inflight`): a predict request
//!    that would push concurrent predictions past the budget is shed with
//!    a 429 + `Retry-After` before its body is even parsed.
//! 2. **Per-model breaker admission** (via [`Registry::checkout`]): a
//!    model that keeps failing gets its requests rejected at the door
//!    with a 503 + `Retry-After` until a cooldown probe proves recovery.
//! 3. **Bounded executor queues** (`--max-queue`): a full queue sheds
//!    with a 429 instead of growing without bound.
//!
//! Every shed increments `fairlens_shed_total{reason=...}` and (when
//! tracing) drops a zero-width `shed:<reason>` marker on the request's
//! track. Request outcomes feed back into the model's breaker through
//! [`Registry::report`]; an executor death is never fatal to the server —
//! the handler answers 503, the breaker trips, and the registry respawns
//! the executor from its artifact on the next admitted request.
//!
//! Graceful shutdown (`POST /v1/shutdown` — `std` has no signal API, so
//! the drain trigger is a route): trigger the HTTP server's drain, which
//! stops accepting and joins the connection workers once their
//! connections finish, then unload the registry (joining every model
//! executor) and return `Ok(())`. In-flight requests complete and are
//! answered; idle keep-alive connections close; new predict requests on
//! draining connections get a structured 503.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fairlens_budget::Budget;
use fairlens_frame::Dataset;
use fairlens_json::{object, Value};

use crate::batcher::{BatchConfig, ModelWorker, PredictJob, PredictOutput};
use crate::breaker::BreakerConfig;
use crate::error::{ErrorKind, ServeError};
use crate::faults::ServeFaults;
use crate::http::{self, str_field, Limits, Request, Response, Shutdown};
use crate::metrics::{Metrics, CONTENT_TYPE as PROMETHEUS};
use crate::monitors::MonitorHub;
use crate::recorder::Recorder;
use crate::registry::{ModelInfo, ModelOutcome, Registry, ShadowSummary};
use fairlens_monitor::{DriftConfig, MonitorConfig, MonitorSnapshot, SystemClock};

/// Server configuration (CLI flags map onto this one-to-one).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Directory of `.flm` artifacts.
    pub models_dir: PathBuf,
    /// Connection-worker threads.
    pub workers: usize,
    /// Batcher flush threshold, rows.
    pub max_batch: usize,
    /// Batcher flush window.
    pub batch_wait: Duration,
    /// Per-request prediction deadline.
    pub deadline: Duration,
    /// LRU capacity for resident models.
    pub max_loaded: usize,
    /// Bound on each model's executor queue; overflow sheds with a 429.
    pub max_queue: usize,
    /// Global budget of concurrently processed predict requests; overflow
    /// sheds with a 429 before the body is parsed (0 = unlimited).
    pub max_inflight: usize,
    /// Consecutive model failures that open its circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before allowing a probe.
    pub breaker_cooldown: Duration,
    /// Requests served per connection before the server closes it, so a
    /// single pipelining client cannot monopolize a worker forever
    /// (0 = unlimited).
    pub max_conn_requests: usize,
    /// Fault-injection plan for chaos runs (empty in production).
    pub faults: Arc<ServeFaults>,
    /// HTTP parsing limits (head/body size, read deadline).
    pub limits: Limits,
    /// Write per-request trace tracks (`req/NNNNNN`) here at drain; a
    /// flamegraph-ready `.collapsed` sibling rides along.
    pub trace: Option<PathBuf>,
    /// ULP bound for comparing every shadow attached through
    /// `POST /v1/shadow` (`None` = bit-exact).
    pub shadow_tolerance: Option<u64>,
    /// Append every `/v1/predict` and `/v1/feedback` exchange to this
    /// JSONL log.
    pub record: Option<PathBuf>,
    /// Live-monitoring sliding-window capacity, rows per model.
    pub monitor_window: usize,
    /// Bound on remembered request seqs awaiting `/v1/feedback`.
    pub monitor_pending: usize,
    /// `--drift-threshold METRIC=DELTA` pairs; empty uses the monitor
    /// crate's defaults.
    pub drift_thresholds: Vec<(String, f64)>,
    /// Consecutive breaching window evaluations before `ok → warning`.
    pub drift_warn: u32,
    /// Consecutive breaching window evaluations before `warning → alerting`.
    pub drift_alert: u32,
    /// Consecutive clean evaluations that step the drift state back down.
    pub drift_recover: u32,
    /// Labeled rows required in-window before label-dependent metrics
    /// participate in drift detection.
    pub drift_min_labeled: usize,
    /// Fleet worker index (`--worker-id`). Surfaced in `/healthz` so the
    /// fleet supervisor can confirm it is probing the shard it spawned.
    pub worker_id: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8484".into(),
            models_dir: PathBuf::from("models"),
            workers: 4,
            max_batch: 64,
            batch_wait: Duration::from_millis(2),
            deadline: Duration::from_secs(5),
            max_loaded: 8,
            max_queue: 256,
            max_inflight: 64,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(1),
            max_conn_requests: 1000,
            faults: Arc::new(ServeFaults::none()),
            limits: Limits::default(),
            trace: None,
            shadow_tolerance: None,
            record: None,
            monitor_window: 256,
            monitor_pending: 1024,
            drift_thresholds: Vec::new(),
            drift_warn: 2,
            drift_alert: 4,
            drift_recover: 4,
            drift_min_labeled: 16,
            worker_id: None,
        }
    }
}

/// Shared state for connection workers.
struct Ctx {
    registry: Registry,
    metrics: Arc<Metrics>,
    shutdown: Shutdown,
    deadline: Duration,
    /// Concurrently processed predict requests, against `max_inflight`.
    inflight: AtomicU64,
    max_inflight: u64,
    /// Present when the server was configured with a trace path.
    trace: Option<fairlens_trace::TraceSink>,
    /// Request counter naming the per-request tracks (`req/000042`).
    req_seq: AtomicU64,
    /// Present when the server was configured with `--record`.
    recorder: Option<Recorder>,
    /// Live fairness monitoring: per-model windows, feedback joins,
    /// drift detection.
    monitors: MonitorHub,
    /// Fleet worker index, echoed in `/healthz`.
    worker_id: Option<u64>,
}

/// RAII slot in the global in-flight budget: acquired before a predict
/// request's body is parsed, released when the response is built (drop).
/// The live count is mirrored into the `fairlens_inflight` gauge.
struct InflightSlot<'a> {
    ctx: &'a Ctx,
}

impl<'a> InflightSlot<'a> {
    fn acquire(ctx: &'a Ctx) -> Option<Self> {
        let n = ctx.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        if ctx.max_inflight > 0 && n > ctx.max_inflight {
            ctx.inflight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        ctx.metrics.set_inflight(n);
        Some(Self { ctx })
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let n = self.ctx.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        self.ctx.metrics.set_inflight(n);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    http: http::Server,
    ctx: Arc<Ctx>,
    trace_path: Option<PathBuf>,
}

impl Server {
    /// Bind the listener and scan the models directory.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Self> {
        let metrics = Arc::new(Metrics::new());
        let batch = BatchConfig {
            max_batch: cfg.max_batch.max(1),
            batch_wait: cfg.batch_wait,
            max_queue: cfg.max_queue.max(1),
        };
        let breaker =
            BreakerConfig { threshold: cfg.breaker_threshold, cooldown: cfg.breaker_cooldown };
        let mut registry = Registry::scan(
            &cfg.models_dir,
            batch,
            cfg.max_loaded,
            metrics.clone(),
            breaker,
            cfg.faults.clone(),
        )?;
        registry.set_shadow_tolerance(cfg.shadow_tolerance);
        let recorder = match &cfg.record {
            Some(path) => {
                eprintln!("[serve] recording predict exchanges to {}", path.display());
                Some(Recorder::create(path)?)
            }
            None => None,
        };
        let monitors = MonitorHub::new(
            MonitorConfig {
                window: cfg.monitor_window,
                pending_cap: cfg.monitor_pending,
                drift: DriftConfig {
                    thresholds: cfg.drift_thresholds.clone(),
                    warn_after: cfg.drift_warn,
                    alert_after: cfg.drift_alert,
                    recover_after: cfg.drift_recover,
                    min_labeled: cfg.drift_min_labeled,
                },
            },
            metrics.clone(),
            Arc::new(SystemClock),
        );
        let http =
            http::Server::bind(&cfg.addr, "serve", cfg.workers, cfg.limits, cfg.max_conn_requests)?;
        Ok(Self {
            ctx: Arc::new(Ctx {
                registry,
                metrics,
                shutdown: http.shutdown_handle(),
                deadline: cfg.deadline,
                inflight: AtomicU64::new(0),
                max_inflight: cfg.max_inflight as u64,
                trace: cfg.trace.as_ref().map(|_| fairlens_trace::TraceSink::new()),
                req_seq: AtomicU64::new(0),
                recorder,
                monitors,
                worker_id: cfg.worker_id,
            }),
            http,
            trace_path: cfg.trace,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The metric registry (shared with in-process tests).
    pub fn metrics(&self) -> Arc<Metrics> {
        self.ctx.metrics.clone()
    }

    /// Serve until drained. Returns once a shutdown request has been
    /// honoured: no accepting socket, no worker, no model executor left.
    pub fn run(self) -> std::io::Result<()> {
        eprintln!(
            "[serve] listening on {} ({} model(s), {} quarantined)",
            self.http.local_addr(),
            self.ctx.registry.len(),
            self.ctx.registry.quarantined().len(),
        );
        let ctx = &self.ctx;
        self.http.run(|req| handle(ctx, req))?;
        self.ctx.registry.shutdown(); // joins every model executor
        if let (Some(path), Some(sink)) = (&self.trace_path, &self.ctx.trace) {
            let collapsed = path.with_extension("collapsed");
            sink.write_jsonl(path)?;
            sink.write_collapsed(&collapsed)?;
            eprintln!(
                "[trace] wrote {} (flamegraph stacks: {})",
                path.display(),
                collapsed.display()
            );
        }
        eprintln!("[serve] drained, bye");
        Ok(())
    }
}

/// Answer one request (or framing error) and do the per-response
/// bookkeeping: request and error counters, latency, the recorder.
fn handle(ctx: &Ctx, req: Result<&Request, ServeError>) -> Response {
    let req = match req {
        Ok(req) => req,
        Err(e) => {
            ctx.metrics.record_error(e.kind.name());
            ctx.metrics.record_request("parse-error", e.kind.status(), 0.0);
            return Response::error(&e);
        }
    };
    let t0 = Instant::now();
    let response = route(ctx, req).unwrap_or_else(|e| {
        ctx.metrics.record_error(e.kind.name());
        Response::error(&e)
    });
    ctx.metrics.record_request(route_label(&req.path), response.status, t0.elapsed().as_secs_f64());
    if let Some(rec) = &ctx.recorder {
        // Feedback exchanges are part of the recorded truth: replaying
        // them is what reproduces window state.
        if req.path == "/v1/predict" || req.path == "/v1/feedback" {
            rec.record(
                &req.method,
                &req.path,
                &req.body,
                response.status,
                &response.text(),
                t0.elapsed().as_micros() as u64,
            );
        }
    }
    response
}

/// Known paths keep their own metric label; the rest share one so a
/// path-scanning client cannot explode series cardinality.
fn route_label(path: &str) -> &str {
    match path {
        "/healthz" | "/metrics" | "/v1/models" | "/v1/predict" | "/v1/feedback"
        | "/v1/promote" | "/v1/shadow" | "/v1/refresh" | "/v1/shutdown" => path,
        _ => "other",
    }
}

fn route(ctx: &Ctx, req: &Request) -> Result<Response, ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // Detail beyond "ok" is for the fleet supervisor: the pid
            // confirms the probe reached the process it spawned, and
            // draining tells the router to stop placing new traffic here.
            let draining = ctx.shutdown.is_triggered();
            let mut fields = vec![
                (
                    "status",
                    Value::String(if draining { "draining" } else { "ok" }.into()),
                ),
                ("pid", Value::Integer(std::process::id() as u64)),
                ("inflight", Value::Integer(ctx.inflight.load(Ordering::SeqCst))),
                ("models_loaded", Value::Integer(ctx.registry.loaded_count() as u64)),
            ];
            if let Some(w) = ctx.worker_id {
                fields.push(("worker", Value::Integer(w)));
            }
            Ok(Response::ok(object(fields)))
        }
        ("GET", "/metrics") => Ok(Response::new(200, PROMETHEUS, ctx.metrics.render())),
        ("GET", "/v1/models") => Ok(Response::ok(models_body(ctx))),
        ("POST", "/v1/predict") => {
            if ctx.shutdown.is_triggered() {
                // Retry-After 1: the client should land on a healthy
                // replica (or the restarted server) almost immediately.
                return Err(ServeError::new(
                    ErrorKind::ShuttingDown,
                    "server is draining; no new predictions",
                )
                .with_retry_after(1));
            }
            predict(ctx, req)
        }
        ("POST", "/v1/feedback") => feedback(ctx, req),
        ("POST", "/v1/promote") => promote(ctx, req),
        ("POST", "/v1/shadow") => shadow_ctl(ctx, req),
        ("POST", "/v1/refresh") => refresh(ctx, req),
        ("POST", "/v1/shutdown") => {
            ctx.shutdown.trigger();
            Ok(Response::ok(object([("status", Value::String("shutting down".into()))])))
        }
        _ => Err(req.unrouted(route_label(&req.path) != "other")),
    }
}

fn shadow_value(s: &ShadowSummary) -> Value {
    let mut fields = vec![
        ("candidate", Value::String(s.candidate.display().to_string())),
        ("compared", Value::Integer(s.compared)),
        ("divergence", Value::Integer(s.diverged)),
    ];
    if let Some(d) = &s.first {
        fields.push((
            "first_divergence",
            object([
                ("request", Value::Integer(d.request)),
                ("row", Value::Integer(d.row as u64)),
                ("incumbent", Value::from_f64(d.incumbent)),
                ("candidate", Value::from_f64(d.candidate)),
                ("incumbent_bits", Value::String(format!("{:#018x}", d.incumbent.to_bits()))),
                ("candidate_bits", Value::String(format!("{:#018x}", d.candidate.to_bits()))),
            ]),
        ));
    }
    object(fields)
}

/// The live-monitoring block of one `/v1/models` entry: window
/// occupancy, the live metric suite (nested per group, floats rendered
/// bit-exactly by `fairlens-json`), the training-time baseline subset
/// drift is judged against, and the drift status with any breaching
/// metrics named.
fn monitor_value(info: &ModelInfo, snap: &MonitorSnapshot) -> Value {
    let mut groups: Vec<(String, Vec<(String, Value)>)> = Vec::new();
    for m in &snap.live {
        match groups.iter_mut().find(|(g, _)| g == m.group) {
            Some((_, fields)) => fields.push((m.metric.to_string(), Value::from_f64(m.value))),
            None => groups.push((
                m.group.to_string(),
                vec![(m.metric.to_string(), Value::from_f64(m.value))],
            )),
        }
    }
    let live = Value::Object(
        groups.into_iter().map(|(g, fields)| (g, Value::Object(fields))).collect(),
    );
    let baseline = Value::Object(
        snap.thresholds
            .iter()
            .filter_map(|(metric, _)| {
                info.train_metrics
                    .iter()
                    .find(|(k, _)| k == metric)
                    .map(|(k, v)| (k.clone(), Value::from_f64(*v)))
            })
            .collect(),
    );
    let breaching = Value::Array(
        snap.breaching
            .iter()
            .map(|b| {
                object([
                    ("metric", Value::String(b.metric.clone())),
                    ("live", Value::from_f64(b.live)),
                    ("baseline", Value::from_f64(b.baseline)),
                    ("delta", Value::from_f64(b.delta)),
                    ("threshold", Value::from_f64(b.threshold)),
                ])
            })
            .collect(),
    );
    let mut drift = vec![
        ("state", Value::String(snap.drift_state.name().into())),
        ("breaching", breaching),
        ("evaluations", Value::Integer(snap.evaluations)),
    ];
    if let Some(secs) = snap.in_state_secs {
        drift.push(("in_state_secs", Value::from_f64(secs)));
    }
    object([
        ("window_len", Value::Integer(snap.window_len as u64)),
        ("window_capacity", Value::Integer(snap.window_capacity as u64)),
        ("labeled", Value::Integer(snap.labeled as u64)),
        ("observed", Value::Integer(snap.pushed)),
        ("pending", Value::Integer(snap.pending as u64)),
        ("live", live),
        ("baseline", baseline),
        ("drift", object(drift)),
    ])
}

fn model_value(
    info: &ModelInfo,
    breaker: &'static str,
    shadow: Option<ShadowSummary>,
    monitor: Option<MonitorSnapshot>,
) -> Value {
    let mut fields = vec![
        ("id", Value::String(info.id.clone())),
        ("status", Value::String("ready".into())),
        ("breaker", Value::String(breaker.into())),
        ("approach", Value::String(info.approach.clone())),
        ("stage", Value::String(info.stage.clone())),
        ("dataset", Value::String(info.dataset.clone())),
        ("seed", Value::Integer(info.seed)),
        ("train_rows", Value::Integer(info.train_rows)),
        ("stochastic", Value::Bool(info.stochastic)),
        (
            "train_metrics",
            Value::Object(
                info.train_metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from_f64(*v)))
                    .collect(),
            ),
        ),
    ];
    if let Some(s) = shadow {
        fields.push(("shadow", shadow_value(&s)));
    }
    if let Some(snap) = monitor {
        fields.push(("monitor", monitor_value(info, &snap)));
    }
    object(fields)
}

fn unloadable_value(id: String, reason: String) -> Value {
    object([
        ("id", Value::String(id)),
        ("status", Value::String("unloadable".into())),
        ("error", Value::String(reason)),
    ])
}

fn models_body(ctx: &Ctx) -> Value {
    let quarantined: std::collections::BTreeMap<String, String> =
        ctx.registry.quarantined().into_iter().collect();
    let mut models: Vec<Value> = ctx
        .registry
        .list()
        .into_iter()
        .map(|info| match quarantined.get(&info.id) {
            // Quarantined after the scan (the artifact rotted on disk):
            // listed, but marked unloadable instead of ready.
            Some(reason) => unloadable_value(info.id.clone(), reason.clone()),
            None => model_value(
                &info,
                ctx.registry.breaker_state(&info.id).name(),
                ctx.registry.shadow_summary(&info.id),
                ctx.monitors.snapshot(&info.id),
            ),
        })
        .collect();
    // Artifacts that never made it past the scan.
    for (id, reason) in quarantined {
        if ctx.registry.info(&id).is_none() {
            models.push(unloadable_value(id, reason));
        }
    }
    object([("count", Value::Integer(models.len() as u64)), ("models", Value::Array(models))])
}

/// `POST /v1/predict`: `{"model": id, "rows": [...]}` (batch) or
/// `{"model": id, "row": {...}}` (single).
fn predict(ctx: &Ctx, req: &Request) -> Result<Response, ServeError> {
    // One trace track per predict request; the guard flushes at return
    // (error paths included), so failed requests still leave their
    // `parse` span behind.
    let _collect = ctx.trace.as_ref().map(|sink| {
        sink.collect(format!("req/{:06}", ctx.req_seq.fetch_add(1, Ordering::Relaxed)))
    });
    // Layer 1: the global in-flight budget, checked before the body is
    // even parsed — shedding must stay cheap when the server is drowning.
    let Some(_slot) = InflightSlot::acquire(ctx) else {
        ctx.metrics.record_shed("inflight");
        fairlens_trace::complete("shed:inflight", Duration::ZERO);
        return Err(ServeError::new(
            ErrorKind::Overloaded,
            "server is at its in-flight request budget; retry shortly",
        )
        .with_retry_after(1));
    };
    let parse_t0 = Instant::now();
    let parse_span = fairlens_trace::span("parse");
    let v = req.json()?;
    let model_id = str_field(&v, "model")?;
    let (rows, singular) = match (v.get("row"), v.get("rows")) {
        (Some(row), None) => (std::slice::from_ref(row).to_vec(), true),
        (None, Some(Value::Array(rows))) => (rows.clone(), false),
        (None, Some(other)) => {
            return Err(ServeError::bad_request(format!(
                "\"rows\" must be an array, got {}",
                other.kind_name()
            )))
        }
        (Some(_), Some(_)) => {
            return Err(ServeError::bad_request("give either \"row\" or \"rows\", not both"))
        }
        (None, None) => Err(ServeError::bad_request("missing \"row\" or \"rows\""))?,
    };
    if rows.is_empty() {
        return Err(ServeError::bad_request("\"rows\" is empty"));
    }
    // Validate rows before admission layers 2 and 3: a 400 must never
    // consume a breaker probe or trip failure accounting, and the schema
    // is resident from the scan, so this costs no artifact load.
    let info = ctx.registry.model(model_id)?;
    let data = info.schema.dataset_from_rows(&rows).map_err(ServeError::bad_request)?;
    // The monitor needs the sensitive column after `data` is consumed by
    // the executor; one small copy per request.
    let groups: Vec<u8> = data.sensitive().to_vec();
    drop(parse_span); // parse = decode + validation + model lookup
    ctx.metrics.record_phase("parse", parse_t0.elapsed().as_secs_f64());

    // A shadow deployment needs the validated rows a second time; clone
    // only when one is attached so the common path stays allocation-free.
    let shadow_worker = ctx.registry.shadow_worker(model_id);
    let shadow_data = shadow_worker.as_ref().map(|_| data.clone());

    // Layer 2: breaker admission (an open breaker rejects here with a
    // 503 + Retry-After), plus the artifact load / executor respawn.
    let worker = ctx.registry.checkout(model_id)?;
    // Layer 3 (queue bound) is inside submit; every post-checkout path
    // reports exactly one outcome so breaker bookkeeping stays balanced.
    let result = drive(ctx, &worker, data);
    let outcome = match &result {
        Ok(_) => ModelOutcome::Success,
        Err(e) => match e.kind {
            // Shed at the queue: says nothing about the model's health.
            ErrorKind::Overloaded => ModelOutcome::Shed,
            // The executor thread is gone: unload + respawn next time.
            ErrorKind::Unavailable => ModelOutcome::Dead,
            // Timeouts and panics are model failures: breaker fodder.
            _ => ModelOutcome::Failure,
        },
    };
    if matches!(&result, Err(e) if e.kind == ErrorKind::Overloaded) {
        ctx.metrics.record_shed("queue_full");
        fairlens_trace::complete("shed:queue_full", Duration::ZERO);
    }
    ctx.registry.report(model_id, &worker, outcome);
    let out = result?;
    // The executor measured these on its own thread; replay them here as
    // completed spans so the request track tells the whole story, and
    // mirror them into the Prometheus phase histograms.
    for (phase, us) in
        [("queue", out.queue_us), ("batch", out.batch_us), ("predict", out.predict_us)]
    {
        fairlens_trace::complete(phase, Duration::from_micros(us));
        ctx.metrics.record_phase(phase, us as f64 / 1e6);
    }
    // Shadow scoring is synchronous, after the incumbent's answer is in
    // hand: the request pays for both predictions, but the divergence
    // counters are exact at every instant — a promote can never race a
    // still-pending comparison. The candidate never shapes the response.
    if let (Some(worker), Some(data)) = (shadow_worker, shadow_data) {
        let span = fairlens_trace::span("shadow");
        shadow_compare(ctx, model_id, &out.scores, &worker, data);
        drop(span);
    }

    // Feed the live fairness monitor: group ids from the request rows,
    // predicted labels and scores from the answer. The returned seq is
    // the handle `POST /v1/feedback` quotes to report true outcomes.
    let monitor_span = fairlens_trace::span("monitor");
    let seq =
        ctx.monitors.observe(model_id, &info.train_metrics, &groups, &out.labels, &out.scores);
    drop(monitor_span);

    let body = if singular {
        object([
            ("model", Value::String(model_id.into())),
            ("seq", Value::Integer(seq)),
            ("prediction", Value::Integer(u64::from(out.labels[0]))),
            ("score", Value::from_f64(out.scores[0])),
        ])
    } else {
        object([
            ("model", Value::String(model_id.into())),
            ("seq", Value::Integer(seq)),
            ("count", Value::Integer(out.labels.len() as u64)),
            (
                "predictions",
                Value::Array(out.labels.iter().map(|&l| Value::Integer(u64::from(l))).collect()),
            ),
            ("scores", Value::from_f64s(out.scores.iter().copied())),
        ])
    };
    Ok(Response::ok(body))
}

/// Score the request on the shadow candidate and record the comparison
/// against the incumbent's scores. A queue-full shed on the shadow skips
/// the comparison (it says nothing about agreement); any other candidate
/// failure is recorded as a divergence — a candidate that cannot answer
/// must not be promotable.
fn shadow_compare(
    ctx: &Ctx,
    model_id: &str,
    incumbent: &[f64],
    worker: &ModelWorker,
    data: Dataset,
) {
    let candidate = match drive(ctx, worker, data) {
        Ok(out) => out.scores,
        Err(e) if e.kind == ErrorKind::Overloaded => return,
        Err(e) => {
            eprintln!("[serve] shadow for model {model_id:?} failed: {e}");
            vec![f64::NAN; incumbent.len()]
        }
    };
    ctx.registry.record_shadow(model_id, incumbent, &candidate);
}

/// `POST /v1/feedback`: `{"model": id, "seq": n, "label": 0|1}` or
/// `{"model": id, "seq": n, "labels": [...]}` — report the true outcomes
/// for a previously answered predict call so the live monitor can join
/// them onto its window. Unknown models and unknown/expired seqs are
/// 404s, a second report for the same seq is a 409, and a label count
/// that disagrees with the original request's row count is a 400.
fn feedback(ctx: &Ctx, req: &Request) -> Result<Response, ServeError> {
    // Feedback gets its own request track: a drift transition this
    // report triggers emits its trace event from this thread, and
    // without a collector the event would be dropped on the floor.
    let _collect = ctx.trace.as_ref().map(|sink| {
        sink.collect(format!("req/{:06}", ctx.req_seq.fetch_add(1, Ordering::Relaxed)))
    });
    let v = req.json()?;
    let model_id = str_field(&v, "model")?;
    // Resolve the model first: an unknown model is its own 404 and never
    // reaches the per-model feedback counters.
    ctx.registry.model(model_id)?;
    let seq = v
        .get("seq")
        .cloned()
        .ok_or_else(|| ServeError::bad_request("missing integer field \"seq\""))?
        .into_u64()
        .map_err(|e| ServeError::bad_request(format!("\"seq\": {e}")))?;
    let label_value = |x: Value| -> Result<u8, ServeError> {
        match x.into_u64() {
            Ok(l @ (0 | 1)) => Ok(l as u8),
            _ => Err(ServeError::bad_request("labels must be 0 or 1")),
        }
    };
    let labels: Vec<u8> = match (v.get("label"), v.get("labels")) {
        (Some(l), None) => vec![label_value(l.clone())?],
        (None, Some(Value::Array(ls))) => {
            ls.iter().cloned().map(label_value).collect::<Result<_, _>>()?
        }
        (None, Some(other)) => {
            return Err(ServeError::bad_request(format!(
                "\"labels\" must be an array, got {}",
                other.kind_name()
            )))
        }
        (Some(_), Some(_)) => {
            return Err(ServeError::bad_request("give either \"label\" or \"labels\", not both"))
        }
        (None, None) => return Err(ServeError::bad_request("missing \"label\" or \"labels\"")),
    };
    if labels.is_empty() {
        return Err(ServeError::bad_request("\"labels\" is empty"));
    }
    let receipt = ctx.monitors.feedback(model_id, seq, &labels)?;
    Ok(Response::ok(object([
        ("status", Value::String("ok".into())),
        ("model", Value::String(model_id.into())),
        ("seq", Value::Integer(receipt.seq)),
        ("matched", Value::Integer(receipt.matched as u64)),
        ("expected", Value::Integer(receipt.expected as u64)),
    ])))
}

/// `POST /v1/promote`: `{"model": id}` — install the model's shadow
/// candidate over the incumbent artifact, provided the comparison window
/// is non-empty and divergence-free (else a structured 409 naming the
/// first differing request and score bits). The only cutover: the
/// fleet's blue/green reload ends here too.
fn promote(ctx: &Ctx, req: &Request) -> Result<Response, ServeError> {
    let v = req.json()?;
    let model_id = str_field(&v, "model")?;
    let compared = ctx.registry.promote(model_id)?;
    Ok(Response::ok(object([
        ("status", Value::String("promoted".into())),
        ("model", Value::String(model_id.into())),
        ("compared", Value::Integer(compared)),
    ])))
}

/// `POST /v1/shadow`: the one way to stage a candidate, for operators
/// and the fleet's blue/green reload alike. `{"model": id, "artifact":
/// path}` attaches the artifact at `path` as the model's shadow
/// candidate (replacing any existing one); `{"model": id}` detaches
/// whatever is attached without promoting — the reload abort path.
/// Detaching with nothing attached is an idempotent no-op so an abort
/// can always run it.
fn shadow_ctl(ctx: &Ctx, req: &Request) -> Result<Response, ServeError> {
    let v = req.json()?;
    let model_id = str_field(&v, "model")?;
    match v.get("artifact").map(|a| a.as_str()) {
        Some(Some(artifact)) => {
            let path = PathBuf::from(artifact);
            ctx.registry.attach_shadow(model_id, &path).map_err(|e| {
                if e.contains("no incumbent") {
                    ServeError::new(ErrorKind::UnknownModel, e)
                } else {
                    ServeError::bad_request(e)
                }
            })?;
            eprintln!("[serve] shadowing model {model_id:?} with candidate {}", path.display());
            Ok(Response::ok(object([
                ("status", Value::String("shadowing".into())),
                ("model", Value::String(model_id.into())),
                ("candidate", Value::String(artifact.into())),
            ])))
        }
        Some(None) => Err(ServeError::bad_request("\"artifact\" must be a string path")),
        None => {
            let detached = ctx.registry.detach_shadow(model_id);
            if detached {
                eprintln!("[serve] detached shadow candidate from model {model_id:?}");
            }
            Ok(Response::ok(object([
                ("status", Value::String("detached".into())),
                ("model", Value::String(model_id.into())),
                ("was_attached", Value::Bool(detached)),
            ])))
        }
    }
}

/// `POST /v1/refresh`: `{"model": id}` — re-read the model's artifact
/// from disk, evict any resident executor (the next admitted request
/// restores the new pipeline), drop any attached shadow, and clear the
/// id's quarantine entry. After the fleet's primary promotes a candidate
/// into the shared models directory, the fleet refreshes every worker
/// so none keeps answering from the old version.
fn refresh(ctx: &Ctx, req: &Request) -> Result<Response, ServeError> {
    let v = req.json()?;
    let model_id = str_field(&v, "model")?;
    ctx.registry.refresh(model_id)?;
    Ok(Response::ok(object([
        ("status", Value::String("refreshed".into())),
        ("model", Value::String(model_id.into())),
    ])))
}

/// Submit one validated job and wait for its reply within the deadline.
fn drive(
    ctx: &Ctx,
    worker: &ModelWorker,
    data: Dataset,
) -> Result<PredictOutput, ServeError> {
    let budget = Budget::new();
    let (reply, rx) = mpsc::sync_channel(1);
    worker.submit(PredictJob {
        data,
        reply,
        budget: budget.clone(),
        submitted: Instant::now(),
    })?;
    match rx.recv_timeout(ctx.deadline) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // The executor skips the job at dequeue (or unwinds at the
            // next checkpoint if it is mid-flush on this lone job).
            budget.cancel();
            Err(ServeError::new(
                ErrorKind::TimedOut,
                format!("no prediction within {:.1}s", ctx.deadline.as_secs_f64()),
            ))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The executor died (panic) while holding our job: a
            // structured 503 — never a worker panic — and the caller
            // reports `Dead` so the registry respawns it.
            Err(ServeError::new(
                ErrorKind::Unavailable,
                "model executor died mid-request; it will be restarted",
            )
            .with_retry_after(1))
        }
    }
}
