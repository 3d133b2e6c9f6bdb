//! The fleet front door: router, supervisor loop, reload.
//!
//! One [`Fleet`] owns N [`WorkerProc`]s (each a `fairlens-serve` process
//! on an ephemeral loopback port), a probe loop driving one
//! [`WorkerSupervisor`] per slot, and an HTTP front door — a route fn on
//! the serve crate's [`http::Server`], forwarding through one pooled
//! [`Backend`] client per worker — that routes model traffic by
//! rendezvous placement with failover:
//!
//! * **Placement** — a model's replica set is the top `--replicas R`
//!   non-dead workers by rendezvous weight. Routing is primary-first:
//!   all of a model's traffic goes to the first *routable* replica, the
//!   rest are hot standbys. Predict responses carry a worker-local `seq`
//!   that `/v1/feedback` joins on, so stickiness is correctness, not an
//!   optimization; and because scoring is deterministic and every
//!   replica loads the same artifact, a standby answers bit-exactly when
//!   the primary dies.
//! * **Failover** — a transport failure on one replica retries the
//!   request on the next, within a bounded window; the requests in
//!   flight on a killed worker's sockets are re-sent transparently and
//!   the client only ever sees a complete response. Requests are safe to
//!   re-send: predictions are deterministic reads, and a re-sent
//!   feedback at worst answers 409 (already reported).
//! * **Reload** — `POST /v1/reload {"model","artifact"}` stages the
//!   candidate as a shadow on the model's primary (`POST /v1/shadow`),
//!   watches the serve crate's divergence window fill against live
//!   traffic, then pauses the model (holding new predicts, never failing
//!   them), drains the in-flight forwards, and delegates the cutover to
//!   the primary's `POST /v1/promote`: its registry judges the window
//!   and installs the artifact it verified into the shared models
//!   directory. The fleet then refreshes every worker before unpausing —
//!   no request is ever answered by a mix of versions, and the fleet
//!   never reads or writes a `.flm` itself.
//!
//! Connections: the front door and every worker give each connection its
//! own thread, so pooled backend connections cannot crowd out the
//! supervisor's `/healthz` probes. One limit remains: a worker already
//! holding 256 connections answers even a probe 503, a failed probe.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fairlens_json::{object, parse, Value};
use fairlens_serve::error::{ErrorKind, ServeError};
use fairlens_serve::http::{self, probe_healthz, str_field, Limits, Request, Response, Shutdown};
use fairlens_serve::metrics::CONTENT_TYPE as PROMETHEUS;

use crate::metrics::FleetMetrics;
use crate::placement;
use crate::supervise::{Decision, Phase, SupervisorConfig, WorkerSupervisor};
use crate::worker::WorkerProc;
use crate::Backend;

/// Fleet configuration (CLI flags map onto this one-to-one).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Front-door bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker shard count.
    pub workers: usize,
    /// Replicas per model (distinct workers holding its shard).
    pub replicas: usize,
    /// Shared `.flm` models directory, passed to every worker.
    pub models_dir: PathBuf,
    /// The `fairlens-serve` binary to spawn.
    pub serve_bin: PathBuf,
    /// Supervisor probe cadence.
    pub probe_interval: Duration,
    /// Per-probe connect/read timeout.
    pub probe_timeout: Duration,
    /// Grace between spawn and the listening announce before a worker
    /// counts as wedged at boot.
    pub boot_timeout: Duration,
    /// Per-forward-attempt timeout to one worker.
    pub forward_timeout: Duration,
    /// Total time to find *some* replica for a request before a 503 —
    /// covers the window where every replica is mid-restart.
    pub forward_deadline: Duration,
    /// Backoff / hysteresis / restart-budget tuning.
    pub supervisor: SupervisorConfig,
    /// Extra CLI args appended to every worker spawn.
    pub worker_args: Vec<String>,
    /// `(worker index, FAIRLENS_FAULT spec)` applied to that worker's
    /// *first* incarnation only — respawns come back clean, which is
    /// what lets an `abort:` spec prove recovery instead of crash-looping.
    pub worker_faults: Vec<(usize, String)>,
    /// Shadow comparisons required before a reload may cut over.
    pub reload_window: u64,
    /// How long a reload waits for the shadow window to fill.
    pub reload_timeout: Duration,
    /// How long a reload waits for in-flight drain, and how long paused
    /// predicts wait for the cutover, before giving up.
    pub drain_timeout: Duration,
    /// Front-door HTTP parsing limits.
    pub limits: Limits,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8400".into(),
            workers: 3,
            replicas: 2,
            models_dir: PathBuf::from("models"),
            serve_bin: PathBuf::from("fairlens-serve"),
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(500),
            boot_timeout: Duration::from_secs(30),
            forward_timeout: Duration::from_secs(10),
            forward_deadline: Duration::from_secs(5),
            supervisor: SupervisorConfig::default(),
            worker_args: Vec::new(),
            worker_faults: Vec::new(),
            reload_window: 32,
            reload_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
            limits: Limits::default(),
        }
    }
}

/// One worker slot: supervision state plus the live process/backend.
struct Slot {
    sup: WorkerSupervisor,
    proc: Option<WorkerProc>,
    backend: Option<Arc<Backend>>,
    spawned_at: Option<Instant>,
}

/// Shared state for the front door's connection threads.
struct FleetCtx {
    cfg: FleetConfig,
    metrics: Arc<FleetMetrics>,
    slots: Mutex<Vec<Slot>>,
    shutdown: Shutdown,
    /// Models paused for a blue/green cutover; predicts for them block
    /// on `pause_cv` instead of failing.
    paused: Mutex<BTreeSet<String>>,
    pause_cv: Condvar,
    /// `(worker, model)` → forwards in flight, for the cutover drain.
    inflight: Mutex<HashMap<(usize, String), u64>>,
    /// One reload at a time; a second request gets a structured 409.
    reload_busy: AtomicBool,
}

/// RAII count of one forward in flight against `(worker, model)`.
struct InflightGuard<'a> {
    ctx: &'a FleetCtx,
    key: (usize, String),
}

impl<'a> InflightGuard<'a> {
    fn acquire(ctx: &'a FleetCtx, worker: usize, model: &str) -> Self {
        let key = (worker, model.to_string());
        *ctx.inflight.lock().unwrap().entry(key.clone()).or_insert(0) += 1;
        Self { ctx, key }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut inflight = self.ctx.inflight.lock().unwrap();
        if let Some(n) = inflight.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                inflight.remove(&self.key);
            }
        }
    }
}

/// RAII pause of one model's predict routing; unpauses (and wakes every
/// held request) on drop, so no error path can leave a model stuck.
struct PauseGuard<'a> {
    ctx: &'a FleetCtx,
    model: String,
}

impl<'a> PauseGuard<'a> {
    fn pause(ctx: &'a FleetCtx, model: &str) -> Self {
        let mut paused = ctx.paused.lock().unwrap();
        paused.insert(model.to_string());
        ctx.metrics.set_paused(paused.len() as u64);
        Self { ctx, model: model.to_string() }
    }
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        let mut paused = self.ctx.paused.lock().unwrap();
        paused.remove(&self.model);
        self.ctx.metrics.set_paused(paused.len() as u64);
        self.ctx.pause_cv.notify_all();
    }
}

/// A bound, not-yet-running fleet.
pub struct Fleet {
    http: http::Server,
    ctx: Arc<FleetCtx>,
}

impl Fleet {
    /// Spawn the initial worker set and bind the front-door listener.
    pub fn bind(cfg: FleetConfig) -> std::io::Result<Self> {
        let workers = cfg.workers.max(1);
        let mut slots = Vec::with_capacity(workers);
        for i in 0..workers {
            let fault = cfg
                .worker_faults
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, spec)| spec.as_str());
            let proc = WorkerProc::spawn(i, &cfg.serve_bin, &cfg.models_dir, &cfg.worker_args, fault)?;
            eprintln!(
                "[fleet] worker {i} spawned: pid {}{}",
                proc.pid,
                fault.map(|f| format!(" (fault {f:?})")).unwrap_or_default(),
            );
            slots.push(Slot {
                sup: WorkerSupervisor::new(cfg.supervisor),
                proc: Some(proc),
                backend: None,
                spawned_at: Some(Instant::now()),
            });
        }
        let http = http::Server::bind(&cfg.addr, "fleet", cfg.limits)?;
        let metrics = Arc::new(FleetMetrics::new());
        Ok(Self {
            ctx: Arc::new(FleetCtx {
                cfg,
                metrics,
                slots: Mutex::new(slots),
                shutdown: http.shutdown_handle(),
                paused: Mutex::new(BTreeSet::new()),
                pause_cv: Condvar::new(),
                inflight: Mutex::new(HashMap::new()),
                reload_busy: AtomicBool::new(false),
            }),
            http,
        })
    }

    /// The bound front-door address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The fleet metric registry (shared with in-process tests).
    pub fn metrics(&self) -> Arc<FleetMetrics> {
        self.ctx.metrics.clone()
    }

    /// Serve until a shutdown request has been honoured: front door
    /// drained, every worker asked to drain and reaped.
    pub fn run(self) -> std::io::Result<()> {
        let ctx = self.ctx;
        eprintln!(
            "[fleet] listening on {} ({} worker(s), {} replica(s) per model)",
            self.http.local_addr(),
            ctx.cfg.workers.max(1),
            ctx.cfg.replicas.max(1),
        );
        let supervisor = {
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name("fleet-supervisor".into())
                .spawn(move || supervisor_loop(&ctx))?
        };
        let served = self.http.run(|req| handle(&ctx, req));
        // The supervisor stops on the same flag, including when the
        // server failed to start its workers.
        ctx.shutdown.trigger();
        let _ = supervisor.join();
        drain_workers(&ctx);
        eprintln!("[fleet] drained, bye");
        served
    }
}

/// Ask every live worker to drain, then reap (kill past the timeout).
fn drain_workers(ctx: &FleetCtx) {
    let mut slots = ctx.slots.lock().unwrap();
    for slot in slots.iter() {
        if let Some(be) = &slot.backend {
            let _ = be.roundtrip("POST", "/v1/shutdown", b"", Duration::from_secs(2));
        }
    }
    for (i, slot) in slots.iter_mut().enumerate() {
        if let Some(proc) = &mut slot.proc {
            let voluntary = proc.wait_or_kill(ctx.cfg.drain_timeout);
            eprintln!(
                "[fleet] worker {i} (pid {}) {}",
                proc.pid,
                if voluntary { "drained" } else { "killed after drain timeout" },
            );
        }
        slot.proc = None;
        slot.backend = None;
    }
}

/// The probe/respawn loop: one tick per `probe_interval` until shutdown.
fn supervisor_loop(ctx: &FleetCtx) {
    while !ctx.shutdown.is_triggered() {
        tick(ctx);
        std::thread::sleep(ctx.cfg.probe_interval);
    }
}

/// One supervision pass. Lock discipline: the slots lock is held for
/// state transitions but *never* across a probe — probes can take
/// `probe_timeout`, and the router takes this lock on every request.
fn tick(ctx: &FleetCtx) {
    let now = Instant::now();
    // Phase 1 (locked): reap exits, adopt announces, respawn due slots,
    // and collect the probe targets.
    let mut probes: Vec<(usize, SocketAddr)> = Vec::new();
    {
        let mut slots = ctx.slots.lock().unwrap();
        for (i, slot) in slots.iter_mut().enumerate() {
            match slot.sup.phase() {
                Phase::Dead => {}
                Phase::Restarting { .. } => {
                    if slot.sup.restart_due(now) && !ctx.shutdown.is_triggered() {
                        respawn(ctx, i, slot, now);
                    }
                }
                Phase::Starting | Phase::Up => {
                    let exited = slot.proc.as_mut().is_none_or(|p| p.has_exited());
                    if exited {
                        let pid = slot.proc.as_ref().map(|p| p.pid).unwrap_or(0);
                        slot.proc = None;
                        slot.backend = None;
                        announce_decision(i, pid, "exited", slot.sup.on_exit(now));
                        continue;
                    }
                    if slot.backend.is_none() {
                        if let Some(addr) = slot.proc.as_ref().and_then(|p| p.addr()) {
                            match Backend::new(&addr) {
                                Ok(b) => slot.backend = Some(Arc::new(b)),
                                Err(e) => eprintln!("[fleet] worker {i}: {e}"),
                            }
                        } else if slot
                            .spawned_at
                            .is_some_and(|t| now.duration_since(t) > ctx.cfg.boot_timeout)
                        {
                            // Spawned but never announced: wedged at boot.
                            let pid = slot.proc.as_ref().map(|p| p.pid).unwrap_or(0);
                            if let Some(p) = &mut slot.proc {
                                p.kill();
                            }
                            slot.proc = None;
                            announce_decision(i, pid, "never announced", slot.sup.on_exit(now));
                            continue;
                        }
                    }
                    if let Some(be) = &slot.backend {
                        probes.push((i, be.addr()));
                    }
                }
            }
        }
    }
    // Phase 2 (unlocked): probe.
    let results: Vec<(usize, bool)> = probes
        .into_iter()
        .map(|(i, addr)| (i, probe_healthz(addr, ctx.cfg.probe_timeout)))
        .collect();
    // Phase 3 (locked): apply probe results and refresh the gauges.
    let mut slots = ctx.slots.lock().unwrap();
    for (i, healthy) in results {
        let slot = &mut slots[i];
        if healthy {
            let was_routable = slot.sup.routable();
            slot.sup.on_probe_ok();
            if !was_routable && slot.sup.routable() {
                if let (Some(p), Some(b)) = (&slot.proc, &slot.backend) {
                    eprintln!("[fleet] worker {i} up: pid {} addr {}", p.pid, b.addr());
                }
            }
        } else {
            let pid = slot.proc.as_ref().map(|p| p.pid).unwrap_or(0);
            let decision = slot.sup.on_probe_fail(now);
            if !matches!(decision, Decision::None) {
                // Condemned as wedged: kill the stuck process now, the
                // respawn happens when the backoff elapses.
                if let Some(p) = &mut slot.proc {
                    p.kill();
                }
                slot.proc = None;
                slot.backend = None;
                announce_decision(i, pid, "wedged (probes failing)", decision);
            }
        }
    }
    for (i, slot) in slots.iter().enumerate() {
        let pid = slot.proc.as_ref().map(|p| p.pid).unwrap_or(0);
        ctx.metrics.set_worker(i, slot.sup.routable(), pid);
    }
}

fn respawn(ctx: &FleetCtx, i: usize, slot: &mut Slot, now: Instant) {
    match WorkerProc::spawn(i, &ctx.cfg.serve_bin, &ctx.cfg.models_dir, &ctx.cfg.worker_args, None)
    {
        Ok(proc) => {
            eprintln!("[fleet] worker {i} respawned: pid {}", proc.pid);
            slot.proc = Some(proc);
            slot.backend = None;
            slot.spawned_at = Some(now);
            slot.sup.on_spawned();
            ctx.metrics.record_restart(i);
        }
        Err(e) => {
            eprintln!("[fleet] worker {i} respawn failed: {e}");
            announce_decision(i, 0, "respawn failed", slot.sup.on_exit(now));
        }
    }
}

fn announce_decision(i: usize, pid: u32, why: &str, decision: Decision) {
    match decision {
        Decision::Restart { after } => eprintln!(
            "[fleet] worker {i} (pid {pid}) {why}; restart in {:.1}s",
            after.as_secs_f64()
        ),
        Decision::Dead => eprintln!(
            "[fleet] worker {i} (pid {pid}) {why}; restart budget exhausted — \
             marked dead, placement rebalanced"
        ),
        Decision::None => {}
    }
}

/// Answer one front-door request (or framing error) and count it.
fn handle(ctx: &FleetCtx, req: Result<&Request, ServeError>) -> Response {
    match req {
        Ok(req) => {
            let response = route(ctx, req).unwrap_or_else(|e| Response::error(&e));
            ctx.metrics.record_request(route_label(&req.path), response.status);
            response
        }
        Err(e) => {
            ctx.metrics.record_request("parse-error", e.kind.status());
            Response::error(&e)
        }
    }
}

fn route_label(path: &str) -> &str {
    match path {
        "/healthz" | "/metrics" | "/v1/fleet" | "/v1/models" | "/v1/predict"
        | "/v1/feedback" | "/v1/reload" | "/v1/shutdown" => path,
        _ => "other",
    }
}

fn route(ctx: &FleetCtx, req: &Request) -> Result<Response, ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::ok(health_body(ctx))),
        ("GET", "/metrics") => Ok(Response::new(200, PROMETHEUS, ctx.metrics.render())),
        ("GET", "/v1/fleet") => Ok(Response::ok(fleet_body(ctx))),
        ("GET", "/v1/models") => proxy_any(ctx, "GET", "/v1/models"),
        ("POST", "/v1/predict") => {
            if ctx.shutdown.is_triggered() {
                return Err(ServeError::new(
                    ErrorKind::ShuttingDown,
                    "fleet is draining; no new predictions",
                )
                .with_retry_after(1));
            }
            let model = model_of(req)?;
            // A paused model is mid-cutover: hold the request (bounded)
            // rather than erroring — the zero-non-2xx reload guarantee.
            if !wait_unpaused(ctx, &model) {
                return Err(ServeError::new(
                    ErrorKind::Unavailable,
                    format!("model {model:?} cutover is taking too long"),
                )
                .with_retry_after(1));
            }
            forward(ctx, &model, "/v1/predict", &req.body)
        }
        ("POST", "/v1/feedback") => {
            // Feedback joins on worker-local seqs, so it follows the same
            // primary-first routing as the predicts that produced them.
            // It never touches the model executor, so it bypasses the
            // cutover pause.
            let model = model_of(req)?;
            forward(ctx, &model, "/v1/feedback", &req.body)
        }
        ("POST", "/v1/reload") => reload(ctx, req),
        ("POST", "/v1/shutdown") => {
            ctx.shutdown.trigger();
            Ok(Response::ok(object([("status", Value::String("shutting down".into()))])))
        }
        _ => Err(req.unrouted(route_label(&req.path) != "other")),
    }
}

/// The `"model"` field of a request body (routing key).
fn model_of(req: &Request) -> Result<String, ServeError> {
    str_field(&req.json()?, "model").map(str::to_string)
}

/// Block while `model` is paused for cutover; `false` = gave up.
fn wait_unpaused(ctx: &FleetCtx, model: &str) -> bool {
    let deadline = Instant::now() + ctx.cfg.drain_timeout;
    let mut paused = ctx.paused.lock().unwrap();
    while paused.contains(model) {
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let (guard, _) = ctx.pause_cv.wait_timeout(paused, deadline - now).unwrap();
        paused = guard;
    }
    true
}

/// The model's current replica order: routable replicas, primary first.
fn replica_order(ctx: &FleetCtx, model: &str) -> Vec<(usize, Arc<Backend>)> {
    let slots = ctx.slots.lock().unwrap();
    let domain: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.sup.in_placement())
        .map(|(i, _)| i)
        .collect();
    placement::replicas(model, &domain, ctx.cfg.replicas.max(1))
        .into_iter()
        .filter(|&i| slots[i].sup.routable())
        .filter_map(|i| slots[i].backend.clone().map(|b| (i, b)))
        .collect()
}

/// Forward one request to the model's primary, failing over through the
/// replica order on transport errors. Retries the whole order (placement
/// can shift as the supervisor reacts) until `forward_deadline`.
fn forward(ctx: &FleetCtx, model: &str, path: &str, body: &[u8]) -> Result<Response, ServeError> {
    let deadline = Instant::now() + ctx.cfg.forward_deadline;
    let mut failed_attempts = 0u32;
    loop {
        for (idx, be) in replica_order(ctx, model) {
            let _inflight = InflightGuard::acquire(ctx, idx, model);
            match be.roundtrip("POST", path, body, ctx.cfg.forward_timeout) {
                Ok(resp) => {
                    if failed_attempts > 0 {
                        ctx.metrics.record_failover(model);
                        eprintln!(
                            "[fleet] {path} for model {model:?} failed over to worker {idx} \
                             after {failed_attempts} dead attempt(s)"
                        );
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    failed_attempts += 1;
                    ctx.metrics.record_forward_retry();
                    eprintln!("[fleet] worker {idx} failed a {path} forward for {model:?}: {e}");
                    // Parked connections to this worker are suspect too.
                    be.clear_pool();
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(ServeError::new(
                ErrorKind::Unavailable,
                format!("no live replica for model {model:?} (placement settling?)"),
            )
            .with_retry_after(1));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Forward a read to any routable worker (they all serve the same
/// catalogue).
fn proxy_any(ctx: &FleetCtx, method: &str, path: &str) -> Result<Response, ServeError> {
    let first = {
        let slots = ctx.slots.lock().unwrap();
        slots
            .iter()
            .find(|s| s.sup.routable())
            .and_then(|s| s.backend.clone())
    };
    let Some(be) = first else {
        return Err(
            ServeError::new(ErrorKind::Unavailable, "no routable worker").with_retry_after(1)
        );
    };
    be.roundtrip(method, path, b"", ctx.cfg.forward_timeout).map_err(|e| {
        ServeError::new(ErrorKind::Unavailable, format!("worker failed: {e}")).with_retry_after(1)
    })
}

fn worker_values(ctx: &FleetCtx) -> (Vec<Value>, bool) {
    let slots = ctx.slots.lock().unwrap();
    let mut ready = true;
    let mut values = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter().enumerate() {
        if slot.sup.in_placement() && !slot.sup.routable() {
            ready = false;
        }
        let mut fields = vec![
            ("worker", Value::Integer(i as u64)),
            ("phase", Value::String(slot.sup.phase().name().into())),
            ("restarts", Value::Integer(ctx.metrics.restarts(i))),
        ];
        if let Some(p) = &slot.proc {
            fields.push(("pid", Value::Integer(p.pid as u64)));
        }
        if let Some(b) = &slot.backend {
            fields.push(("addr", Value::String(b.addr().to_string())));
        }
        values.push(object(fields));
    }
    let any_routable = slots.iter().any(|s| s.sup.routable());
    (values, ready && any_routable)
}

fn health_body(ctx: &FleetCtx) -> Value {
    let draining = ctx.shutdown.is_triggered();
    let (workers, ready) = worker_values(ctx);
    object([
        (
            "status",
            Value::String(if draining { "draining" } else { "ok" }.into()),
        ),
        ("ready", Value::Bool(ready && !draining)),
        ("replicas", Value::Integer(ctx.cfg.replicas.max(1) as u64)),
        ("workers", Value::Array(workers)),
    ])
}

/// `GET /v1/fleet`: worker states plus the current per-model placement
/// (replica order and the primary's pid — what a chaos harness needs to
/// aim a `kill -9` at the right process).
fn fleet_body(ctx: &FleetCtx) -> Value {
    let (workers, ready) = worker_values(ctx);
    let mut models = Vec::new();
    if let Ok(listing) = proxy_any(ctx, "GET", "/v1/models") {
        if let Ok(v) = parse(&listing.text()) {
            let ids: Vec<String> = v
                .get("models")
                .cloned()
                .and_then(|m| m.into_array().ok())
                .unwrap_or_default()
                .into_iter()
                .filter_map(|m| m.get("id").and_then(Value::as_str).map(str::to_string))
                .collect();
            let slots = ctx.slots.lock().unwrap();
            let domain: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.sup.in_placement())
                .map(|(i, _)| i)
                .collect();
            for id in ids {
                let replicas = placement::replicas(&id, &domain, ctx.cfg.replicas.max(1));
                let primary = replicas.iter().copied().find(|&i| slots[i].sup.routable());
                let mut fields = vec![
                    ("id", Value::String(id.clone())),
                    (
                        "replicas",
                        Value::Array(
                            replicas.iter().map(|&i| Value::Integer(i as u64)).collect(),
                        ),
                    ),
                ];
                if let Some(p) = primary {
                    fields.push(("primary", Value::Integer(p as u64)));
                    if let Some(proc) = &slots[p].proc {
                        fields.push(("primary_pid", Value::Integer(proc.pid as u64)));
                    }
                }
                models.push(object(fields));
            }
        }
    }
    object([
        ("ready", Value::Bool(ready)),
        ("workers", Value::Array(workers)),
        ("models", Value::Array(models)),
    ])
}

/// The model's shadow window `(compared, diverged)` as seen by
/// `worker`'s `/v1/models` listing.
fn shadow_window(be: &Backend, model: &str, timeout: Duration) -> Result<(u64, u64), ServeError> {
    let resp = be.roundtrip("GET", "/v1/models", b"", timeout).map_err(|e| {
        ServeError::new(ErrorKind::Unavailable, format!("primary stopped answering: {e}"))
            .with_retry_after(1)
    })?;
    let v = parse(&resp.text())
        .map_err(|e| ServeError::new(ErrorKind::Internal, format!("bad models listing: {e}")))?;
    let entry = v
        .get("models")
        .cloned()
        .and_then(|m| m.into_array().ok())
        .unwrap_or_default()
        .into_iter()
        .find(|m| m.get("id").and_then(Value::as_str) == Some(model));
    let Some(shadow) = entry.as_ref().and_then(|m| m.get("shadow")) else {
        return Err(ServeError::new(
            ErrorKind::Internal,
            format!("model {model:?} lost its shadow mid-reload"),
        ));
    };
    let int = |k: &str| shadow.get(k).cloned().and_then(|x| x.into_u64().ok()).unwrap_or(0);
    Ok((int("compared"), int("divergence")))
}

/// `POST /v1/reload {"model", "artifact", "window"?}`: blue/green
/// artifact hot-reload. Stages the candidate as a shadow on the model's
/// primary (`POST /v1/shadow`), lets the divergence window fill against
/// live traffic, pauses the model, drains in-flight forwards, and asks
/// the primary's registry to judge and install the candidate
/// (`POST /v1/promote`) before refreshing every worker and unpausing.
/// A divergence is the registry's structured 409 naming the first
/// differing scores; every abort path detaches the shadow and unpauses.
/// Outcomes count by final status: 200 `ok`, 409 `rejected`, anything
/// else `failed`.
fn reload(ctx: &FleetCtx, req: &Request) -> Result<Response, ServeError> {
    let v = req.json()?;
    let model = str_field(&v, "model")?.to_string();
    let artifact = str_field(&v, "artifact")?.to_string();
    let window = v
        .get("window")
        .cloned()
        .and_then(|w| w.into_u64().ok())
        .unwrap_or(ctx.cfg.reload_window)
        .max(1);
    if ctx.reload_busy.swap(true, Ordering::SeqCst) {
        return Err(ServeError::new(ErrorKind::Conflict, "another reload is in progress"));
    }
    let result = reload_inner(ctx, &model, &artifact, window);
    ctx.reload_busy.store(false, Ordering::SeqCst);
    let status = match &result {
        Ok(resp) => resp.status,
        Err(e) => e.kind.status(),
    };
    ctx.metrics.record_reload(match status {
        200 => "ok",
        409 => "rejected",
        _ => "failed",
    });
    result
}

fn reload_inner(
    ctx: &FleetCtx,
    model: &str,
    artifact: &str,
    window: u64,
) -> Result<Response, ServeError> {
    let order = replica_order(ctx, model);
    let Some((primary_idx, primary)) = order.first().cloned() else {
        return Err(ServeError::new(
            ErrorKind::Unavailable,
            format!("no routable replica for model {model:?}"),
        )
        .with_retry_after(1));
    };
    eprintln!(
        "[fleet] reload of model {model:?}: staging {artifact:?} as shadow on worker {primary_idx}"
    );
    let unreachable = |e: std::io::Error| {
        ServeError::new(ErrorKind::Unavailable, format!("primary unreachable: {e}"))
            .with_retry_after(1)
    };
    // Stage: attach the candidate as a shadow on the primary. A missing
    // or wrong-schema candidate is the primary's 400, relayed verbatim.
    let attach = object([
        ("model", Value::String(model.into())),
        ("artifact", Value::String(artifact.into())),
    ])
    .to_json();
    let resp = primary
        .roundtrip("POST", "/v1/shadow", attach.as_bytes(), ctx.cfg.forward_timeout)
        .map_err(unreachable)?;
    if resp.status != 200 {
        return Ok(resp);
    }
    let model_body = object([("model", Value::String(model.into()))]).to_json();
    let detach = || {
        let body = model_body.as_bytes();
        let _ = primary.roundtrip("POST", "/v1/shadow", body, ctx.cfg.forward_timeout);
    };
    // Soak: the shadow scores live traffic until the window fills or a
    // divergence shows up. Judging is the registry's job, at promote.
    let deadline = Instant::now() + ctx.cfg.reload_timeout;
    let compared = loop {
        let (compared, diverged) = match shadow_window(&primary, model, ctx.cfg.forward_timeout) {
            Ok(w) => w,
            Err(e) => {
                detach();
                return Err(e);
            }
        };
        if diverged > 0 || compared >= window {
            break compared;
        }
        if Instant::now() >= deadline {
            detach();
            return Err(ServeError::new(
                ErrorKind::TimedOut,
                format!(
                    "shadow window reached only {compared} of {window} comparison(s) — \
                     is live traffic flowing to model {model:?}?"
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    // Cutover: pause the model (new predicts block, none fail), drain
    // the in-flight forwards, then let the primary judge the final
    // window and install the candidate it verified. The guard unpauses
    // on every path out.
    let _pause = PauseGuard::pause(ctx, model);
    let drain_deadline = Instant::now() + ctx.cfg.drain_timeout;
    loop {
        let draining: u64 = {
            let inflight = ctx.inflight.lock().unwrap();
            inflight
                .iter()
                .filter(|((_, m), _)| m == model)
                .map(|(_, n)| *n)
                .sum()
        };
        if draining == 0 {
            break;
        }
        if Instant::now() >= drain_deadline {
            detach();
            return Err(ServeError::new(
                ErrorKind::TimedOut,
                format!("{draining} forward(s) for model {model:?} stuck in flight"),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = primary
        .roundtrip("POST", "/v1/promote", model_body.as_bytes(), ctx.cfg.forward_timeout)
        .map_err(|e| {
            detach();
            unreachable(e)
        })?;
    if resp.status != 200 {
        detach();
        return Ok(resp);
    }
    // Refresh every routable worker (not just the replicas: placement
    // can shift later, and a stale catalogue entry must never answer).
    let backends: Vec<(usize, Arc<Backend>)> = {
        let slots = ctx.slots.lock().unwrap();
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sup.routable())
            .filter_map(|(i, s)| s.backend.clone().map(|b| (i, b)))
            .collect()
    };
    let mut refreshed = 0u64;
    let mut failures = Vec::new();
    for (i, be) in backends {
        match be.roundtrip("POST", "/v1/refresh", model_body.as_bytes(), ctx.cfg.forward_timeout) {
            Ok(resp) if resp.status == 200 => refreshed += 1,
            Ok(resp) => failures.push(format!("worker {i}: HTTP {} {}", resp.status, resp.text())),
            Err(e) => failures.push(format!("worker {i}: {e}")),
        }
    }
    if !failures.is_empty() {
        return Err(ServeError::new(
            ErrorKind::Internal,
            format!(
                "candidate promoted but {} worker(s) failed to refresh: {}",
                failures.len(),
                failures.join("; ")
            ),
        ));
    }
    eprintln!(
        "[fleet] reload of model {model:?} complete: {compared} clean comparison(s), \
         {refreshed} worker(s) refreshed"
    );
    Ok(Response::ok(object([
        ("status", Value::String("reloaded".into())),
        ("model", Value::String(model.into())),
        ("compared", Value::Integer(compared)),
        ("workers_refreshed", Value::Integer(refreshed)),
    ])))
}
