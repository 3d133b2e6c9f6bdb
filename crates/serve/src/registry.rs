//! Model registry: startup scan, lazy load, LRU eviction, supervision.
//!
//! At startup the registry parses every `*.flm` artifact in the models
//! directory once, keeping only provenance metadata (the listing for
//! `GET /v1/models`). Pipelines are restored lazily on first use and held
//! in an LRU of at most `max_loaded` workers; evicting a worker drops its
//! job channel, which drains in-flight work and joins the executor thread
//! before the pipeline is freed (see [`ModelWorker`]'s `Drop`).
//!
//! The registry is also the serving stack's supervisor:
//!
//! * **Circuit breaking.** Each model owns a [`CircuitBreaker`];
//!   [`Registry::checkout`] runs breaker admission before touching the
//!   LRU, and [`Registry::report`] feeds request outcomes back. An open
//!   breaker rejects with a structured 503 + `Retry-After` instead of
//!   queueing work a failing model cannot serve.
//! * **Executor respawn.** A dead executor (its thread killed by a
//!   panic) is dropped from the LRU — either when a handler reports
//!   [`ModelOutcome::Dead`] or when `checkout` notices the cached worker
//!   finished — and the next admitted request restores the pipeline from
//!   the artifact into a fresh executor. The HTTP worker never panics.
//! * **Negative caching (quarantine).** An artifact that fails to parse
//!   or restore — at scan or on a lazy load — is quarantined: the id is
//!   marked `unloadable` in `GET /v1/models`, every predict gets an
//!   immediate 503 (+ `Retry-After`), and the file is never re-read and
//!   re-failed per request. Quarantine is permanent until restart (a
//!   corrupt file does not heal), and each entry counts once in
//!   `fairlens_model_load_failures_total`.
//! * **Shadow deployments.** A candidate artifact can be attached to an
//!   incumbent model (`POST /v1/shadow`); every admitted predict is then
//!   scored by both, the response comes from the incumbent, and the
//!   score streams are compared bit-exactly (or within a ULP bound).
//!   [`Registry::promote`] is the only code that commits a cutover: it
//!   installs the candidate the shadow verified over the incumbent's
//!   artifact only when the comparison window is non-empty and clean —
//!   a dirty or empty window is a structured 409.

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use fairlens_core::{DataSchema, ModelArtifact};
use fairlens_monitor::{Clock, SystemClock};
use fairlens_xverify::Tolerance;

use crate::batcher::{BatchConfig, ModelWorker};
use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
use crate::error::{ErrorKind, ServeError};
use crate::faults::ServeFaults;
use crate::metrics::Metrics;

/// Provenance surfaced by `GET /v1/models`, captured at scan time.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// The serving id (the artifact's file stem).
    pub id: String,
    /// Artifact path, loaded on demand.
    pub path: PathBuf,
    /// Fair-classification approach name (e.g. `Hardt^EO`).
    pub approach: String,
    /// Intervention stage label (pre/in/post/baseline).
    pub stage: String,
    /// Source dataset name.
    pub dataset: String,
    /// The training seed.
    pub seed: u64,
    /// Training-set size.
    pub train_rows: u64,
    /// Held-out metric suite recorded at export time.
    pub train_metrics: Vec<(String, f64)>,
    /// Whether the pipeline's predictions depend on batch composition.
    pub stochastic: bool,
    /// Input schema, kept resident so request validation (and the 400s
    /// it produces) never forces an artifact load.
    pub schema: DataSchema,
}

/// How a checked-out request ended, as observed by the predict handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelOutcome {
    /// The model produced a prediction.
    Success,
    /// The model failed the request (panic inside the flush guard,
    /// injected fault, or deadline expiry): breaker fodder.
    Failure,
    /// The executor thread is gone; drop it from the LRU so the next
    /// admitted request respawns it, and count a breaker failure.
    Dead,
    /// The request was shed after admission (e.g. queue full) without
    /// exercising the model: frees a half-open probe slot, judges
    /// nothing.
    Shed,
}

struct LruState {
    /// id → (last-use tick, worker).
    map: HashMap<String, (u64, Arc<ModelWorker>)>,
    tick: u64,
}

/// The first score disagreement a shadow deployment observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowDivergence {
    /// Comparison ordinal (1-based) of the diverging request.
    pub request: u64,
    /// Row within that request's batch.
    pub row: usize,
    /// The incumbent's score for the row.
    pub incumbent: f64,
    /// The candidate's score (NaN when the candidate failed outright).
    pub candidate: f64,
}

impl std::fmt::Display for ShadowDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request {} row {}: incumbent {:#018x} ({}) vs candidate {:#018x} ({})",
            self.request,
            self.row,
            self.incumbent.to_bits(),
            self.incumbent,
            self.candidate.to_bits(),
            self.candidate,
        )
    }
}

/// A shadow deployment's comparison window, for `GET /v1/models`.
#[derive(Debug, Clone)]
pub struct ShadowSummary {
    /// The candidate artifact's path.
    pub candidate: PathBuf,
    /// Requests scored by both incumbent and candidate.
    pub compared: u64,
    /// Comparisons where the score streams disagreed.
    pub diverged: u64,
    /// The first disagreement, pinned for the promote refusal message.
    pub first: Option<ShadowDivergence>,
}

struct ShadowState {
    path: PathBuf,
    /// The candidate as parsed and verified at attach: what promote
    /// installs, whatever happens to the file at `path` afterwards.
    artifact: ModelArtifact,
    stochastic: bool,
    worker: Arc<ModelWorker>,
    compared: u64,
    diverged: u64,
    first: Option<ShadowDivergence>,
}

/// The server's model catalogue and supervisor.
pub struct Registry {
    /// Mutexed (and `Arc`-valued) so a cutover can swap an entry for the
    /// freshly installed artifact while handlers hold the old metadata.
    infos: Mutex<BTreeMap<String, Arc<ModelInfo>>>,
    /// id → reason, for artifacts that failed to load or restore.
    quarantined: Mutex<BTreeMap<String, String>>,
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
    loaded: Mutex<LruState>,
    /// Incumbent id → its shadow candidate and comparison window.
    shadows: Mutex<BTreeMap<String, ShadowState>>,
    /// How shadow score streams are compared (bit-exact by default).
    shadow_tolerance: Tolerance,
    cfg: BatchConfig,
    breaker_cfg: BreakerConfig,
    max_loaded: usize,
    metrics: Arc<Metrics>,
    faults: Arc<ServeFaults>,
    /// Time source for breaker admission/trip decisions. The breakers
    /// themselves never read the clock (every method takes `now`); the
    /// registry is where `now` is sourced, so injecting a
    /// [`fairlens_monitor::ManualClock`] here makes breaker timing fully
    /// deterministic in tests.
    clock: Arc<dyn Clock>,
    /// The scanned models directory, kept so [`Registry::refresh`] can
    /// resolve `{id}.flm` for ids that never loaded (quarantined at scan,
    /// or dropped into the directory after startup).
    dir: PathBuf,
}

impl Registry {
    /// Scan `dir` for `*.flm` artifacts. Unreadable artifacts are
    /// quarantined and surfaced as `unloadable` — one corrupt file must
    /// not take the server down, and must not be re-read per request.
    pub fn scan(
        dir: &Path,
        cfg: BatchConfig,
        max_loaded: usize,
        metrics: Arc<Metrics>,
        breaker_cfg: BreakerConfig,
        faults: Arc<ServeFaults>,
    ) -> std::io::Result<Self> {
        let mut infos = BTreeMap::new();
        let mut quarantined = BTreeMap::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("flm") {
                continue;
            }
            let Some(id) = path.file_stem().and_then(|s| s.to_str()).map(str::to_string)
            else {
                continue;
            };
            match load_artifact(&path) {
                Ok((a, stochastic)) => {
                    infos.insert(id.clone(), Arc::new(info_from(id, path.clone(), a, stochastic)));
                }
                Err(reason) => {
                    eprintln!("[serve] quarantining {}: {reason}", path.display());
                    metrics.record_load_failure();
                    quarantined.insert(id, reason);
                }
            }
        }
        Ok(Self {
            infos: Mutex::new(infos),
            quarantined: Mutex::new(quarantined),
            breakers: Mutex::new(HashMap::new()),
            loaded: Mutex::new(LruState { map: HashMap::new(), tick: 0 }),
            shadows: Mutex::new(BTreeMap::new()),
            shadow_tolerance: Tolerance::Exact,
            cfg,
            breaker_cfg,
            max_loaded: max_loaded.max(1),
            metrics,
            faults,
            clock: Arc::new(SystemClock),
            dir: dir.to_path_buf(),
        })
    }

    /// Replace the breaker time source (tests inject a
    /// [`fairlens_monitor::ManualClock`]). Configure before serving
    /// traffic.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// How shadow score streams are compared: `None` keeps the bit-exact
    /// default, `Some(k)` allows `k` ulps (with the `k·ε` absolute
    /// fallback for near-zero scores). Configure before serving traffic.
    pub fn set_shadow_tolerance(&mut self, ulps: Option<u64>) {
        self.shadow_tolerance = match ulps {
            None | Some(0) => Tolerance::Exact,
            Some(k) => Tolerance::Ulps(k),
        };
    }

    /// All loadable models, id-sorted.
    pub fn list(&self) -> Vec<Arc<ModelInfo>> {
        self.infos.lock().unwrap().values().cloned().collect()
    }

    /// Quarantined ids with the failure reason, id-sorted.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.quarantined
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of loadable artifacts discovered at scan.
    pub fn len(&self) -> usize {
        self.infos.lock().unwrap().len()
    }

    /// Whether the scan found nothing loadable.
    pub fn is_empty(&self) -> bool {
        self.infos.lock().unwrap().is_empty()
    }

    /// Metadata for one model.
    pub fn info(&self, id: &str) -> Option<Arc<ModelInfo>> {
        self.infos.lock().unwrap().get(id).cloned()
    }

    /// The breaker state for one model (`Closed` if it never tripped).
    pub fn breaker_state(&self, id: &str) -> BreakerState {
        self.breakers
            .lock()
            .unwrap()
            .get(id)
            .map_or(BreakerState::Closed, CircuitBreaker::state)
    }

    /// The metadata (notably the input schema) for `id`, for request
    /// validation before any admission or load work. Unknown ids are
    /// 404s; quarantined ids are immediate 503s (+ `Retry-After`) served
    /// from the negative cache (no disk I/O).
    pub fn model(&self, id: &str) -> Result<Arc<ModelInfo>, ServeError> {
        if let Some(reason) = self.quarantined.lock().unwrap().get(id) {
            return Err(ServeError::new(
                ErrorKind::Unavailable,
                format!("model {id:?} is quarantined (unloadable): {reason}"),
            )
            .with_retry_after(QUARANTINE_RETRY_AFTER));
        }
        self.info(id).ok_or_else(|| {
            ServeError::new(ErrorKind::UnknownModel, format!("no model {id:?}"))
        })
    }

    /// Admit one request through the model's breaker and hand out its
    /// worker, loading the artifact (and evicting the least-recently-used
    /// worker past capacity) if necessary. Loading happens under the
    /// registry lock: a burst of first requests for the same cold model
    /// deserializes it once, not once per request. A cached worker whose
    /// executor died is replaced here — the respawn path of supervision.
    ///
    /// Callers must pair every successful checkout with exactly one
    /// [`Registry::report`] so breaker bookkeeping (especially the
    /// half-open probe slot) stays balanced.
    pub fn checkout(&self, id: &str) -> Result<Arc<ModelWorker>, ServeError> {
        let info = self.info(id).ok_or_else(|| {
            ServeError::new(ErrorKind::UnknownModel, format!("no model {id:?}"))
        })?;
        let now = self.clock.now();
        {
            let mut breakers = self.breakers.lock().unwrap();
            let b = breakers
                .entry(id.to_string())
                .or_insert_with(|| CircuitBreaker::new(self.breaker_cfg));
            match b.admit(now) {
                Admission::Admit | Admission::Probe => {
                    self.metrics.set_breaker_state(id, b.state().gauge());
                }
                Admission::Reject { retry_after } => {
                    self.metrics.record_shed("breaker_open");
                    return Err(ServeError::new(
                        ErrorKind::Unavailable,
                        format!("model {id:?} breaker is open; retry later"),
                    )
                    .with_retry_after(retry_after.as_secs_f64().ceil() as u64));
                }
            }
        }
        match self.load_worker(&info) {
            Ok(worker) => Ok(worker),
            Err(e) => {
                // The load itself failed (quarantine): settle the breaker
                // bookkeeping we opened above — there will be no report.
                self.report_breaker_only(id, ModelOutcome::Failure);
                Err(e)
            }
        }
    }

    fn load_worker(&self, info: &ModelInfo) -> Result<Arc<ModelWorker>, ServeError> {
        let id = info.id.as_str();
        let mut lru = self.loaded.lock().unwrap();
        lru.tick += 1;
        let tick = lru.tick;
        if let Some((last_use, worker)) = lru.map.get_mut(id) {
            if !worker.is_dead() {
                *last_use = tick;
                return Ok(worker.clone());
            }
            // Executor thread gone: drop the corpse and fall through to
            // a fresh restore from the artifact.
            lru.map.remove(id);
            self.metrics.set_queue_depth(id, 0);
            eprintln!("[serve] respawning dead executor for model {id:?}");
        }
        let pipeline = match load_artifact(&info.path) {
            Ok((artifact, _)) => artifact.restore(),
            Err(reason) => {
                // Negative-cache the failure: quarantine the id so the
                // next request fails fast instead of re-reading the file.
                eprintln!("[serve] quarantining {id:?} at load: {reason}");
                self.metrics.record_load_failure();
                self.quarantined.lock().unwrap().insert(id.to_string(), reason.clone());
                return Err(ServeError::new(
                    ErrorKind::Unavailable,
                    format!("model {id:?} is quarantined (unloadable): {reason}"),
                )
                .with_retry_after(QUARANTINE_RETRY_AFTER));
            }
        };
        let worker = Arc::new(ModelWorker::spawn(
            id,
            info.schema.clone(),
            pipeline,
            self.cfg,
            self.metrics.clone(),
            self.faults.clone(),
        ));
        lru.map.insert(id.to_string(), (tick, worker.clone()));
        while lru.map.len() > self.max_loaded {
            let victim = lru
                .map
                .iter()
                .min_by_key(|(_, (last_use, _))| *last_use)
                .map(|(k, _)| k.clone())
                .expect("non-empty LRU");
            // The worker is dropped outside any request's reply path; if
            // a handler still holds its Arc, the executor survives until
            // that request completes.
            lru.map.remove(&victim);
            self.metrics.record_eviction();
        }
        self.metrics.set_models_loaded(lru.map.len());
        Ok(worker)
    }

    /// Report the outcome of a checked-out request: feeds the breaker and
    /// — for [`ModelOutcome::Dead`] — unloads the dead worker so the next
    /// admitted request respawns the executor from the artifact.
    pub fn report(&self, id: &str, worker: &Arc<ModelWorker>, outcome: ModelOutcome) {
        if outcome == ModelOutcome::Dead {
            let mut lru = self.loaded.lock().unwrap();
            if let Some((_, cached)) = lru.map.get(id) {
                if Arc::ptr_eq(cached, worker) {
                    lru.map.remove(id);
                    self.metrics.set_models_loaded(lru.map.len());
                }
            }
            // The corpse's queue is gone with it.
            self.metrics.set_queue_depth(id, 0);
        }
        self.report_breaker_only(id, outcome);
    }

    fn report_breaker_only(&self, id: &str, outcome: ModelOutcome) {
        let now = self.clock.now();
        let mut breakers = self.breakers.lock().unwrap();
        let Some(b) = breakers.get_mut(id) else { return };
        let opened = match outcome {
            ModelOutcome::Success => {
                b.on_success();
                false
            }
            ModelOutcome::Failure | ModelOutcome::Dead => b.on_failure(now),
            ModelOutcome::Shed => {
                b.release();
                false
            }
        };
        if opened {
            self.metrics.record_breaker_open(id);
            eprintln!("[serve] breaker opened for model {id:?}");
        }
        self.metrics.set_breaker_state(id, b.state().gauge());
    }

    /// Attach a shadow candidate to incumbent `id`: the candidate must
    /// load, restore, and carry the incumbent's exact input schema (a
    /// shadow that cannot score the same requests is a config error, not
    /// a divergence). The candidate gets its own executor immediately —
    /// a broken artifact fails the attach, not the first live comparison.
    pub fn attach_shadow(&self, id: &str, path: &Path) -> Result<(), String> {
        let info = self.info(id).ok_or_else(|| format!("no incumbent model {id:?}"))?;
        let (artifact, stochastic) = load_artifact(path)
            .map_err(|e| format!("candidate {} failed to load: {e}", path.display()))?;
        if artifact.schema != info.schema {
            return Err(format!(
                "candidate {} input schema differs from incumbent {id:?}",
                path.display()
            ));
        }
        let worker = Arc::new(ModelWorker::spawn(
            &format!("{id}#shadow"),
            artifact.schema.clone(),
            artifact.restore(),
            self.cfg,
            self.metrics.clone(),
            self.faults.clone(),
        ));
        self.shadows.lock().unwrap().insert(
            id.to_string(),
            ShadowState {
                path: path.to_path_buf(),
                artifact,
                stochastic,
                worker,
                compared: 0,
                diverged: 0,
                first: None,
            },
        );
        Ok(())
    }

    /// The shadow executor for `id`, if a candidate is attached.
    pub fn shadow_worker(&self, id: &str) -> Option<Arc<ModelWorker>> {
        self.shadows.lock().unwrap().get(id).map(|s| s.worker.clone())
    }

    /// Record one shadow comparison: the incumbent's scores against the
    /// candidate's (pass NaNs when the candidate failed — a candidate
    /// that cannot answer is a divergence, not a pass). Returns whether
    /// the streams diverged; the first divergence is pinned for the
    /// promote refusal and `GET /v1/models`.
    pub fn record_shadow(&self, id: &str, incumbent: &[f64], candidate: &[f64]) -> bool {
        let mut shadows = self.shadows.lock().unwrap();
        let Some(state) = shadows.get_mut(id) else { return false };
        state.compared += 1;
        let rows = incumbent.len().max(candidate.len());
        let mismatch = (0..rows).find_map(|row| {
            let a = incumbent.get(row).copied().unwrap_or(f64::NAN);
            let b = candidate.get(row).copied().unwrap_or(f64::NAN);
            (!self.shadow_tolerance.matches(a, b)).then_some(ShadowDivergence {
                request: state.compared,
                row,
                incumbent: a,
                candidate: b,
            })
        });
        let diverged = mismatch.is_some();
        if let Some(d) = mismatch {
            state.diverged += 1;
            if state.first.is_none() {
                eprintln!("[serve] shadow divergence for model {id:?}: {d}");
                state.first = Some(d);
            }
        }
        self.metrics.record_shadow_compare(id, diverged);
        diverged
    }

    /// The comparison window for `id`'s shadow, if one is attached.
    pub fn shadow_summary(&self, id: &str) -> Option<ShadowSummary> {
        self.shadows.lock().unwrap().get(id).map(|s| ShadowSummary {
            candidate: s.path.clone(),
            compared: s.compared,
            diverged: s.diverged,
            first: s.first,
        })
    }

    /// Promote `id`'s shadow candidate to incumbent. Refuses with a 400
    /// when no shadow is attached and a structured 409 when the
    /// comparison window is empty (nothing proven) or dirty (divergence
    /// observed — the refusal names the first differing request and both
    /// score bit patterns). On success the artifact the shadow verified
    /// at attach (not whatever now sits at the candidate path) is saved
    /// over the incumbent's file, and the shared install step swaps the
    /// catalogue entry (built in memory, not re-read from disk), evicts
    /// the resident executor so the next request restores the promoted
    /// pipeline, and detaches the shadow. Returns the size of the clean
    /// comparison window.
    pub fn promote(&self, id: &str) -> Result<u64, ServeError> {
        let info = self.info(id).ok_or_else(|| {
            ServeError::new(ErrorKind::UnknownModel, format!("no model {id:?}"))
        })?;
        let mut shadows = self.shadows.lock().unwrap();
        let Some(state) = shadows.get(id) else {
            return Err(ServeError::bad_request(format!(
                "no shadow candidate attached for model {id:?}"
            )));
        };
        if state.compared == 0 {
            return Err(ServeError::new(
                ErrorKind::Conflict,
                format!(
                    "model {id:?} shadow has no comparisons yet; \
                     drive traffic through it before promoting"
                ),
            ));
        }
        if state.diverged > 0 {
            let first = state
                .first
                .map(|d| format!("; first divergence at {d}"))
                .unwrap_or_default();
            return Err(ServeError::new(
                ErrorKind::Conflict,
                format!(
                    "model {id:?} shadow diverged on {} of {} comparisons{first}",
                    state.diverged, state.compared
                ),
            ));
        }
        state.artifact.save(&info.path).map_err(|e| {
            ServeError::new(
                ErrorKind::Internal,
                format!("cutover to {} failed: {e}", info.path.display()),
            )
        })?;
        let compared = state.compared;
        let promoted = info_from(
            id.to_string(),
            info.path.clone(),
            state.artifact.clone(),
            state.stochastic,
        );
        self.install(&mut shadows, promoted);
        eprintln!(
            "[serve] promoted shadow candidate for model {id:?} \
             after {compared} clean comparison(s)"
        );
        Ok(compared)
    }

    /// Detach `id`'s shadow candidate without promoting — the fleet's
    /// reload abort path. Returns whether one was attached; detaching
    /// with nothing attached is a no-op, so the abort path is idempotent.
    pub fn detach_shadow(&self, id: &str) -> bool {
        self.shadows.lock().unwrap().remove(id).is_some()
    }

    /// Number of models with a resident executor right now.
    pub fn loaded_count(&self) -> usize {
        self.loaded.lock().unwrap().map.len()
    }

    /// Re-read `id`'s artifact from disk and install it the way promote
    /// does — a refresh is an explicit operator assertion that the file
    /// was replaced, the one case where quarantine may heal without a
    /// restart. After the fleet's primary promotes a candidate into the
    /// shared models directory, the fleet refreshes every worker with
    /// this. Ids never seen before resolve to `{dir}/{id}.flm`, so a
    /// refresh can also introduce a model dropped into the directory
    /// after startup.
    pub fn refresh(&self, id: &str) -> Result<(), ServeError> {
        let path = self
            .info(id)
            .map(|i| i.path.clone())
            .unwrap_or_else(|| self.dir.join(format!("{id}.flm")));
        let (artifact, stochastic) = load_artifact(&path).map_err(|reason| {
            // The file on disk is (still) bad: keep or enter quarantine
            // so per-request traffic keeps getting the cached 503.
            eprintln!("[serve] refresh of model {id:?} failed: {reason}");
            self.metrics.record_load_failure();
            self.quarantined.lock().unwrap().insert(id.to_string(), reason.clone());
            ServeError::new(
                ErrorKind::Unavailable,
                format!("model {id:?} failed to refresh: {reason}"),
            )
            .with_retry_after(QUARANTINE_RETRY_AFTER)
        })?;
        let refreshed = info_from(id.to_string(), path, artifact, stochastic);
        self.install(&mut self.shadows.lock().unwrap(), refreshed);
        eprintln!("[serve] refreshed model {id:?} from disk");
        Ok(())
    }

    /// The tail of every cutover: make `info` the catalogue entry, clear
    /// the id's quarantine, evict its resident executor (the next
    /// admitted request restores the new pipeline) and detach its
    /// shadow. `shadows` is the caller's guard, so promote's window
    /// check and the detach happen under one lock.
    fn install(&self, shadows: &mut BTreeMap<String, ShadowState>, info: ModelInfo) {
        let id = info.id.clone();
        self.quarantined.lock().unwrap().remove(&id);
        self.infos.lock().unwrap().insert(id.clone(), Arc::new(info));
        {
            let mut lru = self.loaded.lock().unwrap();
            lru.map.remove(&id);
            self.metrics.set_models_loaded(lru.map.len());
            self.metrics.set_queue_depth(&id, 0);
        }
        shadows.remove(&id);
    }

    /// Unload everything, joining all executors (shadows included).
    /// Called on drain.
    pub fn shutdown(&self) {
        self.shadows.lock().unwrap().clear();
        let mut lru = self.loaded.lock().unwrap();
        lru.map.clear();
        self.metrics.set_models_loaded(0);
    }
}

/// `Retry-After` hint on quarantine 503s: quarantine only heals on
/// restart, so point clients at a redeploy-scale horizon, not a backoff
/// spin.
const QUARANTINE_RETRY_AFTER: u64 = 30;

fn info_from(id: String, path: PathBuf, a: ModelArtifact, stochastic: bool) -> ModelInfo {
    ModelInfo {
        id,
        path,
        approach: a.approach,
        stage: a.stage,
        dataset: a.dataset,
        seed: a.seed,
        train_rows: a.train_rows,
        train_metrics: a.train_metrics,
        stochastic,
        schema: a.schema,
    }
}

/// Parse an artifact and prove it restores (the restore result also
/// yields the stochasticity flag for the listing). Any parse error or
/// restore panic becomes a quarantine reason.
fn load_artifact(path: &Path) -> Result<(ModelArtifact, bool), String> {
    let artifact = ModelArtifact::load(path)?;
    let stochastic =
        std::panic::catch_unwind(AssertUnwindSafe(|| artifact.restore().is_stochastic()))
            .map_err(|_| "artifact restore panicked".to_string())?;
    Ok((artifact, stochastic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_core::baseline_approach;
    use fairlens_synth::DatasetKind;
    use std::time::Instant;

    fn export_kind(dir: &Path, id: &str, kind: DatasetKind, seed: u64) {
        let data = kind.generate(200, seed);
        let approach = baseline_approach();
        let fitted = approach.fit(&data, seed).unwrap();
        let metrics = vec![("accuracy".into(), 0.5)];
        ModelArtifact::new(&approach, kind.name(), &data, &fitted, seed, metrics)
            .unwrap()
            .save(&dir.join(format!("{id}.flm")))
            .unwrap();
    }

    fn export(dir: &Path, id: &str, seed: u64) {
        export_kind(dir, id, DatasetKind::German, seed);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flm-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn scan(dir: &Path, max_loaded: usize, metrics: Arc<Metrics>) -> Registry {
        Registry::scan(
            dir,
            BatchConfig::default(),
            max_loaded,
            metrics,
            BreakerConfig::default(),
            Arc::new(ServeFaults::none()),
        )
        .unwrap()
    }

    #[test]
    fn scan_lists_loadable_and_quarantines_corrupt() {
        let dir = temp_dir("scan");
        export(&dir, "german-lr", 1);
        export(&dir, "german-lr2", 2);
        std::fs::write(dir.join("broken.flm"), "not json").unwrap();
        std::fs::write(dir.join("ignored.txt"), "x").unwrap();
        let metrics = Arc::new(Metrics::new());
        let reg = scan(&dir, 4, metrics.clone());
        let ids: Vec<String> = reg.list().iter().map(|i| i.id.clone()).collect();
        assert_eq!(ids, ["german-lr", "german-lr2"]);
        assert_eq!(reg.info("german-lr").unwrap().approach, "LR");
        assert!(reg.model("missing").is_err_and(|e| e.kind == ErrorKind::UnknownModel));
        assert!(reg.checkout("missing").is_err_and(|e| e.kind == ErrorKind::UnknownModel));
        // The corrupt artifact is listed as quarantined, counted once,
        // and every predict against it is an immediate 503.
        let q = reg.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, "broken");
        let err = reg.model("broken").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unavailable);
        assert_eq!(err.retry_after, Some(QUARANTINE_RETRY_AFTER));
        assert!(metrics.render().contains("fairlens_model_load_failures_total 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_the_coldest_worker() {
        let dir = temp_dir("lru");
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            export(&dir, id, i as u64 + 1);
        }
        let metrics = Arc::new(Metrics::new());
        let reg = scan(&dir, 2, metrics.clone());
        let _a = reg.checkout("a").unwrap();
        reg.report("a", &_a, ModelOutcome::Success);
        let _b = reg.checkout("b").unwrap();
        reg.report("b", &_b, ModelOutcome::Success);
        let _a2 = reg.checkout("a").unwrap(); // refresh a: b is now coldest
        reg.report("a", &_a2, ModelOutcome::Success);
        let _c = reg.checkout("c").unwrap();
        reg.report("c", &_c, ModelOutcome::Success);
        let text = metrics.render();
        assert!(text.contains("fairlens_model_evictions_total 1"), "{text}");
        assert!(text.contains("fairlens_models_loaded 2"), "{text}");
        // The evicted model reloads transparently.
        assert!(reg.checkout("b").is_ok());
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_failure_is_negatively_cached() {
        let dir = temp_dir("negcache");
        export(&dir, "german-lr", 3);
        let metrics = Arc::new(Metrics::new());
        let reg = scan(&dir, 4, metrics.clone());
        // Corrupt the artifact after the scan: the first load fails and
        // quarantines the id.
        std::fs::write(dir.join("german-lr.flm"), "{ scrambled").unwrap();
        let err = reg.checkout("german-lr").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unavailable);
        assert!(err.message.contains("quarantined"), "{err}");
        assert_eq!(err.retry_after, Some(QUARANTINE_RETRY_AFTER));
        // Restore a pristine artifact on disk: the negative cache must
        // answer without re-reading the file, so the id stays quarantined.
        export(&dir, "german-lr", 3);
        let err = reg.model("german-lr").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unavailable);
        assert!(err.message.contains("quarantined"), "{err}");
        assert_eq!(reg.quarantined().len(), 1);
        assert!(metrics.render().contains("fairlens_model_load_failures_total 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shadow_window_gates_promotion() {
        let dir = temp_dir("shadow");
        export(&dir, "m", 11);
        // The candidate: byte-identical copy of the incumbent.
        std::fs::copy(dir.join("m.flm"), dir.join("candidate.flm")).unwrap();
        let metrics = Arc::new(Metrics::new());
        let reg = scan(&dir, 4, metrics.clone());
        // No shadow attached → 400, not 409.
        assert!(reg.promote("m").is_err_and(|e| e.kind == ErrorKind::BadRequest));
        reg.attach_shadow("m", &dir.join("candidate.flm")).unwrap();
        assert!(reg.shadow_worker("m").is_some());
        // Empty window → 409: nothing has been proven yet.
        let err = reg.promote("m").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Conflict);
        assert!(err.message.contains("no comparisons"), "{err}");
        // Identical scores → clean comparison, promote succeeds.
        assert!(!reg.record_shadow("m", &[0.25, 0.5], &[0.25, 0.5]));
        assert_eq!(reg.shadow_summary("m").unwrap().compared, 1);
        assert_eq!(reg.promote("m").unwrap(), 1);
        assert!(reg.shadow_summary("m").is_none(), "shadow detaches on promote");
        let text = metrics.render();
        assert!(text.contains("fairlens_shadow_compared_total{model=\"m\"} 1"), "{text}");
        assert!(text.contains("fairlens_shadow_divergence_total{model=\"m\"} 0"), "{text}");
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shadow_divergence_blocks_promotion_with_the_bits() {
        let dir = temp_dir("shadow-div");
        export(&dir, "m", 13);
        std::fs::copy(dir.join("m.flm"), dir.join("candidate.flm")).unwrap();
        let metrics = Arc::new(Metrics::new());
        let reg = scan(&dir, 4, metrics.clone());
        reg.attach_shadow("m", &dir.join("candidate.flm")).unwrap();
        assert!(!reg.record_shadow("m", &[0.5], &[0.5]));
        // One ulp off on row 1 of the second comparison.
        let off = f64::from_bits(0.75f64.to_bits() ^ 1);
        assert!(reg.record_shadow("m", &[0.5, 0.75], &[0.5, off]));
        // A candidate that failed outright (NaN scores) also diverges.
        assert!(reg.record_shadow("m", &[0.5], &[f64::NAN]));
        let s = reg.shadow_summary("m").unwrap();
        assert_eq!((s.compared, s.diverged), (3, 2));
        let first = s.first.unwrap();
        assert_eq!((first.request, first.row), (2, 1));
        let err = reg.promote("m").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Conflict);
        // The refusal names the first differing request and both score
        // bit patterns.
        assert!(err.message.contains("2 of 3"), "{err}");
        assert!(err.message.contains("request 2 row 1"), "{err}");
        assert!(err.message.contains(&format!("{:#018x}", 0.75f64.to_bits())), "{err}");
        assert!(err.message.contains(&format!("{:#018x}", off.to_bits())), "{err}");
        let text = metrics.render();
        assert!(text.contains("fairlens_shadow_divergence_total{model=\"m\"} 2"), "{text}");
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shadow_tolerance_and_schema_are_enforced() {
        let dir = temp_dir("shadow-tol");
        export(&dir, "m", 17);
        std::fs::copy(dir.join("m.flm"), dir.join("candidate.flm")).unwrap();
        let metrics = Arc::new(Metrics::new());
        let mut reg = scan(&dir, 4, metrics);
        reg.set_shadow_tolerance(Some(4));
        assert!(reg.attach_shadow("missing", &dir.join("candidate.flm")).is_err());
        assert!(reg
            .attach_shadow("m", &dir.join("nope.flm"))
            .is_err_and(|e| e.contains("failed to load")));
        // A candidate trained on a different input schema cannot shadow.
        export_kind(&dir, "other", DatasetKind::Adult, 1);
        assert!(reg
            .attach_shadow("m", &dir.join("other.flm"))
            .is_err_and(|e| e.contains("schema")));
        reg.attach_shadow("m", &dir.join("candidate.flm")).unwrap();
        // Within the ulp bound → clean; far off → divergence.
        let near = f64::from_bits(0.5f64.to_bits() + 3);
        assert!(!reg.record_shadow("m", &[0.5], &[near]));
        assert!(reg.record_shadow("m", &[0.5], &[0.625]));
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn breaker_trips_after_reported_failures_and_recovers() {
        let dir = temp_dir("breaker");
        export(&dir, "m", 5);
        let metrics = Arc::new(Metrics::new());
        let mut reg = Registry::scan(
            &dir,
            BatchConfig::default(),
            2,
            metrics.clone(),
            BreakerConfig { threshold: 2, cooldown: std::time::Duration::from_millis(50) },
            Arc::new(ServeFaults::none()),
        )
        .unwrap();
        // Drive breaker timing off a hand-cranked clock: no sleeps, no
        // timing flake — cooldown expiry happens exactly when advanced.
        let clock = fairlens_monitor::ManualClock::new();
        reg.set_clock(Arc::new(clock.clone()));
        let w = reg.checkout("m").unwrap();
        reg.report("m", &w, ModelOutcome::Failure);
        assert_eq!(reg.breaker_state("m"), BreakerState::Closed);
        let w = reg.checkout("m").unwrap();
        reg.report("m", &w, ModelOutcome::Failure);
        assert_eq!(reg.breaker_state("m"), BreakerState::Open);
        // Open: immediate 503 with Retry-After, counted as a shed.
        let err = reg.checkout("m").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unavailable);
        assert!(err.retry_after.is_some());
        let text = metrics.render();
        assert!(text.contains("fairlens_shed_total{reason=\"breaker_open\"} 1"), "{text}");
        assert!(text.contains("fairlens_breaker_opens_total{model=\"m\"} 1"), "{text}");
        assert!(text.contains("fairlens_breaker_state{model=\"m\"} 2"), "{text}");
        // After the cooldown the probe flows and a success re-closes.
        clock.advance(std::time::Duration::from_millis(60));
        let w = reg.checkout("m").unwrap();
        reg.report("m", &w, ModelOutcome::Success);
        assert_eq!(reg.breaker_state("m"), BreakerState::Closed);
        assert!(metrics.render().contains("fairlens_breaker_state{model=\"m\"} 0"));
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_worker_is_respawned_on_next_checkout() {
        let dir = temp_dir("respawn");
        export(&dir, "m", 7);
        let metrics = Arc::new(Metrics::new());
        let reg = Registry::scan(
            &dir,
            BatchConfig::default(),
            2,
            metrics.clone(),
            BreakerConfig { threshold: 10, cooldown: std::time::Duration::from_millis(10) },
            // One executor panic: the first dequeue kills the thread.
            Arc::new(ServeFaults::parse("panic:m:1").unwrap()),
        )
        .unwrap();
        let w = reg.checkout("m").unwrap();
        // Feed it one job so the injected panic fires and the thread dies.
        let (reply, rx) = std::sync::mpsc::sync_channel(1);
        let data = DatasetKind::German.generate(8, 7);
        w.submit(crate::batcher::PredictJob {
            data: data.select_rows(&[0]),
            reply,
            budget: fairlens_budget::Budget::new(),
            submitted: Instant::now(),
        })
        .unwrap();
        assert!(rx.recv_timeout(std::time::Duration::from_secs(5)).is_err());
        reg.report("m", &w, ModelOutcome::Dead);
        drop(w);
        // Fault budget spent: the next checkout respawns a live executor
        // that serves correctly.
        let w2 = reg.checkout("m").unwrap();
        assert!(!w2.is_dead());
        let (reply, rx) = std::sync::mpsc::sync_channel(1);
        w2.submit(crate::batcher::PredictJob {
            data: data.select_rows(&[0]),
            reply,
            budget: fairlens_budget::Budget::new(),
            submitted: Instant::now(),
        })
        .unwrap();
        assert!(rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap().is_ok());
        reg.report("m", &w2, ModelOutcome::Success);
        reg.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
