//! `fairlens-serve` — a batching HTTP prediction server over persisted
//! FairLens model artifacts.
//!
//! The crate turns the benchmark's fitted fair-classification pipelines
//! (exported as versioned `.flm` artifacts by the bench crate's
//! `export_models` binary) into an online prediction service, with zero
//! dependencies beyond the workspace:
//!
//! * [`http`] — the workspace's one hand-rolled HTTP/1.1 stack on
//!   `std::net`: the request parser (keep-alive, pipelining, hard
//!   head/body limits, a total per-request read deadline that turns
//!   slow-loris clients into 408s), the server loop this crate and the
//!   fleet front door both run (accept, one thread per connection, a
//!   connection cap, an idle timeout, drain), and the strict client the
//!   fleet router, loadgen and the end-to-end suites share.
//! * [`registry`] — artifact scan at startup, lazy pipeline restore,
//!   LRU eviction bounded by `--max-loaded`; also the supervision layer:
//!   per-model circuit breakers, respawn of dead executors from their
//!   artifacts, and a negative cache quarantining unloadable artifacts.
//! * [`breaker`] — the clock-injected circuit-breaker state machine
//!   (closed → open → half-open probe → closed).
//! * [`batcher`] — the micro-batching core: one executor thread per
//!   loaded model coalesces concurrent predict requests into a single
//!   matrix pass, preserving bit-exactness with offline `predict` and
//!   never merging batches for stochastic (Hardt/Pleiss) pipelines.
//! * [`error`] — the closed client-visible error taxonomy; every failure
//!   is a structured JSON body, never a dropped connection or a panic.
//!   Shed (429) and breaker (503) rejections carry `Retry-After`.
//! * [`metrics`] — Prometheus text exposition: request/error counters,
//!   latency and batch-size histograms, registry gauges, and the
//!   overload series (sheds, queue depth, breaker state, in-flight);
//!   its [`metrics::Exposition`] writer (label values escaped) renders
//!   the fleet's registry too.
//! * [`faults`] — deterministic `FAIRLENS_FAULT` chaos hooks
//!   (`panic:`/`hang:`/`flaky:`/`abort:` per model id) for the chaos
//!   harness; `abort:` kills the whole process at the k-th request, the
//!   hook the fleet supervisor's respawn path is tested with.
//! * [`recorder`] — `--record PATH` appends every `/v1/predict` and
//!   `/v1/feedback` exchange (request, response, score bit patterns,
//!   timestamps last) as JSONL; the loadgen's `--replay` mode re-sends a
//!   recorded log and diffs the answers.
//! * [`monitors`] — live fairness monitoring over scored traffic: a
//!   per-model `fairlens-monitor` sliding window fed from every predict
//!   answer, `POST /v1/feedback` joining reported true labels back onto
//!   window rows, and drift detection against the training-time metrics
//!   in the artifact's `.flm` provenance (three-state
//!   ok → warning → alerting status with hysteresis, surfaced in
//!   `GET /v1/models`, `fairlens_live_metric` / `fairlens_drift_state` /
//!   `fairlens_feedback_total`, and drift trace events).
//! * [`server`] — the route fn on [`http::Server`]: admission control,
//!   routing, per-response bookkeeping, graceful drain
//!   (`POST /v1/shutdown`). `POST /v1/shadow` stages a candidate
//!   artifact: every admitted request is scored on both the incumbent
//!   and the candidate, answered from the incumbent, and divergences are
//!   counted; `POST /v1/promote` installs the candidate only when the
//!   comparison window is clean (else a structured 409) — the one
//!   cutover, which the fleet's blue/green reload also ends in.
//!
//! Routes: `POST /v1/predict`, `POST /v1/feedback`, `GET /v1/models`,
//! `GET /healthz`, `GET /metrics`, `POST /v1/promote`,
//! `POST /v1/shadow` (shadow attach/detach), `POST /v1/refresh`
//! (re-read an artifact from disk, which the fleet sends every worker
//! after a promote), `POST /v1/shutdown`.
//!
//! One `fairlens-serve` process is one fault domain. The companion
//! `fairlens-fleet` crate supervises several of them as worker shards
//! behind a routing front door (consistent-hash placement, replication,
//! crash failover, blue/green artifact reload); `--worker-id` tags a
//! process as a fleet shard.

pub mod batcher;
pub mod breaker;
pub mod error;
pub mod faults;
pub mod http;
pub mod metrics;
pub mod monitors;
pub mod recorder;
pub mod registry;
pub mod server;

pub use batcher::{BatchConfig, ModelWorker, PredictJob, PredictOutput};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use error::{ErrorKind, ServeError};
pub use faults::{ServeFaultKind, ServeFaults};
pub use metrics::Metrics;
pub use monitors::MonitorHub;
pub use recorder::Recorder;
pub use registry::{ModelInfo, ModelOutcome, Registry, ShadowDivergence, ShadowSummary};
pub use server::{ServeConfig, Server};
