//! `fairlens-fleet`: a supervised multi-process fleet for `fairlens-serve`.
//!
//! One front-door process owns N `fairlens-serve` worker shards (real OS
//! processes on ephemeral loopback ports) and gives operators three
//! properties a single serve process cannot:
//!
//! * **Crash containment** — a panic, abort, or `kill -9` takes out one
//!   worker's models-in-flight, not the service. The supervisor probes
//!   `/healthz`, respawns crashed or wedged workers with exponential
//!   backoff, and marks a crash-looping slot dead once its restart
//!   budget is spent (placement rebalances around it).
//! * **Failover** — each model lives on `--replicas R` workers chosen by
//!   rendezvous hashing. Traffic is primary-first; a transport failure
//!   re-sends the request on the next replica, and deterministic scoring
//!   makes the answer bit-exact regardless of which replica speaks.
//! * **Blue/green reload** — `POST /v1/reload` stages a candidate
//!   artifact as a shadow against live traffic, requires a clean
//!   divergence window, then pauses/drains/swaps/refreshes so no client
//!   ever sees an error or a mixed-version response during cutover.
//!
//! The crate splits along testability lines: [`supervise`] is a pure
//! clock-injected state machine (unit-testable without processes),
//! [`placement`] is pure arithmetic, [`worker`] wraps the OS process
//! edge, and [`fleet`] is the front door's route fn plus the supervisor
//! loop. The HTTP plumbing on both sides of the front door — the server
//! loop and the pooled client to the workers — is the serve crate's
//! shared [`fairlens_serve::http`] stack.

pub mod fleet;
pub mod metrics;
pub mod placement;
pub mod supervise;
pub mod worker;

/// The pooled keep-alive client the router holds per worker.
pub use fairlens_serve::http::Client as Backend;
/// A response as the router relays it.
pub use fairlens_serve::http::Response as BackendResponse;
pub use fairlens_serve::http::probe_healthz;
pub use fleet::{Fleet, FleetConfig};
pub use metrics::FleetMetrics;
pub use supervise::{Decision, Phase, SupervisorConfig, WorkerSupervisor};
pub use worker::WorkerProc;
