//! Prometheus text-format metrics for the fleet front door.
//!
//! Same conventions as the serve crate's registry: mutexed `BTreeMap`s
//! keyed by label tuple (request handling is socket-bound; one short
//! lock per request is noise), deterministic render order, and the same
//! [`Exposition`] writer, which escapes label values. The families here describe the *fleet* — worker
//! lifecycle, failover, reload — while each worker keeps exposing its
//! own `/metrics` for per-model detail.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fairlens_serve::metrics::Exposition;

/// The fleet's metric registry.
#[derive(Default)]
pub struct FleetMetrics {
    /// `(route, status)` → front-door responses.
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// worker → respawns performed by the supervisor.
    restarts: Mutex<BTreeMap<usize, u64>>,
    /// worker → (routable now, pid).
    workers: Mutex<BTreeMap<usize, (bool, u32)>>,
    /// model → requests answered by a non-first replica after a
    /// transport failure on an earlier one.
    failovers: Mutex<BTreeMap<String, u64>>,
    /// Individual forward attempts that failed at the transport level.
    forward_retries: AtomicU64,
    /// reload outcome (`ok`/`rejected`/`failed`) → count.
    reloads: Mutex<BTreeMap<&'static str, u64>>,
    /// Models currently paused for a blue/green cutover.
    paused: AtomicU64,
}

impl FleetMetrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one front-door response.
    pub fn record_request(&self, route: &str, status: u16) {
        *self.requests.lock().unwrap().entry((route.to_string(), status)).or_insert(0) += 1;
    }

    /// Count one supervisor respawn of `worker`.
    pub fn record_restart(&self, worker: usize) {
        *self.restarts.lock().unwrap().entry(worker).or_insert(0) += 1;
    }

    /// Respawns of `worker` so far.
    pub fn restarts(&self, worker: usize) -> u64 {
        self.restarts.lock().unwrap().get(&worker).copied().unwrap_or(0)
    }

    /// Publish `worker`'s routability and pid.
    pub fn set_worker(&self, worker: usize, up: bool, pid: u32) {
        self.workers.lock().unwrap().insert(worker, (up, pid));
    }

    /// Count one request that succeeded on a fallback replica.
    pub fn record_failover(&self, model: &str) {
        *self.failovers.lock().unwrap().entry(model.to_string()).or_insert(0) += 1;
    }

    /// Count one failed forward attempt (transport-level).
    pub fn record_forward_retry(&self) {
        self.forward_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `/v1/reload` outcome.
    pub fn record_reload(&self, outcome: &'static str) {
        *self.reloads.lock().unwrap().entry(outcome).or_insert(0) += 1;
    }

    /// Publish how many models are paused for cutover right now.
    pub fn set_paused(&self, n: u64) {
        self.paused.store(n, Ordering::Relaxed);
    }

    /// Render the Prometheus exposition.
    pub fn render(&self) -> String {
        let mut out = Exposition::default();

        out.family(
            "fairlens_fleet_requests_total",
            "counter",
            "Front-door responses by route and status.",
        );
        for ((route, status), n) in self.requests.lock().unwrap().iter() {
            out.sample("fairlens_fleet_requests_total", &[("route", route), ("status", status)], n);
        }

        out.family(
            "fairlens_worker_up",
            "gauge",
            "Whether the worker shard is routable (announced and probing healthy).",
        );
        let workers = self.workers.lock().unwrap();
        for (w, (up, _)) in workers.iter() {
            out.sample("fairlens_worker_up", &[("worker", w)], u8::from(*up));
        }
        out.family("fairlens_worker_pid", "gauge", "The worker shard's OS process id.");
        for (w, (_, pid)) in workers.iter() {
            out.sample("fairlens_worker_pid", &[("worker", w)], pid);
        }
        drop(workers);

        out.family(
            "fairlens_worker_restarts_total",
            "counter",
            "Supervisor respawns of the worker shard.",
        );
        for (w, n) in self.restarts.lock().unwrap().iter() {
            out.sample("fairlens_worker_restarts_total", &[("worker", w)], n);
        }

        out.family(
            "fairlens_fleet_failovers_total",
            "counter",
            "Requests answered by a fallback replica after a transport failure.",
        );
        for (model, n) in self.failovers.lock().unwrap().iter() {
            out.sample("fairlens_fleet_failovers_total", &[("model", model)], n);
        }

        out.family(
            "fairlens_fleet_forward_retries_total",
            "counter",
            "Forward attempts that failed at the transport level.",
        );
        out.sample(
            "fairlens_fleet_forward_retries_total",
            &[],
            self.forward_retries.load(Ordering::Relaxed),
        );

        out.family(
            "fairlens_fleet_reloads_total",
            "counter",
            "Blue/green reload attempts by outcome.",
        );
        for (outcome, n) in self.reloads.lock().unwrap().iter() {
            out.sample("fairlens_fleet_reloads_total", &[("outcome", outcome)], n);
        }

        out.family(
            "fairlens_fleet_paused_models",
            "gauge",
            "Models currently paused for a blue/green cutover.",
        );
        out.sample("fairlens_fleet_paused_models", &[], self.paused.load(Ordering::Relaxed));

        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_supplied_model_ids_cannot_forge_lines() {
        let m = FleetMetrics::new();
        m.record_failover("a\"b\nc");
        let text = m.render();
        assert!(
            text.contains("fairlens_fleet_failovers_total{model=\"a\\\"b\\nc\"} 1\n"),
            "{text}"
        );
        assert_eq!(text.lines().filter(|l| l.contains("model=")).count(), 1, "{text}");
    }

    #[test]
    fn renders_all_families_deterministically() {
        // Captured from the hand-written renderer this writer replaced.
        let m = FleetMetrics::new();
        m.record_request("/v1/predict", 200);
        m.record_request("/v1/predict", 200);
        m.record_request("/v1/predict", 503);
        m.record_request("/healthz", 200);
        m.record_restart(1);
        m.set_worker(0, true, 100);
        m.set_worker(1, false, 101);
        m.record_failover("german-lr");
        m.record_forward_retry();
        m.record_reload("ok");
        m.record_reload("rejected");
        m.set_paused(1);
        assert_eq!(m.render(), include_str!("../testdata/metrics.golden.prom"));
        assert_eq!(m.render(), m.render(), "render order is deterministic");
    }
}
