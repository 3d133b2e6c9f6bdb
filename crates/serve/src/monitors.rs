//! The server's live fairness monitoring hub.
//!
//! One [`ModelMonitor`] per served model, created lazily at its first
//! scored request with the training-time metrics from the artifact's
//! `.flm` provenance as the drift baseline. The hub owns the clock (the
//! monitor crate never reads time itself), publishes the
//! `fairlens_live_metric` / `fairlens_drift_state` /
//! `fairlens_feedback_total` Prometheus families after every mutation,
//! and emits a trace event plus an operator log line on every drift
//! state transition.
//!
//! Everything is keyed by model id under one mutex: intake is a few
//! ring-buffer writes plus one metric pass over a bounded window, far
//! cheaper than the prediction that precedes it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fairlens_monitor::{
    Clock, DriftState, FeedbackError, FeedbackReceipt, ModelMonitor, MonitorConfig,
    MonitorSnapshot,
};

use crate::error::{ErrorKind, ServeError};
use crate::metrics::Metrics;

/// Per-model monitors plus the shared config, clock and metric registry.
pub struct MonitorHub {
    inner: Mutex<BTreeMap<String, ModelMonitor>>,
    cfg: MonitorConfig,
    metrics: Arc<Metrics>,
    clock: Arc<dyn Clock>,
}

impl MonitorHub {
    /// An empty hub; monitors appear at each model's first observation.
    pub fn new(cfg: MonitorConfig, metrics: Arc<Metrics>, clock: Arc<dyn Clock>) -> Self {
        Self { inner: Mutex::new(BTreeMap::new()), cfg, metrics, clock }
    }

    /// Record one scored predict call and return the per-model `seq` the
    /// client quotes back in `POST /v1/feedback`.
    pub fn observe(
        &self,
        model: &str,
        baseline: &[(String, f64)],
        groups: &[u8],
        preds: &[u8],
        scores: &[f64],
    ) -> u64 {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        let monitor = inner
            .entry(model.to_string())
            .or_insert_with(|| ModelMonitor::new(&self.cfg, baseline.to_vec()));
        let (seq, transition) = monitor.observe(groups, preds, scores, now);
        self.publish(model, monitor, transition);
        seq
    }

    /// Join reported true labels onto request `seq`'s rows. The caller
    /// has already resolved `model` against the registry, so an unknown
    /// model never reaches here — but a known model with no monitor yet
    /// (no scored traffic) still rejects every seq as unknown.
    pub fn feedback(
        &self,
        model: &str,
        seq: u64,
        labels: &[u8],
    ) -> Result<FeedbackReceipt, ServeError> {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap();
        let result = match inner.get_mut(model) {
            None => Err(FeedbackError::UnknownSeq(seq)),
            Some(monitor) => monitor.feedback(seq, labels, now).map(|(receipt, transition)| {
                self.publish(model, monitor, transition);
                receipt
            }),
        };
        match result {
            Ok(receipt) => {
                self.metrics.record_feedback(model, "ok");
                Ok(receipt)
            }
            Err(e) => {
                let (status, kind) = match &e {
                    FeedbackError::UnknownSeq(_) => ("unknown", ErrorKind::NotFound),
                    FeedbackError::Duplicate(_) => ("duplicate", ErrorKind::Conflict),
                    FeedbackError::WrongCount { .. } => ("invalid", ErrorKind::BadRequest),
                };
                self.metrics.record_feedback(model, status);
                Err(ServeError::new(kind, format!("feedback for model {model:?}: {e}")))
            }
        }
    }

    /// A read-only snapshot for `GET /v1/models` (`None` until the model
    /// has seen scored traffic).
    pub fn snapshot(&self, model: &str) -> Option<MonitorSnapshot> {
        let now = self.clock.now();
        self.inner.lock().unwrap().get(model).map(|m| m.snapshot(now))
    }

    /// Mirror the monitor's state into the Prometheus families and
    /// announce any drift transition (trace event + operator log).
    fn publish(
        &self,
        model: &str,
        monitor: &ModelMonitor,
        transition: Option<(DriftState, DriftState)>,
    ) {
        self.metrics.set_live_metrics(model, monitor.live());
        self.metrics.set_drift_state(model, monitor.drift_state().gauge());
        if let Some((from, to)) = transition {
            let snap = monitor.snapshot(self.clock.now());
            fairlens_trace::event(match to {
                DriftState::Ok => "drift:ok",
                DriftState::Warning => "drift:warning",
                DriftState::Alerting => "drift:alerting",
            });
            let offender = snap
                .breaching
                .first()
                .map(|b| {
                    format!(
                        " (worst: {} live {:.4} vs baseline {:.4}, threshold {})",
                        b.metric, b.live, b.baseline, b.threshold
                    )
                })
                .unwrap_or_default();
            eprintln!(
                "[serve] drift for model {model:?}: {} -> {}{offender}",
                from.name(),
                to.name(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_monitor::{DriftConfig, ManualClock};

    fn hub(metrics: Arc<Metrics>) -> MonitorHub {
        let cfg = MonitorConfig {
            window: 4,
            pending_cap: 8,
            drift: DriftConfig {
                thresholds: vec![("accuracy".into(), 0.2)],
                warn_after: 1,
                alert_after: 2,
                recover_after: 2,
                min_labeled: 2,
            },
        };
        MonitorHub::new(cfg, metrics, Arc::new(ManualClock::new()))
    }

    #[test]
    fn observe_assigns_seqs_and_publishes_gauges() {
        let metrics = Arc::new(Metrics::new());
        let h = hub(metrics.clone());
        let baseline = vec![("accuracy".to_string(), 1.0)];
        assert_eq!(h.observe("m", &baseline, &[0], &[1], &[0.9]), 0);
        assert_eq!(h.observe("m", &baseline, &[1, 1], &[0, 1], &[0.2, 0.8]), 1);
        assert_eq!(h.observe("other", &baseline, &[0], &[0], &[0.1]), 0, "seqs are per-model");
        let text = metrics.render();
        assert!(text.contains("fairlens_drift_state{model=\"m\"} 0"), "{text}");
        assert!(text.contains("fairlens_live_metric{model=\"m\",metric=\"di_star\","));
        let snap = h.snapshot("m").unwrap();
        assert_eq!((snap.window_len, snap.pending), (3, 2));
        assert!(h.snapshot("absent").is_none());
    }

    #[test]
    fn feedback_maps_monitor_errors_onto_the_taxonomy() {
        let metrics = Arc::new(Metrics::new());
        let h = hub(metrics.clone());
        let baseline = vec![];
        assert_eq!(
            h.feedback("m", 0, &[1]).unwrap_err().kind,
            ErrorKind::NotFound,
            "no scored traffic yet"
        );
        let seq = h.observe("m", &baseline, &[0, 1], &[1, 0], &[0.9, 0.1]);
        assert_eq!(h.feedback("m", seq, &[1]).unwrap_err().kind, ErrorKind::BadRequest);
        let receipt = h.feedback("m", seq, &[1, 0]).unwrap();
        assert_eq!((receipt.matched, receipt.expected), (2, 2));
        assert_eq!(h.feedback("m", seq, &[1, 0]).unwrap_err().kind, ErrorKind::Conflict);
        assert_eq!(h.feedback("m", 99, &[1]).unwrap_err().kind, ErrorKind::NotFound);
        let text = metrics.render();
        assert!(text.contains("fairlens_feedback_total{model=\"m\",status=\"ok\"} 1"), "{text}");
        assert!(text.contains("fairlens_feedback_total{model=\"m\",status=\"unknown\"} 2"));
        assert!(text.contains("fairlens_feedback_total{model=\"m\",status=\"duplicate\"} 1"));
        assert!(text.contains("fairlens_feedback_total{model=\"m\",status=\"invalid\"} 1"));
    }

    #[test]
    fn skewed_feedback_drives_the_drift_gauge_to_alerting() {
        let metrics = Arc::new(Metrics::new());
        let h = hub(metrics.clone());
        let baseline = vec![("accuracy".to_string(), 1.0)];
        // Fill the window with labeled, always-wrong predictions.
        for _ in 0..6 {
            let seq = h.observe("m", &baseline, &[0], &[1], &[0.9]);
            let _ = h.feedback("m", seq, &[0]);
        }
        assert_eq!(h.snapshot("m").unwrap().drift_state, DriftState::Alerting);
        let text = metrics.render();
        assert!(text.contains("fairlens_drift_state{model=\"m\"} 2"), "{text}");
        assert!(text.contains(
            "fairlens_live_metric{model=\"m\",metric=\"accuracy\",group=\"all\"} 0"
        ));
    }
}
