//! Per-model monitor: observation intake, feedback joins, drift.
//!
//! [`ModelMonitor`] owns one [`SlidingWindow`], a bounded pending-outcome
//! table mapping request `seq` → window ordinals, and one
//! [`DriftTracker`]. Serve holds one monitor per model behind a mutex;
//! every method takes `&mut self` plus an injected `now`, so the whole
//! subsystem is a pure function of the (observation, feedback) stream —
//! the property replay relies on exactly this.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::drift::{DriftConfig, DriftState, DriftTracker};
use crate::live::{live_metrics, LiveMetric};
use crate::window::{Observation, SlidingWindow};

/// Tuning for one model's monitor.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Sliding-window capacity in observations (rows, not requests).
    pub window: usize,
    /// Maximum request seqs the pending-outcomes table remembers; older
    /// seqs are evicted first and subsequent feedback for them is
    /// rejected as unknown.
    pub pending_cap: usize,
    /// Drift-detection knobs.
    pub drift: DriftConfig,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self { window: 256, pending_cap: 1024, drift: DriftConfig::default() }
    }
}

/// Why a feedback report was rejected. Serve maps these onto the error
/// taxonomy: unknown → 404, duplicate → 409, wrong count → 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedbackError {
    /// The seq was never issued for this model, or has been evicted from
    /// the bounded pending table.
    UnknownSeq(u64),
    /// Feedback for this seq was already accepted.
    Duplicate(u64),
    /// The report's label count does not match the request's row count.
    WrongCount {
        /// The offending seq.
        seq: u64,
        /// Rows the original request carried.
        expected: usize,
        /// Labels the report carried.
        got: usize,
    },
}

impl std::fmt::Display for FeedbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedbackError::UnknownSeq(seq) => {
                write!(f, "unknown or expired seq {seq} for this model")
            }
            FeedbackError::Duplicate(seq) => {
                write!(f, "feedback for seq {seq} was already reported")
            }
            FeedbackError::WrongCount { seq, expected, got } => write!(
                f,
                "seq {seq} carried {expected} row(s) but the report has {got} label(s)"
            ),
        }
    }
}

/// Acknowledgement for an accepted feedback report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackReceipt {
    /// The seq the labels were joined to.
    pub seq: u64,
    /// Labels actually applied — rows still resident in the window.
    pub matched: usize,
    /// Labels the request carried (== the predict call's row count).
    pub expected: usize,
}

#[derive(Debug)]
struct Pending {
    first_ordinal: u64,
    rows: usize,
    done: bool,
}

/// Read-only view of a monitor for `GET /v1/models` and the smoke tools.
#[derive(Debug, Clone)]
pub struct MonitorSnapshot {
    /// Resident observations.
    pub window_len: usize,
    /// Window capacity.
    pub window_capacity: usize,
    /// Resident observations with a joined label.
    pub labeled: usize,
    /// Observations ever pushed.
    pub pushed: u64,
    /// Seqs awaiting feedback (accepted feedback keeps its slot until
    /// eviction so duplicates stay detectable).
    pub pending: usize,
    /// The live metric suite over the current window.
    pub live: Vec<LiveMetric>,
    /// Current drift state.
    pub drift_state: DriftState,
    /// Metrics breaching at the latest evaluation, worst first.
    pub breaching: Vec<crate::drift::Breach>,
    /// The effective `(metric, threshold)` pairs being monitored.
    pub thresholds: Vec<(String, f64)>,
    /// Window evaluations performed.
    pub evaluations: u64,
    /// Seconds spent in the current drift state (`None` before the
    /// first transition).
    pub in_state_secs: Option<f64>,
}

/// All monitoring state for one served model.
#[derive(Debug)]
pub struct ModelMonitor {
    window: SlidingWindow,
    pending: BTreeMap<u64, Pending>,
    pending_cap: usize,
    next_seq: u64,
    tracker: DriftTracker,
    baseline: Vec<(String, f64)>,
    /// The live suite over the current window, recomputed once per window
    /// mutation.
    live: Vec<LiveMetric>,
}

impl ModelMonitor {
    /// A fresh monitor with `baseline` as the training-time metrics from
    /// the model's `.flm` provenance.
    pub fn new(cfg: &MonitorConfig, baseline: Vec<(String, f64)>) -> Self {
        Self {
            window: SlidingWindow::new(cfg.window),
            pending: BTreeMap::new(),
            pending_cap: cfg.pending_cap.max(1),
            next_seq: 0,
            tracker: DriftTracker::new(&cfg.drift),
            baseline,
            live: Vec::new(),
        }
    }

    /// The training-time baseline metrics drift is judged against.
    pub fn baseline(&self) -> &[(String, f64)] {
        &self.baseline
    }

    /// Current drift state.
    pub fn drift_state(&self) -> DriftState {
        self.tracker.state()
    }

    /// The live metric suite over the current window.
    pub fn live(&self) -> &[LiveMetric] {
        &self.live
    }

    /// Record one scored predict call (singular or batch — one entry per
    /// row, all under a single seq). Returns the assigned seq and, if
    /// this intake changed the drift state, the transition.
    ///
    /// Panics if the slices disagree in length (serve derives all three
    /// from the same response).
    pub fn observe(
        &mut self,
        groups: &[u8],
        preds: &[u8],
        scores: &[f64],
        now: Instant,
    ) -> (u64, Option<(DriftState, DriftState)>) {
        assert_eq!(groups.len(), preds.len());
        assert_eq!(groups.len(), scores.len());
        let seq = self.next_seq;
        self.next_seq += 1;
        let first_ordinal = self.window.pushed();
        for ((&group, &pred), &score) in groups.iter().zip(preds).zip(scores) {
            self.window.push(Observation { group, pred, score, label: None });
        }
        self.pending.insert(seq, Pending { first_ordinal, rows: groups.len(), done: false });
        while self.pending.len() > self.pending_cap {
            self.pending.pop_first();
        }
        (seq, self.evaluate(now))
    }

    /// Join reported true labels onto the rows of request `seq`. Labels
    /// are applied positionally (label `i` → row `i` of the original
    /// request); rows already evicted from the window are skipped and
    /// reflected in the receipt's `matched` count.
    pub fn feedback(
        &mut self,
        seq: u64,
        labels: &[u8],
        now: Instant,
    ) -> Result<(FeedbackReceipt, Option<(DriftState, DriftState)>), FeedbackError> {
        let entry = self.pending.get_mut(&seq).ok_or(FeedbackError::UnknownSeq(seq))?;
        if entry.done {
            return Err(FeedbackError::Duplicate(seq));
        }
        if labels.len() != entry.rows {
            return Err(FeedbackError::WrongCount {
                seq,
                expected: entry.rows,
                got: labels.len(),
            });
        }
        entry.done = true;
        let (first, rows) = (entry.first_ordinal, entry.rows);
        let mut matched = 0usize;
        for (i, &label) in labels.iter().enumerate() {
            if self.window.set_label(first + i as u64, label) {
                matched += 1;
            }
        }
        let receipt = FeedbackReceipt { seq, matched, expected: rows };
        Ok((receipt, self.evaluate(now)))
    }

    /// Recompute the live suite after a window mutation and re-evaluate
    /// drift. Only full windows are judged: partial windows would compare
    /// metrics over a different sample size than the baseline was computed
    /// on.
    fn evaluate(&mut self, now: Instant) -> Option<(DriftState, DriftState)> {
        self.live = live_metrics(&self.window.observations());
        if !self.window.is_full() {
            return None;
        }
        self.tracker.evaluate(&self.live, self.window.labeled(), &self.baseline, now)
    }

    /// A consistent read-only snapshot at time `now`.
    pub fn snapshot(&self, now: Instant) -> MonitorSnapshot {
        MonitorSnapshot {
            window_len: self.window.len(),
            window_capacity: self.window.capacity(),
            labeled: self.window.labeled(),
            pushed: self.window.pushed(),
            pending: self.pending.len(),
            live: self.live.clone(),
            drift_state: self.tracker.state(),
            breaching: self.tracker.breaching().to_vec(),
            thresholds: self.tracker.thresholds().to_vec(),
            evaluations: self.tracker.evaluations(),
            in_state_secs: self.tracker.in_state(now).map(|d| d.as_secs_f64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: usize, pending_cap: usize) -> MonitorConfig {
        MonitorConfig {
            window,
            pending_cap,
            drift: DriftConfig {
                thresholds: vec![("accuracy".into(), 0.2)],
                warn_after: 1,
                alert_after: 2,
                recover_after: 2,
                min_labeled: 2,
            },
        }
    }

    #[test]
    fn seqs_are_consecutive_and_batches_share_one_seq() {
        let now = Instant::now();
        let mut m = ModelMonitor::new(&cfg(8, 16), vec![]);
        let (s0, _) = m.observe(&[0], &[1], &[0.9], now);
        let (s1, _) = m.observe(&[0, 1, 1], &[1, 0, 1], &[0.8, 0.2, 0.7], now);
        assert_eq!((s0, s1), (0, 1));
        let snap = m.snapshot(now);
        assert_eq!((snap.window_len, snap.pushed, snap.pending), (4, 4, 2));
    }

    #[test]
    fn feedback_joins_labels_and_rejects_bad_reports() {
        let now = Instant::now();
        let mut m = ModelMonitor::new(&cfg(8, 16), vec![]);
        let (seq, _) = m.observe(&[0, 1], &[1, 0], &[0.9, 0.1], now);
        assert_eq!(
            m.feedback(99, &[1], now).unwrap_err(),
            FeedbackError::UnknownSeq(99)
        );
        assert_eq!(
            m.feedback(seq, &[1], now).unwrap_err(),
            FeedbackError::WrongCount { seq, expected: 2, got: 1 }
        );
        let (receipt, _) = m.feedback(seq, &[1, 0], now).unwrap();
        assert_eq!(receipt, FeedbackReceipt { seq, matched: 2, expected: 2 });
        assert_eq!(m.snapshot(now).labeled, 2);
        assert_eq!(
            m.feedback(seq, &[1, 0], now).unwrap_err(),
            FeedbackError::Duplicate(seq)
        );
    }

    #[test]
    fn late_feedback_for_evicted_rows_matches_partially() {
        let now = Instant::now();
        let mut m = ModelMonitor::new(&cfg(2, 16), vec![]);
        let (s0, _) = m.observe(&[0, 1], &[1, 0], &[0.9, 0.1], now);
        m.observe(&[1], &[1], &[0.8], now); // evicts s0's first row
        let (receipt, _) = m.feedback(s0, &[1, 0], now).unwrap();
        assert_eq!(receipt.matched, 1, "evicted row must not take a label");
        assert_eq!(m.snapshot(now).labeled, 1);
    }

    #[test]
    fn pending_table_is_bounded_and_evicted_seqs_become_unknown() {
        let now = Instant::now();
        let mut m = ModelMonitor::new(&cfg(64, 2), vec![]);
        let (s0, _) = m.observe(&[0], &[1], &[0.9], now);
        m.observe(&[1], &[0], &[0.2], now);
        m.observe(&[1], &[1], &[0.7], now); // evicts s0 from pending
        assert_eq!(m.snapshot(now).pending, 2);
        assert_eq!(
            m.feedback(s0, &[1], now).unwrap_err(),
            FeedbackError::UnknownSeq(s0)
        );
    }

    #[test]
    fn drift_fires_only_once_the_window_is_full() {
        let now = Instant::now();
        // Baseline accuracy 1.0; every prediction will be wrong.
        let mut m = ModelMonitor::new(&cfg(4, 16), vec![("accuracy".into(), 1.0)]);
        for _ in 0..3 {
            let (seq, t) = m.observe(&[0], &[1], &[0.9], now);
            assert_eq!(t, None, "partial window must not be judged");
            let (_, t) = m.feedback(seq, &[0], now).unwrap();
            assert_eq!(t, None, "still partial after the join");
        }
        // The 4th observe fills the window; the 3 already-labeled wrong
        // rows clear min_labeled and breach immediately (warn_after 1).
        let (seq, t) = m.observe(&[1], &[1], &[0.9], now);
        assert_eq!(t, Some((DriftState::Ok, DriftState::Warning)));
        // Its feedback is a second breaching evaluation → alerting.
        let (_, t) = m.feedback(seq, &[0], now).unwrap();
        assert_eq!(t, Some((DriftState::Warning, DriftState::Alerting)));
        assert_eq!(m.drift_state(), DriftState::Alerting);
        assert_eq!(m.snapshot(now).breaching[0].metric, "accuracy");
    }
}
