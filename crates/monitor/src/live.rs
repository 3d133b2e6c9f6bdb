//! Live metric assembly: one window of observations in, the paper's
//! group metrics out.
//!
//! Every value is computed by calling the offline `fairlens-metrics`
//! functions on vectors rebuilt from the window in oldest-first order —
//! there is no separate "online" math to drift out of agreement, so the
//! live numbers are bit-identical to an offline recomputation over the
//! same rows by construction (the property tests and the check.sh
//! monitor smoke both assert exactly that).
//!
//! Label-free metrics (disparate impact, statistical parity) cover every
//! resident observation; label-dependent metrics (accuracy suite,
//! equalized-odds gaps, calibration) cover the subset whose true label
//! has arrived via feedback. Metrics whose value is undefined on the
//! current window (an absent group, no predicted positives, no labels)
//! are *omitted* rather than reported as NaN, so the set of reported
//! metrics is itself a deterministic function of the window.

use fairlens_metrics::{
    calibration_gap, di_star, group_calibration_error, statistical_parity_difference,
    tnr_balance, tpr_balance, ConfusionMatrix,
};

use crate::window::Observation;

/// One live metric value: `fairlens_live_metric{metric,group}`.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveMetric {
    /// Stable metric name (matches the training-time provenance keys
    /// where an offline counterpart exists).
    pub metric: &'static str,
    /// `"all"` for window-wide metrics, `"0"` / `"1"` for per-group.
    pub group: &'static str,
    /// The value, never NaN (undefined metrics are omitted).
    pub value: f64,
}

/// Metric names that require joined true labels. Drift detection skips
/// these until the window holds at least `min_labeled` labeled rows.
pub const LABELED_METRICS: [&str; 9] = [
    "accuracy", "precision", "recall", "f1", "tprb_fair", "tnrb_fair", "eo_gap", "eop_gap",
    "cal_gap",
];

/// Compute the full live metric suite over one window of observations
/// (oldest first). Deterministic: same observations, same labels →
/// bit-identical values in identical order.
pub fn live_metrics(obs: &[Observation]) -> Vec<LiveMetric> {
    let mut out = Vec::new();
    let mut push = |metric: &'static str, group: &'static str, value: f64| {
        if !value.is_nan() {
            out.push(LiveMetric { metric, group, value });
        }
    };
    if obs.is_empty() {
        return out;
    }

    let groups: Vec<u8> = obs.iter().map(|o| o.group).collect();
    let preds: Vec<u8> = obs.iter().map(|o| o.pred).collect();

    // Label-free group metrics over the whole window.
    push("di_star", "all", di_star(&preds, &groups));
    push("spd", "all", statistical_parity_difference(&preds, &groups));
    for (g, name) in [(0u8, "0"), (1u8, "1")] {
        let (pos, tot) = preds
            .iter()
            .zip(&groups)
            .filter(|&(_, &s)| s == g)
            .fold((0usize, 0usize), |(p, t), (&yp, _)| (p + yp as usize, t + 1));
        if tot > 0 {
            push("pos_rate", name, pos as f64 / tot as f64);
        }
    }

    // Label-dependent metrics over the feedback-joined subset.
    let labeled: Vec<&Observation> = obs.iter().filter(|o| o.label.is_some()).collect();
    if labeled.is_empty() {
        return out;
    }
    let yt: Vec<u8> = labeled.iter().map(|o| o.label.unwrap()).collect();
    let yp: Vec<u8> = labeled.iter().map(|o| o.pred).collect();
    let gs: Vec<u8> = labeled.iter().map(|o| o.group).collect();
    let sc: Vec<f64> = labeled.iter().map(|o| o.score).collect();

    let cm = ConfusionMatrix::from_predictions(&yt, &yp);
    push("accuracy", "all", cm.accuracy());
    push("precision", "all", cm.precision());
    push("recall", "all", cm.recall());
    push("f1", "all", cm.f1());

    // The paper's normalisations: 1 − |balance| so 1 is fair, plus the
    // raw equalized-odds / equal-opportunity gaps for dashboards.
    let tprb = tpr_balance(&yt, &yp, &gs);
    let tnrb = tnr_balance(&yt, &yp, &gs);
    if !tprb.is_nan() {
        push("tprb_fair", "all", 1.0 - tprb.abs());
        push("eop_gap", "all", tprb.abs());
    }
    if !tnrb.is_nan() {
        push("tnrb_fair", "all", 1.0 - tnrb.abs());
    }
    if !tprb.is_nan() && !tnrb.is_nan() {
        push("eo_gap", "all", tprb.abs().max(tnrb.abs()));
    }

    push("cal_gap", "all", calibration_gap(&sc, &yt, &gs));
    for (g, name) in [(0u8, "0"), (1u8, "1")] {
        push("cal_err", name, group_calibration_error(&sc, &yt, &gs, g));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(group: u8, pred: u8, score: f64, label: Option<u8>) -> Observation {
        Observation { group, pred, score, label }
    }

    fn value(metrics: &[LiveMetric], metric: &str, group: &str) -> Option<f64> {
        metrics.iter().find(|m| m.metric == metric && m.group == group).map(|m| m.value)
    }

    #[test]
    fn unlabeled_window_reports_only_label_free_metrics() {
        let window = [obs(0, 1, 0.8, None), obs(1, 1, 0.9, None), obs(1, 0, 0.2, None)];
        let m = live_metrics(&window);
        assert_eq!(value(&m, "di_star", "all"), Some(0.5)); // 1.0 / 0.5 → min(2, 1/2)
        assert_eq!(value(&m, "spd", "all"), Some(0.5 - 1.0));
        assert_eq!(value(&m, "pos_rate", "0"), Some(1.0));
        assert_eq!(value(&m, "pos_rate", "1"), Some(0.5));
        assert!(value(&m, "accuracy", "all").is_none(), "no labels, no accuracy");
        assert!(m.iter().all(|lm| !LABELED_METRICS.contains(&lm.metric)));
    }

    #[test]
    fn labeled_subset_drives_the_accuracy_and_fairness_suite() {
        let window = [
            obs(0, 1, 0.8, Some(1)),
            obs(0, 0, 0.3, Some(1)), // missed positive in group 0
            obs(1, 1, 0.9, Some(1)),
            obs(1, 0, 0.1, Some(0)),
            obs(1, 1, 0.7, None), // unlabeled: excluded from labeled metrics
        ];
        let m = live_metrics(&window);
        assert_eq!(value(&m, "accuracy", "all"), Some(0.75));
        // TPR group 1 = 1/1, group 0 = 1/2 → tprb 0.5 → tprb_fair 0.5.
        assert_eq!(value(&m, "tprb_fair", "all"), Some(0.5));
        assert_eq!(value(&m, "eop_gap", "all"), Some(0.5));
        // Group 0 has no labeled negatives → tnr(0) = 0, tnr(1) = 1.
        assert_eq!(value(&m, "tnrb_fair", "all"), Some(0.0));
        assert_eq!(value(&m, "eo_gap", "all"), Some(1.0));
        // Bit-exact agreement with the offline functions on the same rows.
        let yt = [1, 1, 1, 0];
        let yp = [1, 0, 1, 0];
        let gs = [0, 0, 1, 1];
        let sc = [0.8, 0.3, 0.9, 0.1];
        let offline_accuracy = ConfusionMatrix::from_predictions(&yt, &yp).accuracy();
        assert_eq!(value(&m, "accuracy", "all"), Some(offline_accuracy));
        let offline_tprb = tpr_balance(&yt, &yp, &gs);
        assert_eq!(value(&m, "tprb_fair", "all"), Some(1.0 - offline_tprb.abs()));
        assert_eq!(value(&m, "cal_gap", "all"), Some(calibration_gap(&sc, &yt, &gs)));
        assert_eq!(
            value(&m, "cal_err", "0"),
            Some(group_calibration_error(&sc, &yt, &gs, 0))
        );
        // The full-window di_star includes the unlabeled row.
        let all_preds = [1, 0, 1, 0, 1];
        let all_groups = [0, 0, 1, 1, 1];
        assert_eq!(value(&m, "di_star", "all"), Some(di_star(&all_preds, &all_groups)));
    }

    #[test]
    fn undefined_metrics_are_omitted_not_nan() {
        // Single-group window: pos_rate for the absent group is omitted,
        // and so is every per-group-1 calibration value.
        let window = [obs(0, 1, 0.9, Some(1)), obs(0, 0, 0.2, Some(0))];
        let m = live_metrics(&window);
        assert!(value(&m, "pos_rate", "1").is_none());
        assert!(value(&m, "cal_err", "1").is_none());
        assert!(value(&m, "cal_gap", "all").is_none());
        assert!(m.iter().all(|lm| !lm.value.is_nan()));
        // Empty window: nothing at all.
        assert!(live_metrics(&[]).is_empty());
    }
}
