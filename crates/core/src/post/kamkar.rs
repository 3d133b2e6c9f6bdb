//! Kam-Kar^DP — reject-option classification (Kamiran, Karim & Zhang;
//! paper A.3.1).
//!
//! Predictions near the decision boundary carry low confidence and are the
//! most likely to be discriminatory. Within the *critical region*
//! `max(p, 1−p) < θ` the adjuster overrides the classifier: unprivileged
//! tuples receive the favourable label, privileged tuples the unfavourable
//! one. Outside the region predictions pass through. The width `θ` is tuned
//! on the training predictions to best achieve demographic parity.

use rand::rngs::StdRng;

use crate::error::CoreError;
use crate::pipeline::Postprocessor;
use crate::snapshot::Adjuster;

/// The reject-option post-processor.
#[derive(Debug, Clone)]
pub struct KamKar {
    /// Candidate θ grid upper bound (θ ∈ (0.5, θ_max]).
    pub theta_max: f64,
    /// Grid resolution.
    pub grid: usize,
}

impl Default for KamKar {
    fn default() -> Self {
        Self { theta_max: 0.95, grid: 40 }
    }
}

/// The fitted reject-option rule.
#[derive(Debug, Clone, PartialEq)]
pub struct KamKarRule {
    /// Critical-region confidence threshold.
    pub theta: f64,
}

impl KamKarRule {
    /// Override low-confidence predictions by group. The rule is
    /// deterministic.
    pub fn adjust(&self, probs: &[f64], sensitive: &[u8]) -> Vec<u8> {
        probs
            .iter()
            .zip(sensitive.iter())
            .map(|(&p, &s)| {
                let confidence = p.max(1.0 - p);
                if confidence < self.theta {
                    // Reject the low-confidence prediction: favour the
                    // unprivileged group, disfavour the privileged one.
                    1 - s
                } else {
                    u8::from(p >= 0.5)
                }
            })
            .collect()
    }

    /// The adjusted labels as 0/1 scores: the rule is deterministic.
    pub fn scores(&self, probs: &[f64], sensitive: &[u8]) -> Vec<f64> {
        self.adjust(probs, sensitive).into_iter().map(f64::from).collect()
    }
}

impl Postprocessor for KamKar {
    fn fit(
        &self,
        probs: &[f64],
        _y: &[u8],
        sensitive: &[u8],
        _rng: &mut StdRng,
    ) -> Result<Adjuster, CoreError> {
        if probs.is_empty() {
            return Err(CoreError::BadInput("no training predictions".into()));
        }
        // Tune θ for demographic parity on the training predictions.
        let mut best = (0.5_f64, f64::INFINITY); // (θ, |DI − 1| distance)
        for k in 0..=self.grid {
            let theta = 0.5 + (self.theta_max - 0.5) * k as f64 / self.grid as f64;
            let rule = KamKarRule { theta };
            let preds = rule.adjust(probs, sensitive);
            let di = fairlens_metrics::disparate_impact(&preds, sensitive);
            let dist = if di.is_infinite() { f64::INFINITY } else { (di - 1.0).abs() };
            // prefer smaller θ on ties: less distortion
            if dist < best.1 - 1e-9 {
                best = (theta, dist);
            }
        }
        Ok(Adjuster::KamKar(KamKarRule { theta: best.0 }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Probabilities where the privileged group clusters high and the
    /// unprivileged low → strong disparate impact at the 0.5 threshold.
    fn biased_probs(n: usize) -> (Vec<f64>, Vec<u8>) {
        let mut probs = Vec::new();
        let mut s = Vec::new();
        for i in 0..n {
            let si = (i % 2) as u8;
            let u = (i as f64 / n as f64 + 0.01).min(0.99);
            // privileged probabilities shifted upward
            let p = if si == 1 { 0.35 + 0.6 * u } else { 0.05 + 0.6 * u };
            probs.push(p.clamp(0.01, 0.99));
            s.push(si);
        }
        (probs, s)
    }

    #[test]
    fn tuned_theta_improves_di() {
        let (probs, s) = biased_probs(2000);
        let mut rng = StdRng::seed_from_u64(1);
        let base: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let base_di = fairlens_metrics::di_star(&base, &s);

        let rule = KamKar::default().fit(&probs, &vec![0; 2000], &s, &mut rng).unwrap();
        let adjusted = rule.adjust(&probs, &s, &mut rng);
        let di = fairlens_metrics::di_star(&adjusted, &s);
        assert!(di > base_di, "DI* should improve: {base_di} → {di}");
        assert!(di > 0.9, "DI* after reject option: {di}");
    }

    #[test]
    fn high_confidence_predictions_untouched() {
        let rule = KamKarRule { theta: 0.7 };
        let probs = [0.95, 0.05, 0.8, 0.2];
        let s = [0, 0, 1, 1];
        assert_eq!(rule.adjust(&probs, &s), vec![1, 0, 1, 0]);
    }

    #[test]
    fn critical_region_overrides_by_group() {
        let rule = KamKarRule { theta: 0.9 };
        // all four predictions are low-confidence
        let probs = [0.6, 0.4, 0.6, 0.4];
        let s = [0, 0, 1, 1];
        // unprivileged → 1, privileged → 0
        assert_eq!(rule.adjust(&probs, &s), vec![1, 1, 0, 0]);
    }

    #[test]
    fn fair_probs_need_no_region() {
        // already-fair probabilities → θ stays minimal → predictions equal
        // plain thresholding
        let probs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 0.9 } else { 0.1 }).collect();
        let s: Vec<u8> = (0..100).map(|i| ((i / 2) % 2) as u8).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let rule = KamKar::default().fit(&probs, &[0; 100], &s, &mut rng).unwrap();
        let adjusted = rule.adjust(&probs, &s, &mut rng);
        let plain: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
        assert_eq!(adjusted, plain);
    }
}
