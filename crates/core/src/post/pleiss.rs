//! Pleiss^EOP — calibration-preserving equal opportunity (Pleiss et al.,
//! *On fairness and calibration*; paper A.3.3).
//!
//! For a calibrated base classifier, exactly equalizing odds destroys
//! calibration; Pleiss et al. instead equalize a *single* cost — the paper's
//! evaluated version uses equal opportunity (equal TPR) — by information
//! withholding: for a random `α` fraction of tuples in the *favoured* group
//! (the one with higher TPR), the classifier's prediction is replaced by a
//! base-rate draw `Ỹ ~ Bern(μ)`, where `μ` is the group's positive base
//! rate. This keeps the group calibrated while lowering its TPR onto the
//! other group's:
//!
//! ```text
//! TPR̃_fav = (1 − α)·TPR_fav + α·μ_fav  =  TPR_unfav
//!   ⇒ α = (TPR_fav − TPR_unfav) / (TPR_fav − μ_fav)
//! ```
//!
//! The approach trades individual fairness for group fairness by design
//! (random tuples are penalised) — which is exactly why it scores poorly on
//! the CD metric in the paper's evaluation.

use rand::rngs::StdRng;
use rand::Rng;

use crate::error::CoreError;
use crate::pipeline::Postprocessor;
use crate::snapshot::Adjuster;

/// Which single cost the withholding equalises (Pleiss et al. support
/// either, or a weighted combination; the paper evaluates equal
/// opportunity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PleissTarget {
    /// Equalise TPR across groups (the paper's evaluated version).
    #[default]
    EqualOpportunity,
    /// Equalise FPR across groups.
    PredictiveEquality,
}

/// The Pleiss et al. calibration-preserving post-processor.
#[derive(Debug, Clone, Default)]
pub struct Pleiss {
    /// The equalised cost.
    pub target: PleissTarget,
}

impl Pleiss {
    /// The predictive-equality (FPR) variant.
    pub fn predictive_equality() -> Self {
        Self { target: PleissTarget::PredictiveEquality }
    }
}

/// The fitted withholding rule.
#[derive(Debug, Clone, PartialEq)]
pub struct PleissRule {
    /// The group whose predictions are withheld (the higher-TPR one).
    pub favoured: u8,
    /// Withholding probability `α ∈ [0, 1]`.
    pub alpha: f64,
    /// The favoured group's base rate `μ` used for withheld draws.
    pub mu: f64,
}

impl PleissRule {
    /// Withhold a random `α` fraction of the favoured group's predictions,
    /// replacing each with a `Bern(μ)` draw.
    pub fn adjust(&self, probs: &[f64], sensitive: &[u8], rng: &mut StdRng) -> Vec<u8> {
        probs
            .iter()
            .zip(sensitive.iter())
            .map(|(&p, &s)| {
                if s == self.favoured && rng.gen::<f64>() < self.alpha {
                    u8::from(rng.gen::<f64>() < self.mu)
                } else {
                    u8::from(p >= 0.5)
                }
            })
            .collect()
    }

    /// `Pr(Ỹ = 1)` per row.
    pub fn scores(&self, probs: &[f64], sensitive: &[u8]) -> Vec<f64> {
        // Favoured tuples mix the thresholded prediction with a base-rate
        // draw: Pr(Ỹ = 1) = (1 − α)·1[p ≥ 0.5] + α·μ.
        probs
            .iter()
            .zip(sensitive.iter())
            .map(|(&p, &s)| {
                let hard = f64::from(u8::from(p >= 0.5));
                if s == self.favoured {
                    (1.0 - self.alpha) * hard + self.alpha * self.mu
                } else {
                    hard
                }
            })
            .collect()
    }
}

impl Postprocessor for Pleiss {
    fn fit(
        &self,
        probs: &[f64],
        y: &[u8],
        sensitive: &[u8],
        _rng: &mut StdRng,
    ) -> Result<Adjuster, CoreError> {
        // Group rates of the base classifier and group base rates. For
        // equal opportunity the cost is the TPR (favoured = higher TPR);
        // for predictive equality it is the FPR (favoured = lower FPR).
        let mut hit = [0.0f64; 2]; // TP or FP depending on the target
        let mut cond = [0.0f64; 2]; // #(Y = 1) or #(Y = 0)
        let mut pos = [0.0f64; 2];
        let mut tot = [0.0f64; 2];
        let relevant_y = match self.target {
            PleissTarget::EqualOpportunity => 1u8,
            PleissTarget::PredictiveEquality => 0u8,
        };
        for i in 0..probs.len() {
            let s = sensitive[i] as usize;
            tot[s] += 1.0;
            if y[i] == 1 {
                pos[s] += 1.0;
            }
            if y[i] == relevant_y {
                cond[s] += 1.0;
                hit[s] += f64::from(probs[i] >= 0.5);
            }
        }
        if cond[0] == 0.0 || cond[1] == 0.0 {
            return Err(CoreError::BadInput(
                "Pleiss needs the conditioning class in both groups".into(),
            ));
        }
        let rate = [hit[0] / cond[0], hit[1] / cond[1]];
        // favoured group: higher TPR, or lower FPR
        let favoured = match self.target {
            PleissTarget::EqualOpportunity => u8::from(rate[1] > rate[0]),
            PleissTarget::PredictiveEquality => u8::from(rate[1] < rate[0]),
        };
        let unfav = 1 - favoured;
        let mu = pos[favoured as usize] / tot[favoured as usize];

        // withholding pulls the favoured group's rate towards μ; solve for α
        let gap = rate[favoured as usize] - rate[unfav as usize];
        let denom = rate[favoured as usize] - mu;
        let alpha = if gap.abs() <= 1e-12 || denom.abs() <= 1e-9 || (gap / denom) < 0.0 {
            0.0
        } else {
            (gap / denom).clamp(0.0, 1.0)
        };

        Ok(Adjuster::Pleiss(PleissRule { favoured, alpha, mu }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_metrics::tpr_balance;
    use rand::SeedableRng;

    /// Calibrated probabilities with a large TPR gap.
    fn tpr_gap_data(n: usize) -> (Vec<f64>, Vec<u8>, Vec<u8>) {
        let mut probs = Vec::new();
        let mut y = Vec::new();
        let mut s = Vec::new();
        let mut state = 17u64;
        let mut unif = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..n {
            let si = u8::from(unif() < 0.5);
            let yi = u8::from(unif() < 0.5);
            // privileged positives confidently detected; unprivileged barely
            let p = match (si, yi) {
                (1, 1) => 0.9,
                (0, 1) => {
                    if unif() < 0.4 {
                        0.7
                    } else {
                        0.3 // missed positives → low TPR
                    }
                }
                _ => 0.15,
            };
            probs.push(p);
            y.push(yi);
            s.push(si);
        }
        (probs, y, s)
    }

    #[test]
    fn withholding_equalizes_tpr() {
        let (probs, y, s) = tpr_gap_data(20_000);
        let base: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let base_gap = tpr_balance(&y, &base, &s).abs();
        assert!(base_gap > 0.3, "setup: gap {base_gap}");

        let mut rng = StdRng::seed_from_u64(1);
        let rule = Pleiss::default().fit(&probs, &y, &s, &mut rng).unwrap();
        let adjusted = rule.adjust(&probs, &s, &mut rng);
        let gap = tpr_balance(&y, &adjusted, &s).abs();
        assert!(gap < 0.1, "TPR gap {base_gap} → {gap}");
    }

    #[test]
    fn unfavoured_group_is_untouched() {
        let (probs, y, s) = tpr_gap_data(5000);
        let mut rng = StdRng::seed_from_u64(2);
        let rule = Pleiss::default().fit(&probs, &y, &s, &mut rng).unwrap();
        let adjusted = rule.adjust(&probs, &s, &mut rng);
        for i in 0..probs.len() {
            if s[i] != 1 {
                // unprivileged (unfavoured here): pure thresholding
                assert_eq!(adjusted[i], u8::from(probs[i] >= 0.5));
            }
        }
    }

    #[test]
    fn no_gap_means_no_withholding() {
        // equal TPRs → α = 0 → pass-through
        let probs = vec![0.9, 0.1, 0.9, 0.1];
        let y = vec![1, 0, 1, 0];
        let s = vec![0, 0, 1, 1];
        let mut rng = StdRng::seed_from_u64(3);
        let rule = Pleiss::default().fit(&probs, &y, &s, &mut rng).unwrap();
        let adjusted = rule.adjust(&probs, &s, &mut rng);
        assert_eq!(adjusted, vec![1, 0, 1, 0]);
    }

    #[test]
    fn predictive_equality_variant_narrows_fpr_gap() {
        // group 1 has a much higher FPR under thresholding
        let mut probs = Vec::new();
        let mut y = Vec::new();
        let mut s = Vec::new();
        let mut state = 23u64;
        let mut unif = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..20_000 {
            let si = u8::from(unif() < 0.5);
            let yi = u8::from(unif() < 0.5);
            let p = match (si, yi) {
                (1, 0) => {
                    if unif() < 0.4 {
                        0.7 // frequent false positives for group 1
                    } else {
                        0.2
                    }
                }
                (0, 0) => 0.1,
                (_, 1) => 0.85,
                _ => unreachable!(),
            };
            probs.push(p);
            y.push(yi);
            s.push(si);
        }
        let fpr = |preds: &[u8], g: u8| {
            let (fp, neg) = preds
                .iter()
                .zip(y.iter())
                .zip(s.iter())
                .filter(|&((_, &yi), &si)| si == g && yi == 0)
                .fold((0usize, 0usize), |(f, n), ((&p, _), _)| (f + p as usize, n + 1));
            fp as f64 / neg.max(1) as f64
        };
        let base: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let base_gap = (fpr(&base, 1) - fpr(&base, 0)).abs();
        assert!(base_gap > 0.2, "setup: FPR gap {base_gap}");

        let mut rng = StdRng::seed_from_u64(5);
        let rule = Pleiss::predictive_equality().fit(&probs, &y, &s, &mut rng).unwrap();
        let adjusted = rule.adjust(&probs, &s, &mut rng);
        let gap = (fpr(&adjusted, 1) - fpr(&adjusted, 0)).abs();
        assert!(gap < base_gap, "FPR gap should shrink: {base_gap} → {gap}");
    }

    #[test]
    fn randomisation_violates_individual_fairness() {
        // Two identical favoured-group tuples can receive different labels —
        // the by-design individual unfairness Pleiss et al. acknowledge.
        let rule = PleissRule { favoured: 1, alpha: 0.5, mu: 0.5 };
        let mut rng = StdRng::seed_from_u64(4);
        let probs = vec![0.9; 2000];
        let s = vec![1u8; 2000];
        let out = rule.adjust(&probs, &s, &mut rng);
        let ones = out.iter().filter(|&&v| v == 1).count();
        assert!(ones < 2000 && ones > 1000, "mixed outcomes expected: {ones}");
    }
}
