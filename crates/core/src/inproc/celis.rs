//! Celis^PP — the meta-algorithm with fairness constraints (Celis et al.;
//! paper A.2), instantiated for *predictive parity* (false-discovery-rate
//! parity), the variant the paper evaluates:
//!
//! ```text
//! Pr(Y = 0 | Ŷ = 1, S = 0)  ≈  Pr(Y = 0 | Ŷ = 1, S = 1)
//! ```
//!
//! expressed as the ratio constraint `min_s q_s(f) / max_s q_s(f) ≥ τ`
//! with `q_s` the group performance and τ = 0.8 (the source-code default
//! the paper adopts). Celis et al. solve the constrained ERM through its
//! Lagrangian dual; the dual variables act as group-dependent
//! mis-classification costs. This implementation searches that dual space
//! directly: a grid over per-group false-positive cost multipliers, each
//! inducing a cost-sensitive logistic regression, keeping the most accurate
//! model that satisfies the τ constraint.

use fairlens_frame::{Dataset, Encoder};
use fairlens_model::{LogisticOptions, LogisticRegression};
use rand::rngs::StdRng;

use crate::error::CoreError;
use crate::pipeline::InProcessor;
use crate::snapshot::FittedModel;

/// The Celis et al. meta-algorithm (predictive-parity instance).
#[derive(Debug, Clone)]
pub struct Celis {
    /// Fairness tolerance τ ∈ [0, 1] (1 = exact parity). Paper: 0.8.
    pub tau: f64,
    /// Grid of dual multipliers tried per group.
    pub multipliers: Vec<f64>,
}

impl Default for Celis {
    fn default() -> Self {
        Self {
            tau: 0.8,
            multipliers: vec![0.0, 0.4, 0.8, 1.5, 2.5, 4.0],
        }
    }
}

/// Group FDRs `(fdr₀, fdr₁)`; `None` for a group with no positive
/// predictions.
fn group_fdrs(y: &[u8], preds: &[u8], s: &[u8]) -> [Option<f64>; 2] {
    let mut fp = [0usize; 2];
    let mut pp = [0usize; 2];
    for i in 0..y.len() {
        if preds[i] == 1 {
            let g = s[i] as usize;
            pp[g] += 1;
            if y[i] == 0 {
                fp[g] += 1;
            }
        }
    }
    [0, 1].map(|g| (pp[g] > 0).then(|| fp[g] as f64 / pp[g] as f64))
}

/// The constraint ratio `min_s q_s / max_s q_s` with `q_s = 1 − FDR_s`
/// (precision — using the complement keeps the ratio in `[0, 1]` with 1 =
/// parity).
fn parity_ratio(y: &[u8], preds: &[u8], s: &[u8]) -> f64 {
    match group_fdrs(y, preds, s) {
        [Some(f0), Some(f1)] => {
            let q0 = 1.0 - f0;
            let q1 = 1.0 - f1;
            if q0.max(q1) <= 0.0 {
                1.0
            } else {
                q0.min(q1) / q0.max(q1)
            }
        }
        // A group with no positive predictions: treat as non-comparable —
        // maximally constrained.
        _ => 0.0,
    }
}

impl InProcessor for Celis {
    fn train(&self, train: &Dataset, _rng: &mut StdRng) -> Result<FittedModel, CoreError> {
        let encoder = Encoder::fit(train, true);
        let x = encoder.transform(train).matrix;
        let y = train.labels();
        let s = train.sensitive();

        let mut best_feasible: Option<(f64, LogisticRegression)> = None; // (acc, model)
        let mut best_any: Option<(f64, LogisticRegression)> = None; // (ratio, model)

        for &l0 in &self.multipliers {
            for &l1 in &self.multipliers {
                // Dual-induced costs: negatives of group g weigh 1 + λ_g,
                // raising the cost of false positives in that group.
                let weights: Vec<f64> = y
                    .iter()
                    .zip(s.iter())
                    .map(|(&yi, &si)| {
                        if yi == 0 {
                            1.0 + if si == 0 { l0 } else { l1 }
                        } else {
                            1.0
                        }
                    })
                    .collect();
                let Ok(model) = LogisticRegression::fit_weighted(
                    &x,
                    y,
                    Some(&weights),
                    &LogisticOptions::default(),
                ) else {
                    continue;
                };
                let preds = model.predict(&x);
                let acc = preds.iter().zip(y.iter()).filter(|&(p, t)| p == t).count() as f64
                    / y.len() as f64;
                let ratio = parity_ratio(y, &preds, s);

                if ratio >= self.tau && best_feasible.as_ref().is_none_or(|(a, _)| acc > *a) {
                    best_feasible = Some((acc, model.clone()));
                }
                if best_any.as_ref().is_none_or(|(r, _)| ratio > *r) {
                    best_any = Some((ratio, model));
                }
            }
        }

        let model = best_feasible
            .map(|(_, m)| m)
            .or(best_any.map(|(_, m)| m))
            .ok_or_else(|| CoreError::Infeasible("no Celis candidate trained".into()))?;
        Ok(FittedModel::linear(encoder, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_linalg::vector;
    use rand::{Rng, SeedableRng};

    /// Group-dependent noise → group-dependent FDR for a naive model.
    fn fdr_biased(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let si = u8::from(rng.gen::<f64>() < 0.5);
            let a: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            // unprivileged labels are much noisier → more FPs there
            let p = if si == 0 {
                0.35 + 0.3 * vector::sigmoid(2.0 * a)
            } else {
                vector::sigmoid(3.0 * a)
            };
            x.push(a);
            s.push(si);
            y.push(u8::from(rng.gen::<f64>() < p));
        }
        Dataset::builder("fb")
            .numeric("x", x)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    #[test]
    fn constraint_ratio_improves_over_naive() {
        let d = fdr_biased(4000, 1);
        let enc = Encoder::fit(&d, true);
        let x = enc.transform(&d).matrix;
        let naive = LogisticRegression::fit(&x, d.labels(), &LogisticOptions::default()).unwrap();
        let naive_ratio = parity_ratio(d.labels(), &naive.predict(&x), d.sensitive());

        let mut rng = StdRng::seed_from_u64(2);
        let m = Celis::default().train(&d, &mut rng).unwrap();
        let ratio = parity_ratio(d.labels(), &m.predict(&d), d.sensitive());
        assert!(
            ratio >= naive_ratio - 1e-9,
            "parity ratio should improve: {naive_ratio} → {ratio}"
        );
        assert!(ratio >= 0.7, "final ratio {ratio}");
    }

    #[test]
    fn fair_data_keeps_full_accuracy() {
        // Clean separable data: λ = 0 should win, matching plain LR (the
        // paper's Appendix B note that fairness constraints sometimes cost
        // nothing).
        let n = 1000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) * 2.0 - 1.0).collect();
        let y: Vec<u8> = x.iter().map(|&v| u8::from(v > 0.0)).collect();
        let s: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let d = Dataset::builder("clean")
            .numeric("x", x)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let m = Celis::default().train(&d, &mut rng).unwrap();
        let preds = m.predict(&d);
        let acc =
            preds.iter().zip(d.labels()).filter(|&(p, t)| p == t).count() as f64 / n as f64;
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn group_fdrs_computed_correctly() {
        let y = [1, 0, 1, 0, 1, 0];
        let p = [1, 1, 1, 0, 1, 1];
        let s = [0, 0, 0, 1, 1, 1];
        let [f0, f1] = group_fdrs(&y, &p, &s);
        // group 0: predictions 1,1,1 → FP=1 of 3
        assert!((f0.unwrap() - 1.0 / 3.0).abs() < 1e-12);
        // group 1: predictions 1,1 → FP=1 of 2
        assert!((f1.unwrap() - 0.5).abs() < 1e-12);
    }
}
