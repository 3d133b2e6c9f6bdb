//! Zha-Le^EO — adversarial debiasing (Zhang, Lemoine & Mitchell; paper
//! A.2).
//!
//! A logistic classifier `f(X) → Ŷ` and a logistic adversary
//! `a(Ŷ, Y) → Ŝ` are trained together. For equalized odds the adversary
//! sees both the predicted probability and the true label (features
//! `[p, p·y, y]`), so any group information in the *error profile* is
//! exploitable. The classifier's update follows Zhang et al.'s rule:
//!
//! ```text
//! ∇_w L_f  −  proj_{∇_w L_a}(∇_w L_f)  −  α · ∇_w L_a
//! ```
//!
//! where `∇_w L_a` is the adversary loss's gradient *through* the
//! classifier parameters (chain rule through `p = σ(w·x)`), the projection
//! removes the component of the accuracy gradient that helps the adversary,
//! and the `α` term actively hurts it. Both players step with Adam.

use fairlens_frame::{Dataset, Encoder};
use fairlens_linalg::{vector, Matrix};
use fairlens_model::LogisticRegression;
use fairlens_optim::adam::{AdamOptions, AdamState};
use rand::rngs::StdRng;

use crate::error::CoreError;
use crate::pipeline::InProcessor;
use crate::snapshot::FittedModel;

/// Which notion the adversary enforces (Zhang et al. support all three;
/// the paper evaluates equalized odds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZhaLeNotion {
    /// Adversary sees `[p, p·y, y]` — any group signal in the error profile
    /// is exploitable.
    EqualizedOdds,
    /// Adversary sees `[p]` only — any group signal in the prediction
    /// itself is exploitable.
    DemographicParity,
}

/// The adversarial-debiasing trainer.
#[derive(Debug, Clone)]
pub struct ZhaLe {
    /// Enforced notion.
    pub notion: ZhaLeNotion,
    /// Adversary strength `α`.
    pub alpha: f64,
    /// Joint training epochs (full-batch steps).
    pub epochs: usize,
    /// Classifier/adversary learning rate.
    pub lr: f64,
}

impl Default for ZhaLe {
    fn default() -> Self {
        Self { notion: ZhaLeNotion::EqualizedOdds, alpha: 0.6, epochs: 600, lr: 0.03 }
    }
}

impl ZhaLe {
    /// The demographic-parity variant (adversary blind to `Y`). The scalar
    /// adversary needs a stronger `α` than the equalized-odds variant to
    /// move the classifier.
    pub fn demographic_parity() -> Self {
        Self { notion: ZhaLeNotion::DemographicParity, alpha: 1.5, ..Default::default() }
    }
}

/// Adversary features: `[p, p·y, y]` for equalized odds, `[p, 0, 0]` for
/// demographic parity (the zeroed coordinates keep the parameter layout
/// uniform).
#[inline]
fn adv_features(notion: ZhaLeNotion, p: f64, y: f64) -> [f64; 3] {
    match notion {
        ZhaLeNotion::EqualizedOdds => [p, p * y, y],
        ZhaLeNotion::DemographicParity => [p, 0.0, 0.0],
    }
}

impl InProcessor for ZhaLe {
    fn train(&self, train: &Dataset, _rng: &mut StdRng) -> Result<FittedModel, CoreError> {
        // The classifier sees only X: withholding S removes the direct
        // discrimination channel, so the adversary only has the error
        // profile to attack (and the trained model is individually fair by
        // construction, i.e. CD = 0 — consistent with the paper's finding
        // that in-processing approaches score best on CD).
        let encoder = Encoder::fit(train, false);
        let x: Matrix = encoder.transform(train).matrix;
        let n = x.rows();
        let d = x.cols();
        let y: Vec<f64> = train.labels().iter().map(|&v| v as f64).collect();
        let s: Vec<f64> = train.sensitive().iter().map(|&v| v as f64).collect();

        // classifier params [w; b], adversary params [u0 u1 u2; c]
        let mut w = vec![0.0f64; d + 1];
        let mut u = vec![0.0f64; 4];
        let mut w_adam = AdamState::new(d + 1, AdamOptions { lr: self.lr, ..Default::default() });
        // The adversary learns faster than the classifier (Zhang et al.
        // train it to near-convergence between classifier updates).
        let mut u_adam = AdamState::new(4, AdamOptions { lr: 3.0 * self.lr, ..Default::default() });

        for epoch in 0..self.epochs {
            // α decays as 1/√t, the schedule Zhang et al. recommend for
            // convergence of the simultaneous-gradient dynamics.
            let alpha_t = self.alpha / (1.0 + epoch as f64 / 50.0).sqrt();
            // Forward pass.
            let mut p = vec![0.0f64; n];
            for (i, pi) in p.iter_mut().enumerate() {
                *pi = vector::sigmoid(vector::dot(x.row(i), &w[..d]) + w[d]);
            }

            // --- adversary step: minimise BCE(σ(a), s) ------------------
            let mut grad_u = vec![0.0f64; 4];
            let mut dl_da = vec![0.0f64; n];
            for i in 0..n {
                let f = adv_features(self.notion, p[i], y[i]);
                let a = u[0] * f[0] + u[1] * f[1] + u[2] * f[2] + u[3];
                let q = vector::sigmoid(a);
                let r = (q - s[i]) / n as f64;
                dl_da[i] = r;
                grad_u[0] += r * f[0];
                grad_u[1] += r * f[1];
                grad_u[2] += r * f[2];
                grad_u[3] += r;
            }
            u_adam.step(&mut u, &grad_u);

            // --- classifier step ---------------------------------------
            // ∇_w L_f (accuracy gradient)
            let mut g_f = vec![0.0f64; d + 1];
            // ∇_w L_a (adversary gradient through p)
            let mut g_a = vec![0.0f64; d + 1];
            for i in 0..n {
                let row = x.row(i);
                let rf = (p[i] - y[i]) / n as f64;
                vector::axpy(rf, row, &mut g_f[..d]);
                g_f[d] += rf;

                // dL_a/dz_i = dL_a/da · da/dp · dp/dz
                let da_dp = match self.notion {
                    ZhaLeNotion::EqualizedOdds => u[0] + u[1] * y[i],
                    ZhaLeNotion::DemographicParity => u[0],
                };
                let ra = dl_da[i] * da_dp * p[i] * (1.0 - p[i]);
                vector::axpy(ra, row, &mut g_a[..d]);
                g_a[d] += ra;
            }
            // projection: g_f − (g_f·ĝ_a) ĝ_a − α g_a
            let ga_norm = vector::norm2(&g_a);
            let mut step = g_f.clone();
            if ga_norm > 1e-12 {
                let unit: Vec<f64> = g_a.iter().map(|v| v / ga_norm).collect();
                let proj = vector::dot(&step, &unit);
                vector::axpy(-proj, &unit, &mut step);
            }
            vector::axpy(-alpha_t, &g_a, &mut step);
            w_adam.step(&mut w, &step);
        }

        if w.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::Infeasible("adversarial training diverged".into()));
        }
        let (weights, b) = w.split_at(d);
        Ok(FittedModel::linear(encoder, LogisticRegression::from_params(weights.to_vec(), b[0])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_metrics::{tnr_balance, tpr_balance};
    use fairlens_model::LogisticOptions;
    use rand::{Rng, SeedableRng};

    /// Data whose *error profile* differs across groups for a naive model.
    fn odds_biased(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x1 = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let si = u8::from(rng.gen::<f64>() < 0.5);
            let a: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            // group-dependent signal quality → group-dependent TPR
            let signal = if si == 1 { 2.2 * a + 0.8 } else { 0.9 * a - 0.5 };
            y.push(u8::from(rng.gen::<f64>() < vector::sigmoid(signal)));
            x1.push(a);
            s.push(si);
        }
        Dataset::builder("ob")
            .numeric("x1", x1)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    #[test]
    fn adversarial_training_reduces_odds_gap() {
        let d = odds_biased(4000, 1);
        // baseline gap
        let enc = Encoder::fit(&d, true);
        let x = enc.transform(&d).matrix;
        let base = LogisticRegression::fit(&x, d.labels(), &LogisticOptions::default()).unwrap();
        let bp = base.predict(&x);
        let base_gap = tpr_balance(d.labels(), &bp, d.sensitive()).abs()
            + tnr_balance(d.labels(), &bp, d.sensitive()).abs();

        let mut rng = StdRng::seed_from_u64(2);
        let m = ZhaLe::default().train(&d, &mut rng).unwrap();
        let mp = m.predict(&d);
        let gap = tpr_balance(d.labels(), &mp, d.sensitive()).abs()
            + tnr_balance(d.labels(), &mp, d.sensitive()).abs();
        assert!(
            gap < base_gap,
            "equalized-odds gap should shrink: {base_gap} → {gap}"
        );
    }

    #[test]
    fn accuracy_stays_reasonable() {
        let d = odds_biased(4000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let m = ZhaLe::default().train(&d, &mut rng).unwrap();
        let preds = m.predict(&d);
        let acc = preds
            .iter()
            .zip(d.labels())
            .filter(|&(p, t)| p == t)
            .count() as f64
            / d.n_rows() as f64;
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn dp_variant_improves_parity() {
        // A clean signal feature plus a pure group proxy: the adversary can
        // force the proxy's weight down without destroying accuracy.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 4000;
        let mut x1 = Vec::new();
        let mut x2 = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        use rand::Rng as _;
        for _ in 0..n {
            let si = u8::from(rng.gen::<f64>() < 0.5);
            let a: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let proxy = (si as f64 * 2.0 - 1.0) + 0.5 * (rng.gen::<f64>() * 2.0 - 1.0);
            y.push(u8::from(rng.gen::<f64>() < vector::sigmoid(1.5 * a + proxy)));
            x1.push(a);
            x2.push(proxy);
            s.push(si);
        }
        let d = Dataset::builder("dp")
            .numeric("x1", x1)
            .numeric("x2", x2)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap();
        let enc = Encoder::fit(&d, false);
        let x = enc.transform(&d).matrix;
        let base = LogisticRegression::fit(&x, d.labels(), &Default::default()).unwrap();
        let base_di = fairlens_metrics::di_star(&base.predict(&x), d.sensitive());

        let mut rng2 = StdRng::seed_from_u64(12);
        let m = ZhaLe::demographic_parity().train(&d, &mut rng2).unwrap();
        let di = fairlens_metrics::di_star(&m.predict(&d), d.sensitive());
        assert!(
            di > base_di + 0.2,
            "DP adversary should improve DI* substantially: {base_di} → {di}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let d = odds_biased(500, 5);
        let mut r1 = StdRng::seed_from_u64(6);
        let mut r2 = StdRng::seed_from_u64(6);
        let a = ZhaLe::default().train(&d, &mut r1).unwrap().predict(&d);
        let b = ZhaLe::default().train(&d, &mut r2).unwrap().predict(&d);
        assert_eq!(a, b);
    }
}
