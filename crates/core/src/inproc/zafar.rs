//! Zafar^DP / Zafar^EO — covariance-proxy constrained logistic regression
//! (Zafar et al.; paper A.2).
//!
//! The sensitive attribute never enters the feature set; it only shapes the
//! constraint. The fairness proxy is the empirical covariance between `S`
//! and the signed distance to the decision boundary,
//!
//! ```text
//! cov(θ) = (1/N) Σ_i (S_i − S̄) · d_θ(x_i)
//! ```
//!
//! which is linear in the parameters and hence convex. Three evaluated
//! variants:
//!
//! * [`ZafarVariant::DpFair`] — minimise logistic loss s.t. `|cov| ≤ c`
//!   (maximise accuracy under a demographic-parity constraint);
//! * [`ZafarVariant::DpAcc`] — minimise `cov²` s.t. `loss ≤ (1+γ)·L*`
//!   (maximise parity under a bounded accuracy compromise);
//! * [`ZafarVariant::EoFair`] — equalized odds via the covariance over
//!   *misclassified* tuples only; non-convex, solved by the
//!   convex–concave trick of freezing the misclassification indicator per
//!   outer round (the role DCCP plays in the original).
//!
//! The constrained solves use the workspace augmented-Lagrangian method.

use fairlens_frame::{Dataset, Encoder};
use fairlens_linalg::{vector, Matrix};
use fairlens_model::{LogisticLoss, LogisticRegression};
use fairlens_optim::{gd, minimize_augmented_lagrangian, AugLagOptions, Objective};
use rand::rngs::StdRng;

use crate::error::CoreError;
use crate::pipeline::InProcessor;
use crate::snapshot::FittedModel;

/// Which Zafar formulation to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZafarVariant {
    /// Accuracy under a demographic-parity covariance constraint.
    DpFair,
    /// Parity under an accuracy (loss) constraint.
    DpAcc,
    /// Equalized odds via misclassification covariance (convex–concave).
    EoFair,
}

/// The Zafar et al. constrained learner.
#[derive(Debug, Clone)]
pub struct Zafar {
    /// The formulation.
    pub variant: ZafarVariant,
    /// Covariance tolerance `c` for the fairness constraints.
    pub cov_tol: f64,
    /// Allowed relative loss increase `γ` for [`ZafarVariant::DpAcc`].
    pub gamma: f64,
    /// Outer convex–concave rounds for [`ZafarVariant::EoFair`].
    pub cc_rounds: usize,
    /// L2 regularisation of the logistic loss.
    pub l2: f64,
}

impl Zafar {
    /// Construct with paper-style defaults.
    pub fn new(variant: ZafarVariant) -> Self {
        Self { variant, cov_tol: 1e-3, gamma: 0.10, cc_rounds: 5, l2: 1e-3 }
    }
}

/// Signed covariance constraint `sign · cov(θ) − tol ≤ 0`, with per-tuple
/// multipliers `m` (all ones for DP; misclassification masks for EO).
///
/// The covariance is linear in `θ = [w, b]`: `cov(θ) = a·θ` with
/// `a = Σ_i coef_i·[x_i, 1]` and `coef_i = m_i (S_i − S̄) / N · sign`.
/// `a` is built once, so the value costs one `dot` and the gradient is `a`
/// itself, bit-identical to rescanning the rows. The value sums in another
/// order than a row scan `Σ_i coef_i (x_i·w + b)`; the two differ by at most
/// `1e-12 · Σ_i |coef_i| (|x_i·w| + |b|)`, pinned by a test against that
/// scan.
struct CovConstraint {
    a: Vec<f64>,
    tol: f64,
}

impl CovConstraint {
    fn new(x: &Matrix, coef: &[f64], tol: f64) -> Self {
        let d = x.cols();
        let mut a = vec![0.0; d + 1];
        for (i, &c) in coef.iter().enumerate() {
            if c != 0.0 {
                vector::axpy(c, x.row(i), &mut a[..d]);
                a[d] += c;
            }
        }
        Self { a, tol }
    }
}

impl Objective for CovConstraint {
    fn dim(&self) -> usize {
        self.a.len()
    }
    fn value(&self, params: &[f64]) -> f64 {
        vector::dot(&self.a, params) - self.tol
    }
    fn gradient(&self, _params: &[f64]) -> Vec<f64> {
        self.a.clone()
    }
}

/// The squared covariance as a minimisation objective (for DpAcc), over a
/// covariance constraint built with zero tolerance (so its value is `cov`).
struct CovSquared<C>(C);

impl<C: Objective> Objective for CovSquared<C> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn value(&self, params: &[f64]) -> f64 {
        let c = self.0.value(params);
        c * c
    }
    fn gradient(&self, params: &[f64]) -> Vec<f64> {
        let c = self.0.value(params);
        let mut g = self.0.gradient(params);
        vector::scale(2.0 * c, &mut g);
        g
    }
}

/// Loss-cap constraint `loss(θ) − cap ≤ 0`.
struct LossCap<'a> {
    loss: &'a LogisticLoss<'a>,
    cap: f64,
}

impl Objective for LossCap<'_> {
    fn dim(&self) -> usize {
        self.loss.dim()
    }
    fn value(&self, params: &[f64]) -> f64 {
        self.loss.value(params) - self.cap
    }
    fn gradient(&self, params: &[f64]) -> Vec<f64> {
        self.loss.gradient(params)
    }
}

impl Zafar {
    fn centered_sensitive(train: &Dataset) -> Vec<f64> {
        let s: Vec<f64> = train.sensitive().iter().map(|&v| v as f64).collect();
        let mean = vector::mean(&s);
        s.iter().map(|v| v - mean).collect()
    }

    fn dp_coefs(train: &Dataset, sign: f64) -> Vec<f64> {
        let n = train.n_rows() as f64;
        Self::centered_sensitive(train)
            .into_iter()
            .map(|c| sign * c / n)
            .collect()
    }

    /// Fit the parameters on the encoded `x`, building each covariance
    /// constraint as `cov(coef, tol)`.
    fn solve<C: Objective>(&self, train: &Dataset, x: &Matrix, cov: impl Fn(&[f64], f64) -> C) -> Vec<f64> {
        let y = train.labels();
        let loss = LogisticLoss::new(x, y, self.l2);
        let dim = loss.dim();

        // Warm start from the unconstrained optimum.
        let warm = gd::minimize(
            &loss,
            &vec![0.0; dim],
            &gd::GdOptions { max_iter: 300, ..Default::default() },
        );

        let al_opts = AugLagOptions {
            feas_tol: self.cov_tol.max(1e-4),
            ..Default::default()
        };

        match self.variant {
            ZafarVariant::DpFair => {
                let pos = cov(&Self::dp_coefs(train, 1.0), self.cov_tol);
                let neg = cov(&Self::dp_coefs(train, -1.0), self.cov_tol);
                minimize_augmented_lagrangian(
                    &loss,
                    &[&pos as &dyn Objective, &neg as &dyn Objective],
                    &warm.x,
                    &al_opts,
                )
                .x
            }
            ZafarVariant::DpAcc => {
                let cap = LossCap { loss: &loss, cap: (1.0 + self.gamma) * warm.value };
                let cov2 = CovSquared(cov(&Self::dp_coefs(train, 1.0), 0.0));
                minimize_augmented_lagrangian(
                    &cov2,
                    &[&cap as &dyn Objective],
                    &warm.x,
                    &al_opts,
                )
                .x
            }
            ZafarVariant::EoFair => {
                // Convex–concave: freeze the misclassification mask, solve
                // the convexified problem, refresh, repeat.
                let n = train.n_rows() as f64;
                let s_centered = Self::centered_sensitive(train);
                let mut params = warm.x.clone();
                for _ in 0..self.cc_rounds {
                    let (w, b) = params.split_at(x.cols());
                    let coef: Vec<f64> = (0..train.n_rows())
                        .map(|i| {
                            let z = vector::dot(x.row(i), w) + b[0];
                            let pred = u8::from(z >= 0.0);
                            if pred != y[i] {
                                // g_θ = −d_θ for misclassified tuples
                                -s_centered[i] / n
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    let neg_coef: Vec<f64> = coef.iter().map(|c| -c).collect();
                    let pos = cov(&coef, self.cov_tol);
                    let neg = cov(&neg_coef, self.cov_tol);
                    params = minimize_augmented_lagrangian(
                        &loss,
                        &[&pos as &dyn Objective, &neg as &dyn Objective],
                        &params,
                        &al_opts,
                    )
                    .x;
                }
                params
            }
        }
    }
}

impl InProcessor for Zafar {
    fn train(&self, train: &Dataset, _rng: &mut StdRng) -> Result<FittedModel, CoreError> {
        let encoder = Encoder::fit(train, false);
        let x = encoder.transform(train).matrix;
        let params = self.solve(train, &x, |coef, tol| CovConstraint::new(&x, coef, tol));

        if params.iter().any(|p| !p.is_finite()) {
            return Err(CoreError::Infeasible("Zafar solve produced non-finite parameters".into()));
        }
        let (w, b) = params.split_at(x.cols());
        Ok(FittedModel::linear(encoder, LogisticRegression::from_params(w.to_vec(), b[0])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_metrics::{di_star, disparate_impact, tpr_balance};
    use fairlens_optim::numeric_gradient;
    use fairlens_synth::DatasetKind;
    use fairlens_xverify::{pairs, Tolerance};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The covariance constraint as it was before `a` was materialised:
    /// every value and gradient rescans the rows. The oracle
    /// [`CovConstraint`] is held to.
    struct RowScanCov<'a> {
        x: &'a Matrix,
        coef: Vec<f64>,
        tol: f64,
    }

    impl RowScanCov<'_> {
        fn cov(&self, params: &[f64]) -> f64 {
            let (w, b) = params.split_at(self.x.cols());
            let mut acc = 0.0;
            for (i, &c) in self.coef.iter().enumerate() {
                if c != 0.0 {
                    acc += c * (vector::dot(self.x.row(i), w) + b[0]);
                }
            }
            acc
        }
    }

    impl Objective for RowScanCov<'_> {
        fn dim(&self) -> usize {
            self.x.cols() + 1
        }
        fn value(&self, params: &[f64]) -> f64 {
            self.cov(params) - self.tol
        }
        fn gradient(&self, _params: &[f64]) -> Vec<f64> {
            let d = self.x.cols();
            let mut g = vec![0.0; d + 1];
            for (i, &c) in self.coef.iter().enumerate() {
                if c != 0.0 {
                    vector::axpy(c, self.x.row(i), &mut g[..d]);
                    g[d] += c;
                }
            }
            g
        }
    }

    fn row_scan<'a>(x: &'a Matrix) -> impl Fn(&[f64], f64) -> RowScanCov<'a> {
        move |coef, tol| RowScanCov { x, coef: coef.to_vec(), tol }
    }

    fn design() -> impl Strategy<Value = (Matrix, Vec<f64>, Vec<f64>)> {
        (2usize..80, 1usize..6).prop_flat_map(|(n, d)| {
            (
                prop::collection::vec(-3.0f64..3.0, n * d),
                prop::collection::vec(-1.0f64..1.0, n),
                prop::collection::vec(-4.0f64..4.0, d + 1),
            )
                .prop_map(move |(data, coef, theta)| (Matrix::from_vec(n, d, data), coef, theta))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The materialised constraint has the row scan's gradient bits, and
        /// its value is within `1e-12 · Σ|coef_i| (|x_i·w| + |b|)`.
        #[test]
        fn materialised_cov_is_ulp_bounded_against_the_row_scan((x, mut coef, theta) in design()) {
            for c in coef.iter_mut().step_by(3) {
                *c = 0.0; // EO masks zero most rows
            }
            let fast = CovConstraint::new(&x, &coef, 0.25);
            let slow = RowScanCov { x: &x, coef: coef.clone(), tol: 0.25 };
            let (gf, gs) = (fast.gradient(&theta), slow.gradient(&theta));
            prop_assert!(gf.iter().zip(&gs).all(|(a, b)| a.to_bits() == b.to_bits()));
            let (w, b) = theta.split_at(x.cols());
            let scale: f64 = coef
                .iter()
                .enumerate()
                .map(|(i, c)| c.abs() * (vector::dot(x.row(i), w).abs() + b[0].abs()))
                .sum();
            let gap = (fast.value(&theta) - slow.value(&theta)).abs();
            prop_assert!(gap <= 1e-12 * scale, "gap {gap:e} vs scale {scale:e}");
        }
    }

    #[test]
    fn cov_gradients_match_numeric() {
        let d = biased(300, 11);
        let x = Encoder::fit(&d, false).transform(&d).matrix;
        let coef = Zafar::dp_coefs(&d, 1.0);
        let params: Vec<f64> = (0..x.cols() + 1).map(|i| 0.3 - 0.2 * i as f64).collect();
        let cons = CovConstraint::new(&x, &coef, 1e-3);
        let sq = CovSquared(CovConstraint::new(&x, &coef, 0.0));
        for obj in [&cons as &dyn Objective, &sq] {
            let ag = obj.gradient(&params);
            let ng = numeric_gradient(|p| obj.value(p), &params, 1e-6);
            for (a, n) in ag.iter().zip(&ng) {
                assert!((a - n).abs() < 1e-6 * n.abs().max(1.0), "analytic {a} vs numeric {n}");
            }
        }
    }

    /// Whole AL solves over the row-scan constraints follow the pre-fusion
    /// GD loop bit for bit: DpFair's loss with two covariance constraints,
    /// and DpAcc's squared covariance under a loss cap.
    #[test]
    fn al_solves_match_the_unfused_loop() {
        let d = biased(400, 13);
        let x = Encoder::fit(&d, false).transform(&d).matrix;
        let loss = LogisticLoss::new(&x, d.labels(), 1e-3);
        let warm = gd::minimize(&loss, &vec![0.0; loss.dim()], &gd::GdOptions { max_iter: 300, ..Default::default() });
        let opts = AugLagOptions { feas_tol: 1e-4, ..Default::default() };

        let pos = RowScanCov { x: &x, coef: Zafar::dp_coefs(&d, 1.0), tol: 1e-3 };
        let neg = RowScanCov { x: &x, coef: Zafar::dp_coefs(&d, -1.0), tol: 1e-3 };
        let r = pairs::al_fusion(&loss, &[&pos, &neg], &warm.x, &opts, Tolerance::Exact);
        assert!(r.ok() && r.checkpoints > 100, "{r}");

        let cap = LossCap { loss: &loss, cap: 1.1 * warm.value };
        let cov2 = CovSquared(RowScanCov { x: &x, coef: Zafar::dp_coefs(&d, 1.0), tol: 0.0 });
        let r = pairs::al_fusion(&cov2, &[&cap], &warm.x, &opts, Tolerance::Exact);
        assert!(r.ok() && r.checkpoints > 0, "{r}");
    }

    /// Fits with the materialised constraint stay within 1e-9 in
    /// probability of fits with the row scan, and flip no prediction, on
    /// COMPAS, Adult and German draws.
    #[test]
    fn materialised_fits_track_the_row_scan_fits() {
        for kind in [DatasetKind::Compas, DatasetKind::Adult, DatasetKind::German] {
            let train = kind.generate(600, 31);
            let test = kind.generate(400, 32);
            let encoder = Encoder::fit(&train, false);
            let x = encoder.transform(&train).matrix;
            let xt = encoder.transform(&test).matrix;
            for variant in [ZafarVariant::DpFair, ZafarVariant::DpAcc, ZafarVariant::EoFair] {
                let z = Zafar::new(variant);
                let fit = |params: Vec<f64>| {
                    let (w, b) = params.split_at(x.cols());
                    LogisticRegression::from_params(w.to_vec(), b[0])
                };
                let fast = fit(z.solve(&train, &x, |coef, tol| CovConstraint::new(&x, coef, tol)));
                let slow = fit(z.solve(&train, &x, row_scan(&x)));
                for (pf, ps) in fast.predict_proba(&xt).iter().zip(slow.predict_proba(&xt)) {
                    assert!((pf - ps).abs() <= 1e-9, "{} {variant:?}: {pf} vs {ps}", kind.name());
                }
                assert_eq!(fast.predict(&xt), slow.predict(&xt), "{} {variant:?}", kind.name());
            }
        }
    }

    /// Biased data: x predicts y, but s leaks into y strongly.
    fn biased(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x1 = Vec::new();
        let mut x2 = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let si = u8::from(rng.gen::<f64>() < 0.5);
            let a: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            // x2 correlates with s (a redlining proxy)
            let b: f64 = 0.8 * (si as f64 * 2.0 - 1.0) + 0.4 * (rng.gen::<f64>() * 2.0 - 1.0);
            let p = vector::sigmoid(1.5 * a + 1.2 * b);
            x1.push(a);
            x2.push(b);
            s.push(si);
            y.push(u8::from(rng.gen::<f64>() < p));
        }
        Dataset::builder("bz")
            .numeric("x1", x1)
            .numeric("x2", x2)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    fn unconstrained_di(d: &Dataset) -> f64 {
        let enc = Encoder::fit(d, false);
        let x = enc.transform(d).matrix;
        let m = LogisticRegression::fit(&x, d.labels(), &Default::default()).unwrap();
        disparate_impact(&m.predict(&x), d.sensitive())
    }

    #[test]
    fn dp_fair_improves_parity() {
        let d = biased(3000, 1);
        let base_di = unconstrained_di(&d);
        assert!(base_di < 0.6, "setup: baseline DI {base_di}");
        let mut rng = StdRng::seed_from_u64(2);
        let m = Zafar::new(ZafarVariant::DpFair).train(&d, &mut rng).unwrap();
        let preds = m.predict(&d);
        let di = di_star(&preds, d.sensitive());
        assert!(di > 0.8, "Zafar DP-fair DI* = {di} (baseline {base_di})");
    }

    #[test]
    fn dp_acc_bounds_the_loss() {
        let d = biased(3000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let m = Zafar::new(ZafarVariant::DpAcc).train(&d, &mut rng).unwrap();
        let preds = m.predict(&d);
        let acc = preds
            .iter()
            .zip(d.labels())
            .filter(|&(p, t)| p == t)
            .count() as f64
            / d.n_rows() as f64;
        // accuracy must stay within a sane band of the unconstrained model
        assert!(acc > 0.6, "accuracy {acc}");
        let di = di_star(&preds, d.sensitive());
        assert!(di > unconstrained_di(&d).min(1.0), "DI* should improve: {di}");
    }

    #[test]
    fn eo_fair_shrinks_tprb() {
        let d = biased(3000, 5);
        // baseline TPRB
        let enc = Encoder::fit(&d, false);
        let x = enc.transform(&d).matrix;
        let base = LogisticRegression::fit(&x, d.labels(), &Default::default()).unwrap();
        let base_tprb = tpr_balance(d.labels(), &base.predict(&x), d.sensitive()).abs();
        let mut rng = StdRng::seed_from_u64(6);
        let m = Zafar::new(ZafarVariant::EoFair).train(&d, &mut rng).unwrap();
        let tprb = tpr_balance(d.labels(), &m.predict(&d), d.sensitive()).abs();
        assert!(
            tprb < base_tprb + 0.02,
            "TPRB should not get worse: {base_tprb} → {tprb}"
        );
    }

    #[test]
    fn zafar_never_sees_sensitive_attribute() {
        // flipping S cannot change predictions → CD = 0 by construction
        let d = biased(500, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let m = Zafar::new(ZafarVariant::DpFair).train(&d, &mut rng).unwrap();
        assert_eq!(m.predict(&d), m.predict(&d.flip_sensitive()));
    }
}
