//! Logistic regression: IRLS (Newton) with gradient-descent fallback.

use fairlens_linalg::{decompose, vector, Matrix};
use fairlens_optim::{gd, Objective};

use crate::loss::LogisticLoss;

/// Which solver fits the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Iteratively reweighted least squares (Newton). Fast and exact for the
    /// convex logistic loss; falls back to GD if a Newton system is singular.
    Irls,
    /// Plain gradient descent with backtracking (used by tests and by
    /// callers that need a deterministic, factorisation-free path).
    GradientDescent,
}

/// Options controlling a fit.
#[derive(Debug, Clone)]
pub struct LogisticOptions {
    /// L2 (ridge) penalty on the weights (never the intercept).
    pub l2: f64,
    /// Maximum solver iterations.
    pub max_iter: usize,
    /// Convergence tolerance (ℓ∞ of the parameter update for IRLS, of the
    /// gradient for GD).
    pub tol: f64,
    /// Which solver to use.
    pub solver: Solver,
}

impl Default for LogisticOptions {
    fn default() -> Self {
        Self { l2: 1e-3, max_iter: 100, tol: 1e-8, solver: Solver::Irls }
    }
}

/// Errors from fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The design matrix had no rows.
    EmptyData,
    /// Labels and design-matrix row counts disagree.
    LengthMismatch,
    /// The solver produced non-finite parameters.
    Diverged,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::EmptyData => write!(f, "cannot fit on an empty design matrix"),
            FitError::LengthMismatch => write!(f, "labels do not match design matrix rows"),
            FitError::Diverged => write!(f, "solver produced non-finite parameters"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted binary logistic-regression model.
///
/// `P(Y = 1 | x) = σ(w·x + b)`; `decision_function` exposes the signed
/// distance `w·x + b`, the quantity Zafar's covariance proxy is defined on.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    intercept: f64,
}

impl LogisticRegression {
    /// Fit on design matrix `x` and binary labels `y`.
    pub fn fit(x: &Matrix, y: &[u8], opts: &LogisticOptions) -> Result<Self, FitError> {
        Self::fit_weighted(x, y, None, opts)
    }

    /// Fit with optional per-sample weights (the cost-sensitive path used
    /// by Kearns's and Celis's inner learners and by Kam-Cal-style
    /// reweighting).
    pub fn fit_weighted(
        x: &Matrix,
        y: &[u8],
        sample_weights: Option<&[f64]>,
        opts: &LogisticOptions,
    ) -> Result<Self, FitError> {
        Self::fit_weighted_observed(x, y, sample_weights, opts, &mut |_, _| {})
    }

    /// [`fit_weighted`] with a per-iteration observer called as
    /// `observe(iteration, params)` on the solver's raw augmented parameter
    /// vector `[w₀..w_{d−1}, b]` after each update — the hook the
    /// cross-verification harness uses to compare two fits in lockstep and
    /// name the exact first diverging iteration.
    pub fn fit_weighted_observed(
        x: &Matrix,
        y: &[u8],
        sample_weights: Option<&[f64]>,
        opts: &LogisticOptions,
        observe: &mut dyn FnMut(usize, &[f64]),
    ) -> Result<Self, FitError> {
        if x.rows() == 0 {
            return Err(FitError::EmptyData);
        }
        if x.rows() != y.len() {
            return Err(FitError::LengthMismatch);
        }
        if let Some(w) = sample_weights {
            if w.len() != y.len() {
                return Err(FitError::LengthMismatch);
            }
        }
        let params = match opts.solver {
            Solver::Irls => match Self::fit_irls(x, y, sample_weights, opts, observe) {
                Ok(p) => p,
                // Singular Newton system (e.g. perfectly collinear one-hot
                // columns with λ = 0): fall back to first-order.
                Err(()) => {
                    fairlens_trace::event("irls.fallback");
                    Self::fit_gd(x, y, sample_weights, opts, observe)
                }
            },
            Solver::GradientDescent => Self::fit_gd(x, y, sample_weights, opts, observe),
        };
        if params.iter().any(|p| !p.is_finite()) {
            return Err(FitError::Diverged);
        }
        let (w, b) = params.split_at(x.cols());
        Ok(Self { weights: w.to_vec(), intercept: b[0] })
    }

    fn fit_irls(
        x: &Matrix,
        y: &[u8],
        sample_weights: Option<&[f64]>,
        opts: &LogisticOptions,
        observe: &mut dyn FnMut(usize, &[f64]),
    ) -> Result<Vec<f64>, ()> {
        let n = x.rows();
        let d = x.cols();
        // Augmented design [x | 1] so the intercept rides along.
        let xa = x.append_column(&vec![1.0; n]);
        let mut beta = vec![0.0; d + 1];
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        let sw = |i: usize| sample_weights.map_or(1.0, |w| w[i]);
        // Ridge strength scales with the *total weight*, not the row count,
        // so that uniformly rescaling the sample weights leaves the fit
        // unchanged (matching the weight-normalised LogisticLoss).
        let total_w: f64 = sample_weights.map_or(n as f64, |w| w.iter().sum());

        for it in 0..opts.max_iter {
            fairlens_trace::incr("irls.iterations", 1);
            // One GEMV for all margins, then the elementwise link, then one
            // transposed GEMV for the gradient — the three matrix kernels
            // dominate the iteration and all run blocked.
            let z = xa.matvec(&beta);
            // p_i, IRLS working weights r_i = ω_i p_i (1 − p_i)
            let mut irls_w = vec![0.0; n];
            let mut resid = vec![0.0; n];
            for i in 0..n {
                let p = vector::sigmoid(z[i]);
                irls_w[i] = (sw(i) * p * (1.0 - p)).max(1e-10);
                resid[i] = sw(i) * (p - yf[i]);
            }
            let mut grad = xa.matvec_t(&resid);
            // Ridge on weights only.
            for j in 0..d {
                grad[j] += opts.l2 * total_w * beta[j];
            }
            let mut hess = xa.gram_weighted(&irls_w);
            for j in 0..d {
                hess.add_to(j, j, opts.l2 * total_w);
            }
            // Tiny jitter keeps the intercept row non-singular for
            // degenerate datasets (all-equal labels).
            hess.add_to(d, d, 1e-10);
            let step = decompose::cholesky_solve(&hess, &grad).map_err(|_| ())?;
            let step_norm = vector::norm_inf(&step);
            vector::axpy(-1.0, &step, &mut beta);
            observe(it, &beta);
            if step_norm < opts.tol {
                break;
            }
            if vector::norm_inf(&beta) > 1e6 {
                // Perfect separation blows the parameters up; clamp by
                // falling back to the regularised GD path.
                return Err(());
            }
        }
        Ok(beta)
    }

    fn fit_gd(
        x: &Matrix,
        y: &[u8],
        sample_weights: Option<&[f64]>,
        opts: &LogisticOptions,
        observe: &mut dyn FnMut(usize, &[f64]),
    ) -> Vec<f64> {
        // Ensure some regularisation so GD is well-posed under separation.
        let l2 = opts.l2.max(1e-6);
        let loss = match sample_weights {
            Some(w) => LogisticLoss::new(x, y, l2).with_sample_weights(w),
            None => LogisticLoss::new(x, y, l2),
        };
        let gd_opts = gd::GdOptions {
            max_iter: opts.max_iter.max(300),
            grad_tol: opts.tol.max(1e-7),
            ..Default::default()
        };
        let x0 = vec![0.0; loss.dim()];
        gd::minimize_observed(&loss, &x0, &gd_opts, &mut |it, p, _| observe(it, p)).x
    }

    /// Construct directly from parameters (used by in-processing approaches
    /// that optimise the parameters themselves).
    pub fn from_params(weights: Vec<f64>, intercept: f64) -> Self {
        Self { weights, intercept }
    }

    /// The fitted weights `w`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The fitted intercept `b`.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Signed distance to the decision boundary for one sample.
    #[inline]
    pub fn decision_one(&self, row: &[f64]) -> f64 {
        vector::dot(row, &self.weights) + self.intercept
    }

    /// Signed distances for all rows, via one batched GEMV.
    ///
    /// Bit-exact vs calling [`Self::decision_one`] per row: the blocked
    /// `matvec` computes each output element with exactly the same `dot`
    /// the single-row path uses, then adds the intercept identically —
    /// the invariant the serve batcher's coalescing relies on.
    pub fn decision_function(&self, x: &Matrix) -> Vec<f64> {
        assert_eq!(x.cols(), self.weights.len(), "decision_function: width mismatch");
        let mut z = x.matvec(&self.weights);
        for zi in z.iter_mut() {
            *zi += self.intercept;
        }
        z
    }

    /// `P(Y = 1 | x)` for all rows.
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        self.decision_function(x)
            .into_iter()
            .map(vector::sigmoid)
            .collect()
    }

    /// Hard 0/1 predictions at the 0.5 threshold.
    pub fn predict(&self, x: &Matrix) -> Vec<u8> {
        self.decision_function(x)
            .into_iter()
            .map(|z| u8::from(z >= 0.0))
            .collect()
    }

    /// Labels and probabilities from a single batched GEMV pass.
    ///
    /// Computes the decision values once and derives both outputs from the
    /// same `z`, so the pair is bit-identical to calling [`Self::predict`]
    /// and [`Self::predict_proba`] separately (both threshold/sigmoid the
    /// same margins) at half the work — the serve flush path.
    pub fn predict_with_proba(&self, x: &Matrix) -> (Vec<u8>, Vec<f64>) {
        let z = self.decision_function(x);
        let labels = z.iter().map(|&zi| u8::from(zi >= 0.0)).collect();
        let probas = z.into_iter().map(vector::sigmoid).collect();
        (labels, probas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Linearly separable-ish data from a known model.
    fn synthetic(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let true_w = [1.5, -2.0];
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen_range(-2.0..2.0);
            let x1: f64 = rng.gen_range(-2.0..2.0);
            let z = true_w[0] * x0 + true_w[1] * x1 + 0.5;
            let p = vector::sigmoid(z);
            y.push(u8::from(rng.gen::<f64>() < p));
            rows.push(vec![x0, x1]);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn irls_recovers_signs_and_predicts_well() {
        let (x, y) = synthetic(2000, 42);
        let m = LogisticRegression::fit(&x, &y, &LogisticOptions::default()).unwrap();
        assert!(m.weights()[0] > 0.5, "w0 = {}", m.weights()[0]);
        assert!(m.weights()[1] < -0.5, "w1 = {}", m.weights()[1]);
        let preds = m.predict(&x);
        let acc = preds
            .iter()
            .zip(y.iter())
            .filter(|&(p, t)| p == t)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.8, "train accuracy {acc}");
    }

    #[test]
    fn gd_and_irls_agree() {
        let (x, y) = synthetic(500, 7);
        let irls = LogisticRegression::fit(
            &x,
            &y,
            &LogisticOptions { l2: 0.01, ..Default::default() },
        )
        .unwrap();
        let gd = LogisticRegression::fit(
            &x,
            &y,
            &LogisticOptions {
                l2: 0.01,
                solver: Solver::GradientDescent,
                max_iter: 5000,
                tol: 1e-9,
            },
        )
        .unwrap();
        for (a, b) in irls.weights().iter().zip(gd.weights().iter()) {
            assert!((a - b).abs() < 0.05, "irls {a} vs gd {b}");
        }
        assert!((irls.intercept() - gd.intercept()).abs() < 0.05);
    }

    #[test]
    fn weighted_fit_shifts_towards_heavy_samples() {
        // Two clusters with conflicting labels; upweighting one side must
        // move the decision.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![-1.0], vec![-1.0]]);
        let y = vec![1, 0, 1, 0];
        let up_pos = LogisticRegression::fit_weighted(
            &x,
            &y,
            Some(&[10.0, 0.1, 0.1, 10.0]),
            &LogisticOptions::default(),
        )
        .unwrap();
        // Heavy samples: (x=1, y=1) and (x=-1, y=0) → positive slope.
        assert!(up_pos.weights()[0] > 0.0);
        let up_neg = LogisticRegression::fit_weighted(
            &x,
            &y,
            Some(&[0.1, 10.0, 10.0, 0.1]),
            &LogisticOptions::default(),
        )
        .unwrap();
        assert!(up_neg.weights()[0] < 0.0);
    }

    #[test]
    fn probabilities_are_calibrated_on_average() {
        let (x, y) = synthetic(4000, 11);
        let m = LogisticRegression::fit(&x, &y, &LogisticOptions::default()).unwrap();
        let p = m.predict_proba(&x);
        let mean_p = vector::mean(&p);
        let base = y.iter().map(|&v| v as f64).sum::<f64>() / y.len() as f64;
        assert!((mean_p - base).abs() < 0.02, "mean p {mean_p} vs base {base}");
    }

    #[test]
    fn perfect_separation_is_handled() {
        let x = Matrix::from_rows(&[vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]]);
        let y = vec![0, 0, 1, 1];
        let m = LogisticRegression::fit(&x, &y, &LogisticOptions::default()).unwrap();
        assert!(m.weights()[0].is_finite());
        assert_eq!(m.predict(&x), vec![0, 0, 1, 1]);
    }

    #[test]
    fn constant_labels_fit_high_intercept() {
        let x = Matrix::from_rows(&[vec![0.1], vec![-0.3], vec![0.5]]);
        let m = LogisticRegression::fit(&x, &[1, 1, 1], &LogisticOptions::default()).unwrap();
        assert!(m.predict_proba(&x).iter().all(|&p| p > 0.9));
    }

    #[test]
    fn errors_on_bad_input() {
        let x = Matrix::zeros(0, 2);
        assert_eq!(
            LogisticRegression::fit(&x, &[], &LogisticOptions::default()).unwrap_err(),
            FitError::EmptyData
        );
        let x = Matrix::zeros(3, 2);
        assert_eq!(
            LogisticRegression::fit(&x, &[1, 0], &LogisticOptions::default()).unwrap_err(),
            FitError::LengthMismatch
        );
    }

    #[test]
    fn from_params_roundtrip() {
        let m = LogisticRegression::from_params(vec![2.0, -1.0], 0.5);
        assert_eq!(m.decision_one(&[1.0, 1.0]), 1.5);
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![-1.0, 0.0]]);
        assert_eq!(m.predict(&x), vec![1, 0]);
    }
}
