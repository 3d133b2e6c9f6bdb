//! Logistic negative log-likelihood as an optimisable [`Objective`].

use fairlens_linalg::{vector, Matrix};
use fairlens_optim::Objective;

/// Weighted, L2-regularised logistic loss over parameters `[w₀..w_{d−1}, b]`
/// (the intercept is the final coordinate and is *not* regularised).
///
/// With `p_i = σ(w·x_i + b)` the objective is
///
/// ```text
/// (1/W) Σ_i ω_i [ −y_i log p_i − (1−y_i) log(1−p_i) ] + (λ/2)‖w‖²
/// ```
///
/// where `W = Σ ω_i`. The normalisation keeps λ comparable across dataset
/// sizes — important because the benchmark sweeps |D| from 1 K to 40 K.
pub struct LogisticLoss<'a> {
    x: &'a Matrix,
    y: Vec<f64>,
    sample_weights: Option<Vec<f64>>,
    l2: f64,
    total_weight: f64,
}

impl<'a> LogisticLoss<'a> {
    /// Build the loss for design matrix `x`, binary labels `y` and ridge
    /// strength `l2`.
    pub fn new(x: &'a Matrix, y: &[u8], l2: f64) -> Self {
        assert_eq!(x.rows(), y.len(), "LogisticLoss: label length mismatch");
        Self {
            x,
            y: y.iter().map(|&v| v as f64).collect(),
            sample_weights: None,
            l2,
            total_weight: y.len() as f64,
        }
    }

    /// Attach per-sample weights `ω` (must be non-negative, same length as
    /// labels).
    pub fn with_sample_weights(mut self, w: &[f64]) -> Self {
        assert_eq!(w.len(), self.y.len(), "LogisticLoss: weight length mismatch");
        self.total_weight = w.iter().sum::<f64>().max(1e-12);
        self.sample_weights = Some(w.to_vec());
        self
    }

    /// Number of feature columns (excluding the intercept coordinate).
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    #[inline]
    fn weight(&self, i: usize) -> f64 {
        self.sample_weights.as_ref().map_or(1.0, |w| w[i])
    }

    /// The margins `Xw` of `params = [w, b]`, intercept not yet added: the
    /// one GEMV every evaluation starts from. Row `i` is exactly
    /// `vector::dot(x_i, w)`, so callers sharing it see the same bits a
    /// per-row dot would give.
    pub fn margins(&self, params: &[f64]) -> Vec<f64> {
        self.x.matvec(&params[..self.x.cols()])
    }

    /// `p_i = σ(x_i·w + b)` for every row, from one GEMV.
    pub fn probs(&self, params: &[f64]) -> Vec<f64> {
        let b = params[self.x.cols()];
        let mut p = self.margins(params);
        for pi in p.iter_mut() {
            *pi = vector::sigmoid(*pi + b);
        }
        p
    }

    /// The loss at `params` from its [`margins`](Self::margins) `z`, with
    /// one `exp` per row; on return `z[i]` holds `p_i = σ(z_i + b)`, ready
    /// for [`gradient_at_probs`](Self::gradient_at_probs). Bit-identical to
    /// [`Objective::value`].
    pub fn value_at_margins(&self, params: &[f64], z: &mut [f64]) -> f64 {
        let w = &params[..self.x.cols()];
        let b = params[self.x.cols()];
        let mut loss = 0.0;
        for (i, zi) in z.iter_mut().enumerate() {
            let m = *zi + b;
            let (p, softplus) = vector::sigmoid_softplus(m);
            // −y z + log(1 + e^z), the stable cross-entropy form
            loss += self.weight(i) * (softplus - self.y[i] * m);
            *zi = p;
        }
        loss / self.total_weight + 0.5 * self.l2 * vector::dot(w, w)
    }

    /// The gradient at `params` from its [`probs`](Self::probs):
    /// residuals elementwise, then the feature gradient as one transposed
    /// GEMV (`Xᵀr`). Bit-identical to [`Objective::gradient`].
    pub fn gradient_at_probs(&self, params: &[f64], p: &[f64]) -> Vec<f64> {
        let d = self.x.cols();
        let resid: Vec<f64> =
            p.iter().enumerate().map(|(i, &pi)| self.weight(i) * (pi - self.y[i])).collect();
        let mut g = self.x.matvec_t(&resid);
        g.push(resid.iter().sum::<f64>());
        vector::scale(1.0 / self.total_weight, &mut g);
        for j in 0..d {
            g[j] += self.l2 * params[j];
        }
        g
    }
}

impl Objective for LogisticLoss<'_> {
    fn dim(&self) -> usize {
        self.x.cols() + 1
    }

    fn value(&self, params: &[f64]) -> f64 {
        self.value_at_margins(params, &mut self.margins(params))
    }

    fn gradient(&self, params: &[f64]) -> Vec<f64> {
        self.gradient_at_probs(params, &self.probs(params))
    }

    fn value_grad(&self, params: &[f64]) -> (f64, Vec<f64>) {
        let mut z = self.margins(params);
        let v = self.value_at_margins(params, &mut z);
        (v, self.gradient_at_probs(params, &z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_optim::numeric_gradient;

    fn toy() -> (Matrix, Vec<u8>) {
        let x = Matrix::from_rows(&[
            vec![0.2, -1.0],
            vec![1.5, 0.3],
            vec![-0.7, 0.9],
            vec![2.0, -0.4],
        ]);
        (x, vec![0, 1, 0, 1])
    }

    #[test]
    fn gradient_matches_numeric() {
        let (x, y) = toy();
        let loss = LogisticLoss::new(&x, &y, 0.1);
        let p = [0.3, -0.5, 0.1];
        let ag = loss.gradient(&p);
        let ng = numeric_gradient(|p| loss.value(p), &p, 1e-6);
        for (a, n) in ag.iter().zip(ng.iter()) {
            assert!((a - n).abs() < 1e-5, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn weighted_gradient_matches_numeric() {
        let (x, y) = toy();
        let loss = LogisticLoss::new(&x, &y, 0.05).with_sample_weights(&[1.0, 2.0, 0.5, 3.0]);
        let p = [-0.2, 0.4, 0.6];
        let ag = loss.gradient(&p);
        let ng = numeric_gradient(|p| loss.value(p), &p, 1e-6);
        for (a, n) in ag.iter().zip(ng.iter()) {
            assert!((a - n).abs() < 1e-5);
        }
    }

    #[test]
    fn zero_params_give_log2_loss() {
        let (x, y) = toy();
        let loss = LogisticLoss::new(&x, &y, 0.0);
        let v = loss.value(&[0.0, 0.0, 0.0]);
        assert!((v - (2.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn intercept_not_regularised() {
        let (x, y) = toy();
        let l0 = LogisticLoss::new(&x, &y, 0.0);
        let l1 = LogisticLoss::new(&x, &y, 10.0);
        // Pure-intercept parameter vectors differ only through data terms.
        let p = [0.0, 0.0, 5.0];
        assert!((l0.value(&p) - l1.value(&p)).abs() < 1e-12);
    }
}
