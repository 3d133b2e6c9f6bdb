//! Gradient descent with Armijo backtracking line search.
//!
//! Each step evaluates its first, full-step trial with
//! [`Objective::value_grad`] and later backtracking trials with
//! [`Objective::value`]. The accepted point reuses its trial's value, and
//! its gradient too when the full step was accepted; only a step accepted
//! after backtracking calls [`Objective::gradient`]. Because `value_grad`
//! returns exactly the bits of `(value, gradient)`, the iterates are those
//! of the plain loop that re-evaluates every accepted point, with one pass
//! over the data fewer per step.

use fairlens_linalg::vector;

use crate::Objective;

/// Options for [`minimize`].
#[derive(Debug, Clone)]
pub struct GdOptions {
    /// Maximum number of descent iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the gradient ℓ∞ norm.
    pub grad_tol: f64,
    /// Initial trial step size for the line search.
    pub init_step: f64,
    /// Armijo sufficient-decrease constant (typically 1e-4).
    pub armijo_c: f64,
    /// Backtracking shrink factor in `(0, 1)`.
    pub shrink: f64,
}

impl Default for GdOptions {
    fn default() -> Self {
        Self { max_iter: 500, grad_tol: 1e-6, init_step: 1.0, armijo_c: 1e-4, shrink: 0.5 }
    }
}

/// Result of a gradient-descent run.
#[derive(Debug, Clone)]
pub struct GdResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Objective value at the final iterate.
    pub value: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
}

/// Minimise `obj` from `x0` by steepest descent with backtracking.
///
/// Deterministic and allocation-light: a fresh gradient per iteration plus a
/// scratch trial point. Suitable for the smooth convex losses used across
/// the workspace (logistic loss, penalised variants).
pub fn minimize(obj: &dyn Objective, x0: &[f64], opts: &GdOptions) -> GdResult {
    minimize_observed(obj, x0, opts, &mut |_, _, _| {})
}

/// [`minimize`] with a per-iteration observer called as
/// `observe(iteration, iterate, value)` *before* the step is taken, so two
/// runs can be compared in lockstep from iteration 0. The observer sees the
/// exact `f64`s the solver computes — no rounding, no copies through text —
/// which is what makes bit-exact cross-verification possible.
pub fn minimize_observed(
    obj: &dyn Objective,
    x0: &[f64],
    opts: &GdOptions,
    observe: &mut dyn FnMut(usize, &[f64], f64),
) -> GdResult {
    assert_eq!(x0.len(), obj.dim(), "minimize: x0 dimension mismatch");
    let mut x = x0.to_vec();
    let (mut fx, mut g) = obj.value_grad(&x);
    let mut trial = vec![0.0; x.len()];
    for it in 0..opts.max_iter {
        fairlens_budget::checkpoint();
        fairlens_trace::incr("gd.iterations", 1);
        observe(it, &x, fx);
        let gnorm = vector::norm_inf(&g);
        if gnorm <= opts.grad_tol {
            fairlens_trace::event("gd.converged");
            return GdResult { x, value: fx, iterations: it, converged: true };
        }
        // Backtracking along -g; the full step also yields its gradient.
        let g2 = vector::dot(&g, &g);
        let mut step = opts.init_step;
        let mut accepted = None;
        for k in 0..60 {
            for (t, (xi, gi)) in trial.iter_mut().zip(x.iter().zip(g.iter())) {
                *t = xi - step * gi;
            }
            let (ft, gt) = if k == 0 {
                let (ft, gt) = obj.value_grad(&trial);
                (ft, Some(gt))
            } else {
                (obj.value(&trial), None)
            };
            if ft.is_finite() && ft <= fx - opts.armijo_c * step * g2 {
                accepted = Some((ft, gt));
                break;
            }
            step *= opts.shrink;
        }
        let Some((ft, gt)) = accepted else {
            // Line search failed: we are at numerical stationarity.
            return GdResult { x, value: fx, iterations: it, converged: false };
        };
        std::mem::swap(&mut x, &mut trial);
        fx = ft;
        g = gt.unwrap_or_else(|| obj.gradient(&x));
    }
    GdResult { x, value: fx, iterations: opts.max_iter, converged: false }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rosenbrock;
    impl Objective for Rosenbrock {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            vec![
                -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                200.0 * (x[1] - x[0] * x[0]),
            ]
        }
    }

    struct Quadratic;
    impl Objective for Quadratic {
        fn dim(&self) -> usize {
            3
        }
        fn value(&self, x: &[f64]) -> f64 {
            x.iter().enumerate().map(|(i, v)| (i + 1) as f64 * v * v).sum()
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            x.iter().enumerate().map(|(i, v)| 2.0 * (i + 1) as f64 * v).collect()
        }
    }

    #[test]
    fn quadratic_converges_to_origin() {
        let r = minimize(&Quadratic, &[5.0, -3.0, 2.0], &GdOptions::default());
        assert!(r.converged);
        for v in &r.x {
            assert!(v.abs() < 1e-5, "expected ~0, got {v}");
        }
    }

    #[test]
    fn rosenbrock_descends_substantially() {
        let opts = GdOptions { max_iter: 20_000, grad_tol: 1e-8, ..Default::default() };
        let r = minimize(&Rosenbrock, &[-1.2, 1.0], &opts);
        // Rosenbrock is hard for plain GD; we require near-optimality, not
        // exact convergence.
        assert!(r.value < 1e-3, "value {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 0.1);
    }

    #[test]
    fn monotone_decrease() {
        let q = Quadratic;
        let r1 = minimize(&q, &[1.0, 1.0, 1.0], &GdOptions { max_iter: 1, ..Default::default() });
        let r5 = minimize(&q, &[1.0, 1.0, 1.0], &GdOptions { max_iter: 5, ..Default::default() });
        assert!(r5.value <= r1.value);
        assert!(r1.value <= q.value(&[1.0, 1.0, 1.0]));
    }

    #[test]
    fn already_optimal_converges_immediately() {
        let r = minimize(&Quadratic, &[0.0, 0.0, 0.0], &GdOptions::default());
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    /// Counts evaluations: `[value, gradient, value_grad]`.
    struct Counting<O>(O, std::cell::Cell<[usize; 3]>);
    impl<O: Objective> Counting<O> {
        fn bump(&self, k: usize) {
            let mut c = self.1.get();
            c[k] += 1;
            self.1.set(c);
        }
    }
    impl<O: Objective> Objective for Counting<O> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn value(&self, x: &[f64]) -> f64 {
            self.bump(0);
            self.0.value(x)
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            self.bump(1);
            self.0.gradient(x)
        }
        fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            self.bump(2);
            self.0.value_grad(x)
        }
    }

    #[test]
    fn accepted_full_steps_cost_one_fused_evaluation() {
        // Step 1.0 on Σ(i+1)x² overshoots every coordinate, so each step
        // backtracks; step 0.125 is accepted in full every time.
        let opts = GdOptions { max_iter: 6, grad_tol: 0.0, ..Default::default() };
        let q = Counting(Quadratic, Default::default());
        minimize(&q, &[1.0, -1.0, 0.5], &GdOptions { init_step: 0.125, ..opts.clone() });
        // The start point, then one fused evaluation per step.
        assert_eq!(q.1.get(), [0, 0, 7]);

        let q = Counting(Quadratic, Default::default());
        minimize(&q, &[1.0, -1.0, 0.5], &opts);
        let [values, gradients, fused] = q.1.get();
        assert_eq!(fused, 7, "the start point and each step's full trial");
        assert_eq!(gradients, 6, "each step was accepted after backtracking");
        assert!(values >= 6, "{values}");
    }

    #[test]
    fn observer_sees_every_iterate_bit_exactly() {
        let mut seen: Vec<(usize, Vec<f64>, f64)> = Vec::new();
        let r = minimize_observed(&Quadratic, &[5.0, -3.0, 2.0], &GdOptions::default(), &mut |it, x, fx| {
            seen.push((it, x.to_vec(), fx));
        });
        assert_eq!(seen.len(), r.iterations + 1); // converged: final iterate observed too
        assert_eq!(seen[0].1, vec![5.0, -3.0, 2.0]);
        // The final observed iterate is the returned one, bit for bit.
        let last = seen.last().unwrap();
        assert!(last.1.iter().zip(r.x.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
        // Observed iterations are consecutive from zero.
        assert!(seen.iter().enumerate().all(|(i, (it, _, _))| i == *it));
    }
}
