//! Augmented-Lagrangian method for smooth inequality-constrained problems.
//!
//! Solves
//!
//! ```text
//! minimize    f(x)
//! subject to  c_i(x) ≤ 0,   i = 1..m
//! ```
//!
//! by repeatedly minimising the augmented Lagrangian
//!
//! ```text
//! L(x; λ, μ) = f(x) + Σ_i ψ(c_i(x), λ_i, μ)
//! ψ(c, λ, μ) = (max(0, λ + μ c)² − λ²) / (2 μ)
//! ```
//!
//! with the unconstrained [`crate::gd`] solver, then updating the multipliers
//! `λ_i ← max(0, λ_i + μ c_i(x))` and growing the penalty `μ` whenever the
//! maximum violation fails to shrink. This is the workhorse behind the Zafar
//! approaches, standing in for the paper's CVXPY/DCCP stack.
//!
//! The inner solver asks for `L`'s value and gradient together at each
//! step's first trial point. That evaluation calls `f`'s fused
//! [`Objective::value_grad`] once and evaluates each constraint's value
//! once, and its gradient only when the constraint is active
//! (`λ_i + μ c_i(x) > 0`), with the same bits as `L`'s separate `value` and
//! `gradient`.

use fairlens_linalg::vector;

use crate::gd::{self, GdOptions, GdResult};
use crate::Objective;

/// Options for [`minimize_augmented_lagrangian`].
#[derive(Debug, Clone)]
pub struct AugLagOptions {
    /// Maximum outer (multiplier-update) iterations.
    pub outer_iter: usize,
    /// Inner unconstrained solver options.
    pub inner: GdOptions,
    /// Initial penalty parameter `μ`.
    pub mu0: f64,
    /// Multiplicative penalty growth when violations stall.
    pub mu_growth: f64,
    /// Feasibility tolerance: accept when `max_i c_i(x) ≤ tol`.
    pub feas_tol: f64,
}

impl Default for AugLagOptions {
    fn default() -> Self {
        Self {
            outer_iter: 20,
            inner: GdOptions { max_iter: 300, ..Default::default() },
            mu0: 1.0,
            mu_growth: 5.0,
            feas_tol: 1e-4,
        }
    }
}

/// Result of the augmented-Lagrangian solve.
#[derive(Debug, Clone)]
pub struct AugLagResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Objective value at the final iterate.
    pub objective: f64,
    /// Maximum constraint violation `max_i max(0, c_i(x))`.
    pub max_violation: f64,
    /// Whether the feasibility tolerance was met.
    pub feasible: bool,
    /// Outer iterations used.
    pub outer_iterations: usize,
}

struct AugLag<'a> {
    f: &'a dyn Objective,
    constraints: &'a [&'a dyn Objective],
    lambda: Vec<f64>,
    mu: f64,
}

impl Objective for AugLag<'_> {
    fn dim(&self) -> usize {
        self.f.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        let mut v = self.f.value(x);
        for (c, &l) in self.constraints.iter().zip(self.lambda.iter()) {
            let ci = c.value(x);
            let t = (l + self.mu * ci).max(0.0);
            v += (t * t - l * l) / (2.0 * self.mu);
        }
        v
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut g = self.f.gradient(x);
        for (c, &l) in self.constraints.iter().zip(self.lambda.iter()) {
            let ci = c.value(x);
            let t = l + self.mu * ci;
            if t > 0.0 {
                vector::axpy(t, &c.gradient(x), &mut g);
            }
        }
        g
    }

    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let (mut v, mut g) = self.f.value_grad(x);
        for (c, &l) in self.constraints.iter().zip(self.lambda.iter()) {
            let t = l + self.mu * c.value(x);
            let tp = t.max(0.0);
            v += (tp * tp - l * l) / (2.0 * self.mu);
            if t > 0.0 {
                vector::axpy(t, &c.gradient(x), &mut g);
            }
        }
        (v, g)
    }
}

/// Minimise `f` subject to `c_i(x) ≤ 0` for every constraint in
/// `constraints`, starting from `x0`.
pub fn minimize_augmented_lagrangian(
    f: &dyn Objective,
    constraints: &[&dyn Objective],
    x0: &[f64],
    opts: &AugLagOptions,
) -> AugLagResult {
    minimize_augmented_lagrangian_with(f, constraints, x0, opts, gd::minimize)
}

/// [`minimize_augmented_lagrangian`] with each subproblem solved by
/// `inner(L, start, &opts.inner)` instead of [`gd::minimize`], so that a
/// cross-verification can observe every inner iterate or run the same outer
/// loop over a reference solver.
pub fn minimize_augmented_lagrangian_with(
    f: &dyn Objective,
    constraints: &[&dyn Objective],
    x0: &[f64],
    opts: &AugLagOptions,
    mut inner: impl FnMut(&dyn Objective, &[f64], &GdOptions) -> GdResult,
) -> AugLagResult {
    let mut x = x0.to_vec();
    let mut lambda = vec![0.0; constraints.len()];
    let mut mu = opts.mu0;
    let mut prev_violation = f64::INFINITY;
    let mut outer_used = 0;

    for outer in 0..opts.outer_iter {
        outer_used = outer + 1;
        let al = AugLag { f, constraints, lambda: lambda.clone(), mu };
        let res = inner(&al, &x, &opts.inner);
        x = res.x;

        let viols: Vec<f64> = constraints.iter().map(|c| c.value(&x)).collect();
        let max_violation = viols.iter().fold(0.0_f64, |m, &v| m.max(v));

        if max_violation <= opts.feas_tol {
            return AugLagResult {
                objective: f.value(&x),
                max_violation,
                feasible: true,
                outer_iterations: outer_used,
                x,
            };
        }

        for (l, &v) in lambda.iter_mut().zip(viols.iter()) {
            *l = (*l + mu * v).max(0.0);
        }
        if max_violation > 0.5 * prev_violation {
            mu *= opts.mu_growth;
        }
        prev_violation = max_violation;
    }

    let max_violation = constraints
        .iter()
        .map(|c| c.value(&x).max(0.0))
        .fold(0.0_f64, f64::max);
    AugLagResult {
        objective: f.value(&x),
        feasible: max_violation <= opts.feas_tol,
        max_violation,
        outer_iterations: outer_used,
        x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(x) = (x−3)², constraint x ≤ 1 → optimum at x = 1.
    struct Dist3;
    impl Objective for Dist3 {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, x: &[f64]) -> f64 {
            (x[0] - 3.0).powi(2)
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            vec![2.0 * (x[0] - 3.0)]
        }
    }
    struct LeOne;
    impl Objective for LeOne {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] - 1.0
        }
        fn gradient(&self, _x: &[f64]) -> Vec<f64> {
            vec![1.0]
        }
    }

    #[test]
    fn active_constraint_binds() {
        let r = minimize_augmented_lagrangian(
            &Dist3,
            &[&LeOne as &dyn Objective],
            &[0.0],
            &AugLagOptions::default(),
        );
        assert!(r.feasible, "violation {}", r.max_violation);
        assert!((r.x[0] - 1.0).abs() < 1e-2, "x = {}", r.x[0]);
    }

    /// Unconstrained-feasible case: the constraint is inactive and the
    /// solver should find the interior optimum.
    struct LeTen;
    impl Objective for LeTen {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] - 10.0
        }
        fn gradient(&self, _x: &[f64]) -> Vec<f64> {
            vec![1.0]
        }
    }

    #[test]
    fn inactive_constraint_is_ignored() {
        let r = minimize_augmented_lagrangian(
            &Dist3,
            &[&LeTen as &dyn Objective],
            &[0.0],
            &AugLagOptions::default(),
        );
        assert!(r.feasible);
        assert!((r.x[0] - 3.0).abs() < 1e-3, "x = {}", r.x[0]);
    }

    /// 2-D: minimize ‖x‖² s.t. 1 − x₀ − x₁ ≤ 0 → optimum (0.5, 0.5).
    struct Norm2Sq;
    impl Objective for Norm2Sq {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + x[1] * x[1]
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            vec![2.0 * x[0], 2.0 * x[1]]
        }
    }
    struct SumGeOne;
    impl Objective for SumGeOne {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            1.0 - x[0] - x[1]
        }
        fn gradient(&self, _x: &[f64]) -> Vec<f64> {
            vec![-1.0, -1.0]
        }
    }

    /// A non-quadratic objective and constraint, so that the Lagrangian's
    /// value and gradient share no arithmetic by accident.
    struct LogCosh;
    impl Objective for LogCosh {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0].cosh().ln() + 0.5 * (x[1] - 0.3).powi(2) + x[0] * x[1]
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            vec![x[0].tanh() + x[1], x[1] - 0.3 + x[0]]
        }
    }
    struct Disc;
    impl Objective for Disc {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + x[1] * x[1] - 1.0
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            vec![2.0 * x[0], 2.0 * x[1]]
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The fused Lagrangian returns exactly the bits of its separate
        /// value and gradient, with constraints active and inactive.
        #[test]
        fn aug_lag_value_grad_is_bit_identical(
            x in proptest::prop::collection::vec(-3.0f64..3.0, 2),
            lambda in proptest::prop::collection::vec(0.0f64..4.0, 3),
            mu in 0.01f64..200.0,
        ) {
            let constraints: [&dyn Objective; 3] = [&Disc, &SumGeOne, &LeTen2];
            let al = AugLag { f: &LogCosh, constraints: &constraints, lambda: lambda.clone(), mu };
            let (v, g) = al.value_grad(&x);
            proptest::prop_assert_eq!(v.to_bits(), al.value(&x).to_bits());
            let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&g), bits(&al.gradient(&x)));
        }
    }

    struct LeTen2;
    impl Objective for LeTen2 {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] - 10.0
        }
        fn gradient(&self, _x: &[f64]) -> Vec<f64> {
            vec![1.0, 0.0]
        }
    }

    #[test]
    fn two_dimensional_projection() {
        let r = minimize_augmented_lagrangian(
            &Norm2Sq,
            &[&SumGeOne as &dyn Objective],
            &[0.0, 0.0],
            &AugLagOptions::default(),
        );
        assert!(r.feasible);
        assert!((r.x[0] - 0.5).abs() < 1e-2);
        assert!((r.x[1] - 0.5).abs() < 1e-2);
    }
}
