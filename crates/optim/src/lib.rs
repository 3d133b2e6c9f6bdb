//! # fairlens-optim
//!
//! Numerical optimisation substrate for the FairLens workspace.
//!
//! The in-processing fair classifiers in the paper are all solutions to
//! (constrained) optimisation problems over classifier parameters:
//!
//! * Zafar et al. solve convex losses under covariance constraints — served
//!   by [`constrained::minimize_augmented_lagrangian`] (an augmented
//!   Lagrangian method playing the role the paper's CVXPY/DCCP solvers play);
//! * Zha-Le's adversarial training and Thomas's candidate search use
//!   first-order methods — [`gd::minimize`] (gradient descent with Armijo
//!   backtracking) and [`adam::minimize`];
//! * the synthetic-data calibration and several post-processing threshold
//!   tuners use the scalar solvers in [`scalar`] (bisection and golden-
//!   section search).
//!
//! Objectives implement the [`Objective`] trait; a finite-difference
//! [`numeric_gradient`] is provided for testing analytic gradients.

pub mod adam;
pub mod constrained;
pub mod gd;
pub mod scalar;

pub use adam::AdamOptions;
pub use constrained::{
    minimize_augmented_lagrangian, minimize_augmented_lagrangian_with, AugLagOptions, AugLagResult,
};
pub use gd::{minimize, GdOptions, GdResult};
pub use scalar::{bisect, golden_section_min};

/// A differentiable objective `f : Rⁿ → R`.
pub trait Objective {
    /// Problem dimensionality `n`.
    fn dim(&self) -> usize;
    /// Objective value at `x`.
    fn value(&self, x: &[f64]) -> f64;
    /// Gradient at `x` (length `dim()`).
    fn gradient(&self, x: &[f64]) -> Vec<f64>;
    /// Value and gradient together; override when they share work.
    ///
    /// **Contract:** an override must return exactly the bits of
    /// `(self.value(x), self.gradient(x))`. The solvers call whichever of
    /// the three is cheapest at each point and treat the results as
    /// interchangeable, so an override that reorders a sum would change
    /// the iterates, not just the cost.
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.value(x), self.gradient(x))
    }
}

/// Central finite-difference gradient, for validating analytic gradients in
/// tests. `O(n)` objective evaluations with step `h`.
pub fn numeric_gradient<F: Fn(&[f64]) -> f64>(f: F, x: &[f64], h: f64) -> Vec<f64> {
    let mut g = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let xi = x[i];
        xp[i] = xi + h;
        let fp = f(&xp);
        xp[i] = xi - h;
        let fm = f(&xp);
        xp[i] = xi;
        g[i] = (fp - fm) / (2.0 * h);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quadratic;
    impl Objective for Quadratic {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            (x[0] - 1.0).powi(2) + 2.0 * (x[1] + 2.0).powi(2)
        }
        fn gradient(&self, x: &[f64]) -> Vec<f64> {
            vec![2.0 * (x[0] - 1.0), 4.0 * (x[1] + 2.0)]
        }
    }

    #[test]
    fn numeric_gradient_matches_analytic() {
        let q = Quadratic;
        let x = [0.3, 0.7];
        let ng = numeric_gradient(|x| q.value(x), &x, 1e-6);
        let ag = q.gradient(&x);
        for (n, a) in ng.iter().zip(ag.iter()) {
            assert!((n - a).abs() < 1e-5, "numeric {n} vs analytic {a}");
        }
    }
}
