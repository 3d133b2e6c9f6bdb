//! Ready-made paired-solver drivers.
//!
//! Each pair runs two independent implementations of the same problem and
//! lockstep-compares their checkpoint streams:
//!
//! * **LR determinism** — the same logistic solver run twice, compared
//!   bit-exactly per IRLS/GD iteration. Any divergence here is a
//!   reproducibility bug (uninitialised state, environment-dependent
//!   numerics, data races).
//! * **LR agreement** — Newton (IRLS) vs gradient descent on the same
//!   weighted loss; both converge to the unique ridge-regularised optimum,
//!   so the *converged* coefficients must agree within a ULP bound.
//! * **Optim agreement** — GD vs Adam minimising one shared
//!   [`Objective`]; converged objective values must agree within a bound.
//! * **MaxSAT agreement** — exhaustive exact solve vs WalkSAT local search
//!   at small scale; the reached optimum (soft weight, hard feasibility)
//!   must coincide.
//! * **GD / AL fusion** — [`gd::minimize_observed`] (fused first trial,
//!   reused accepted point) vs [`gd_unfused`], the loop it replaced, on an
//!   objective whose `value_grad` override is hidden; every iterate must
//!   agree bit for bit. The same pair runs a whole augmented-Lagrangian
//!   solve over either inner loop.

use fairlens_linalg::{vector, Matrix};
use fairlens_model::{FitError, LogisticOptions, LogisticRegression, Solver};
use fairlens_optim::{
    adam, gd, minimize_augmented_lagrangian_with, AdamOptions, AugLagOptions, GdOptions, GdResult,
    Objective,
};
use fairlens_solver::MaxSatProblem;

use crate::{lockstep, Report, State, Tolerance};

/// Default ULP bound for cross-*algorithm* agreement checks. Two different
/// convergent algorithms stop at slightly different points of the same
/// basin; 2⁴⁰ ulps ≈ 2.4 × 10⁻⁴ relative — loose enough for honest
/// convergence, tight enough to catch a wrong objective or a flipped sign.
pub const AGREEMENT_ULPS: u64 = 1 << 40;

/// Capture the per-iteration parameter stream of one logistic fit.
///
/// Fields are `beta[0]..beta[d]` (weights then intercept), one checkpoint
/// per solver iteration, in the exact bits the solver computed.
pub fn capture_lr(
    x: &Matrix,
    y: &[u8],
    sample_weights: Option<&[f64]>,
    opts: &LogisticOptions,
) -> Result<Vec<State>, FitError> {
    let mut stream = Vec::new();
    LogisticRegression::fit_weighted_observed(x, y, sample_weights, opts, &mut |_, beta| {
        stream.push(State::of_params("beta", beta));
    })?;
    Ok(stream)
}

/// Run the same logistic solver twice and lockstep-compare every iteration
/// bit-exactly. `tol` is almost always [`Tolerance::Exact`]; a looser bound
/// is accepted for experimentation.
pub fn lr_determinism(
    x: &Matrix,
    y: &[u8],
    sample_weights: Option<&[f64]>,
    opts: &LogisticOptions,
    tol: Tolerance,
) -> Result<Report, FitError> {
    let a = capture_lr(x, y, sample_weights, opts)?;
    let b = capture_lr(x, y, sample_weights, opts)?;
    let pair = match opts.solver {
        Solver::Irls => "lr/irls-vs-irls",
        Solver::GradientDescent => "lr/gd-vs-gd",
    };
    Ok(lockstep(pair, &a, &b, tol))
}

/// Fit the same weighted loss with Newton (IRLS) and gradient descent and
/// compare the *converged* coefficients within `tol`.
///
/// The checkpoint stream has a single entry per solver (fields `w[j]`,
/// `intercept`), so a reported divergence names the first coefficient that
/// disagrees.
pub fn lr_agreement(
    x: &Matrix,
    y: &[u8],
    sample_weights: Option<&[f64]>,
    opts: &LogisticOptions,
    tol: Tolerance,
) -> Result<Report, FitError> {
    let newton = LogisticRegression::fit_weighted(
        x,
        y,
        sample_weights,
        &LogisticOptions { solver: Solver::Irls, ..opts.clone() },
    )?;
    let gradient = LogisticRegression::fit_weighted(
        x,
        y,
        sample_weights,
        &LogisticOptions {
            solver: Solver::GradientDescent,
            max_iter: opts.max_iter.max(20_000),
            tol: opts.tol.min(1e-10),
            ..opts.clone()
        },
    )?;
    let summary = |m: &LogisticRegression| {
        let mut s = State::of_params("w", m.weights());
        s.fields.push(("intercept".into(), m.intercept()));
        vec![s]
    };
    Ok(lockstep("lr/irls-vs-gd", &summary(&newton), &summary(&gradient), tol))
}

/// Minimise one shared objective with GD and Adam and compare the best
/// objective values reached, within `tol`.
pub fn optim_agreement(obj: &dyn Objective, x0: &[f64], tol: Tolerance) -> Report {
    let g = gd::minimize(obj, x0, &GdOptions { max_iter: 20_000, grad_tol: 1e-10, ..Default::default() });
    let (_, adam_val) =
        adam::minimize(obj, x0, &AdamOptions { iterations: 20_000, lr: 0.01, ..Default::default() });
    let left = [State::new([("objective".to_string(), g.value)])];
    let right = [State::new([("objective".to_string(), adam_val)])];
    lockstep("optim/gd-vs-adam", &left, &right, tol)
}

/// Gradient descent as it stood before the fused first trial, kept as the
/// oracle of [`gd_fusion`]: every trial is evaluated by `value`, and each
/// accepted point again by `value_grad`.
pub fn gd_unfused(
    obj: &dyn Objective,
    x0: &[f64],
    opts: &GdOptions,
    observe: &mut dyn FnMut(usize, &[f64], f64),
) -> GdResult {
    let mut x = x0.to_vec();
    let (mut fx, mut g) = obj.value_grad(&x);
    let mut trial = vec![0.0; x.len()];
    for it in 0..opts.max_iter {
        observe(it, &x, fx);
        if vector::norm_inf(&g) <= opts.grad_tol {
            return GdResult { x, value: fx, iterations: it, converged: true };
        }
        let g2 = vector::dot(&g, &g);
        let mut step = opts.init_step;
        let mut accepted = false;
        for _ in 0..60 {
            for (t, (xi, gi)) in trial.iter_mut().zip(x.iter().zip(g.iter())) {
                *t = xi - step * gi;
            }
            let ft = obj.value(&trial);
            if ft.is_finite() && ft <= fx - opts.armijo_c * step * g2 {
                accepted = true;
                break;
            }
            step *= opts.shrink;
        }
        if !accepted {
            return GdResult { x, value: fx, iterations: it, converged: false };
        }
        std::mem::swap(&mut x, &mut trial);
        (fx, g) = obj.value_grad(&x);
    }
    GdResult { x, value: fx, iterations: opts.max_iter, converged: false }
}

/// An objective with its `value_grad` override hidden: the trait's default
/// `(value, gradient)` pair, i.e. two separate evaluations.
pub struct Unfused<'a>(pub &'a dyn Objective);

impl Objective for Unfused<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn value(&self, x: &[f64]) -> f64 {
        self.0.value(x)
    }
    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        self.0.gradient(x)
    }
}

fn iterate(x: &[f64], value: f64) -> State {
    let mut s = State::of_params("x", x);
    s.fields.push(("value".into(), value));
    s
}

/// Minimise `obj` with [`gd::minimize_observed`] and with [`gd_unfused`] on
/// [`Unfused`]`(obj)` and lockstep-compare every iterate, its value and the
/// final result. Under [`Tolerance::Exact`] this holds exactly when `obj`'s
/// `value_grad` returns the bits of `(value, gradient)`.
pub fn gd_fusion(obj: &dyn Objective, x0: &[f64], opts: &GdOptions, tol: Tolerance) -> Report {
    let run = |fused: bool| {
        let mut stream = Vec::new();
        let observe = &mut |_: usize, x: &[f64], v: f64| stream.push(iterate(x, v));
        let r = if fused {
            gd::minimize_observed(obj, x0, opts, observe)
        } else {
            gd_unfused(&Unfused(obj), x0, opts, observe)
        };
        let mut last = iterate(&r.x, r.value);
        last.fields.push(("iterations".into(), r.iterations as f64));
        last.fields.push(("converged".into(), f64::from(u8::from(r.converged))));
        stream.push(last);
        stream
    };
    lockstep("gd/fused-vs-unfused", &run(true), &run(false), tol)
}

/// One augmented-Lagrangian solve with fused inner GD vs the same outer
/// loop over [`gd_unfused`] on the unfused Lagrangian (whose value and
/// gradient each evaluate `f` and every constraint separately). Every inner
/// iterate and the final result are compared.
pub fn al_fusion(
    f: &dyn Objective,
    constraints: &[&dyn Objective],
    x0: &[f64],
    opts: &AugLagOptions,
    tol: Tolerance,
) -> Report {
    let run = |fused: bool| {
        let mut stream = Vec::new();
        let r = minimize_augmented_lagrangian_with(f, constraints, x0, opts, |al, start, o| {
            let observe = &mut |_: usize, x: &[f64], v: f64| stream.push(iterate(x, v));
            if fused {
                gd::minimize_observed(al, start, o, observe)
            } else {
                gd_unfused(&Unfused(al), start, o, observe)
            }
        });
        let mut last = iterate(&r.x, r.objective);
        last.fields.push(("max_violation".into(), r.max_violation));
        last.fields.push(("outer_iterations".into(), r.outer_iterations as f64));
        stream.push(last);
        stream
    };
    lockstep("al/fused-vs-unfused", &run(true), &run(false), tol)
}

/// Solve a small instance exactly and with WalkSAT and compare the reached
/// optimum. The local search emits a per-restart incumbent stream; the
/// comparison is on the final incumbent (fields `soft_weight`, `hard_ok`),
/// and the report's `checkpoints` counts the restarts observed.
pub fn maxsat_agreement(
    problem: &MaxSatProblem,
    seed: u64,
    flips: usize,
    restarts: usize,
    tol: Tolerance,
) -> Report {
    let exact = problem.solve_exact();
    let mut incumbents = Vec::new();
    let local = problem.solve_local_search_observed(seed, flips, restarts, &mut |_, w, ok| {
        incumbents.push((w, ok));
    });
    let summary = |soft: f64, hard_ok: bool| {
        vec![State::new([
            ("soft_weight".to_string(), soft),
            ("hard_ok".to_string(), f64::from(u8::from(hard_ok))),
        ])]
    };
    let mut report = lockstep(
        "maxsat/exact-vs-walksat",
        &summary(exact.soft_weight, exact.hard_ok),
        &summary(local.soft_weight, local.hard_ok),
        tol,
    );
    report.checkpoints = incumbents.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bump;
    use fairlens_solver::{Clause, Lit};

    /// Deterministic synthetic design: two informative columns plus an
    /// intercept-friendly spread, labels from a fixed linear rule.
    fn synthetic(n: usize) -> (Matrix, Vec<u8>) {
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = ((i * 7919) % 97) as f64 / 48.5 - 1.0;
            let b = ((i * 104729) % 89) as f64 / 44.5 - 1.0;
            rows.push(vec![a, b]);
            y.push(u8::from(1.4 * a - 2.2 * b + 0.3 > 0.0));
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn lr_determinism_is_bit_exact() {
        let (x, y) = synthetic(300);
        for solver in [Solver::Irls, Solver::GradientDescent] {
            let opts = LogisticOptions { solver, ..Default::default() };
            let r = lr_determinism(&x, &y, None, &opts, Tolerance::Exact).unwrap();
            assert!(r.ok(), "{r}");
            assert!(r.checkpoints > 0);
        }
    }

    #[test]
    fn lr_determinism_catches_injected_perturbation() {
        let (x, y) = synthetic(300);
        let opts = LogisticOptions::default();
        let a = capture_lr(&x, &y, None, &opts).unwrap();
        let mut b = a.clone();
        let k = b.len() / 2;
        b[k].fields[0].1 = bump(b[k].fields[0].1, 1);
        let r = lockstep("lr/irls-vs-irls", &a, &b, Tolerance::Exact);
        let d = r.divergence.expect("1-ulp perturbation must be caught");
        assert_eq!(d.iteration, k);
        assert_eq!(d.field, "beta[0]");
        assert_eq!(d.ulps(), 1);
    }

    #[test]
    fn lr_agreement_newton_vs_gd() {
        let (x, y) = synthetic(400);
        let opts = LogisticOptions { l2: 0.01, ..Default::default() };
        let r = lr_agreement(&x, &y, None, &opts, Tolerance::Ulps(AGREEMENT_ULPS)).unwrap();
        assert!(r.ok(), "{r}");
        // A sign flip on a coefficient is far outside any honest bound.
        let newton = LogisticRegression::fit_weighted(&x, &y, None, &opts).unwrap();
        let flipped = State::of_params("w", &[-newton.weights()[0], newton.weights()[1]]);
        let honest = State::of_params("w", newton.weights());
        assert!(!lockstep("t", &[honest], &[flipped], Tolerance::Ulps(AGREEMENT_ULPS)).ok());
    }

    #[test]
    fn optim_agreement_gd_vs_adam() {
        let (x, y) = synthetic(200);
        let loss = fairlens_model::LogisticLoss::new(&x, &y, 0.05);
        let x0 = vec![0.0; loss.dim()];
        let r = optim_agreement(&loss, &x0, Tolerance::Ulps(AGREEMENT_ULPS));
        assert!(r.ok(), "{r}");
    }

    #[test]
    fn maxsat_exact_vs_walksat_agree_on_small_instances() {
        let mut p = MaxSatProblem::new(8);
        for v in 0..7 {
            p.add(Clause::hard(vec![Lit::neg(v), Lit::pos(v + 1)])).unwrap();
        }
        p.add(Clause::soft(vec![Lit::pos(0)], 2.5).unwrap()).unwrap();
        p.add(Clause::soft(vec![Lit::neg(7)], 4.0).unwrap()).unwrap();
        p.add(Clause::soft(vec![Lit::pos(3)], 1.0).unwrap()).unwrap();
        let r = maxsat_agreement(&p, 11, 4000, 8, Tolerance::Exact);
        assert!(r.ok(), "{r}");
        assert!(r.checkpoints > 0);
    }

    /// LogisticRegression's GD path (the fallback IRLS takes under
    /// separation, and `Solver::GradientDescent`) follows the pre-fusion
    /// loop bit for bit, weighted and unweighted.
    #[test]
    fn lr_gd_path_matches_the_unfused_loop() {
        // Separable labels: GD runs to its iteration cap, no early exit.
        let (x, y) = synthetic(300);
        let w: Vec<f64> = (0..300).map(|i| 0.5 + (i % 7) as f64 / 4.0).collect();
        let opts = LogisticOptions { solver: Solver::GradientDescent, ..Default::default() };
        for weights in [None, Some(&w[..])] {
            let fused = capture_lr(&x, &y, weights, &opts).unwrap();
            // The loss and options the GD path builds from `opts`.
            let loss = fairlens_model::LogisticLoss::new(&x, &y, opts.l2.max(1e-6));
            let loss = match weights {
                Some(w) => loss.with_sample_weights(w),
                None => loss,
            };
            let gd_opts =
                GdOptions { max_iter: opts.max_iter.max(300), grad_tol: opts.tol.max(1e-7), ..Default::default() };
            let mut oracle = Vec::new();
            gd_unfused(&Unfused(&loss), &vec![0.0; loss.dim()], &gd_opts, &mut |_, p, _| {
                oracle.push(State::of_params("beta", p))
            });
            let r = lockstep("lr/gd-vs-unfused", &fused, &oracle, Tolerance::Exact);
            assert!(r.ok() && r.checkpoints >= 300, "{r}");
            let r = gd_fusion(&loss, &vec![0.0; loss.dim()], &gd_opts, Tolerance::Exact);
            assert!(r.ok(), "{r}");
        }
    }

    /// A `value_grad` override one ulp off its `value` is caught.
    #[test]
    fn gd_fusion_catches_a_value_grad_override_that_drifts() {
        struct Drifting<'a>(fairlens_model::LogisticLoss<'a>);
        impl Objective for Drifting<'_> {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn value(&self, x: &[f64]) -> f64 {
                self.0.value(x)
            }
            fn gradient(&self, x: &[f64]) -> Vec<f64> {
                self.0.gradient(x)
            }
            fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
                let (v, g) = self.0.value_grad(x);
                (bump(v, 1), g)
            }
        }
        let (x, y) = synthetic(200);
        let obj = Drifting(fairlens_model::LogisticLoss::new(&x, &y, 0.05));
        let r = gd_fusion(&obj, &[0.0; 3], &GdOptions::default(), Tolerance::Exact);
        assert!(!r.ok(), "{r}");
        assert!(gd_fusion(&obj.0, &[0.0; 3], &GdOptions::default(), Tolerance::Exact).ok());
    }
}
