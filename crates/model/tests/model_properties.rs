//! Property-based tests for the logistic-regression substrate.

use fairlens_linalg::Matrix;
use fairlens_model::{LogisticLoss, LogisticOptions, LogisticRegression};
use fairlens_optim::{numeric_gradient, Objective};
use proptest::prelude::*;

fn design_strategy() -> impl Strategy<Value = (Matrix, Vec<u8>)> {
    (8usize..60, 1usize..4).prop_flat_map(|(n, d)| {
        (
            prop::collection::vec(-2.0f64..2.0, n * d),
            prop::collection::vec(0u8..2, n),
        )
            .prop_map(move |(data, y)| (Matrix::from_vec(n, d, data), y))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loss_gradient_matches_numeric((x, y) in design_strategy()) {
        let loss = LogisticLoss::new(&x, &y, 0.05);
        let params: Vec<f64> = (0..loss.dim()).map(|i| 0.1 * (i as f64) - 0.2).collect();
        let ag = loss.gradient(&params);
        let ng = numeric_gradient(|p| loss.value(p), &params, 1e-6);
        for (a, n) in ag.iter().zip(ng.iter()) {
            prop_assert!((a - n).abs() < 1e-4, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn loss_value_grad_is_bit_identical_to_value_and_gradient(
        (x, y) in design_strategy(),
        params in prop::collection::vec(-40.0f64..40.0, 4),
        weights in prop::collection::vec(0.0f64..3.0, 60),
        l2 in 0.0f64..1.0,
    ) {
        let params = &params[..x.cols() + 1];
        let unweighted = LogisticLoss::new(&x, &y, l2);
        let weighted = LogisticLoss::new(&x, &y, l2).with_sample_weights(&weights[..y.len()]);
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for loss in [&unweighted, &weighted] {
            let (v, g) = loss.value_grad(params);
            prop_assert_eq!(v.to_bits(), loss.value(params).to_bits());
            prop_assert_eq!(bits(&g), bits(&loss.gradient(params)));
        }
    }

    #[test]
    fn fitted_model_beats_or_matches_intercept_only((x, y) in design_strategy()) {
        // degenerate labels are fine — fit must not fail
        let model = LogisticRegression::fit(&x, &y, &LogisticOptions::default());
        prop_assume!(model.is_ok());
        let model = model.unwrap();
        let loss = LogisticLoss::new(&x, &y, 0.0);
        let mut fitted_params = model.weights().to_vec();
        fitted_params.push(model.intercept());
        // intercept-only solution: log-odds of the base rate
        let pos = y.iter().filter(|&&v| v == 1).count() as f64;
        let rate = (pos / y.len() as f64).clamp(1e-6, 1.0 - 1e-6);
        let mut base = vec![0.0; loss.dim()];
        *base.last_mut().unwrap() = (rate / (1.0 - rate)).ln();
        prop_assert!(
            loss.value(&fitted_params) <= loss.value(&base) + 1e-3,
            "fit {} vs intercept-only {}",
            loss.value(&fitted_params),
            loss.value(&base)
        );
    }

    #[test]
    fn probabilities_are_probabilities((x, y) in design_strategy()) {
        let model = LogisticRegression::fit(&x, &y, &LogisticOptions::default());
        prop_assume!(model.is_ok());
        let model = model.unwrap();
        for p in model.predict_proba(&x) {
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
        // hard predictions agree with thresholded probabilities
        let probs = model.predict_proba(&x);
        let preds = model.predict(&x);
        for (p, &h) in probs.iter().zip(preds.iter()) {
            prop_assert_eq!(u8::from(*p >= 0.5), h);
        }
    }

    #[test]
    fn sample_weights_scale_invariant((x, y) in design_strategy(), k in 0.5f64..4.0) {
        // multiplying all weights by a constant must not change the fit
        let w1 = vec![1.0; y.len()];
        let wk: Vec<f64> = w1.iter().map(|v| v * k).collect();
        let m1 = LogisticRegression::fit_weighted(&x, &y, Some(&w1), &LogisticOptions::default());
        let mk = LogisticRegression::fit_weighted(&x, &y, Some(&wk), &LogisticOptions::default());
        prop_assume!(m1.is_ok() && mk.is_ok());
        let (m1, mk) = (m1.unwrap(), mk.unwrap());
        for (a, b) in m1.weights().iter().zip(mk.weights().iter()) {
            prop_assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
    }
}
