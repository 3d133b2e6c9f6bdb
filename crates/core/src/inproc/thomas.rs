//! Thomas^DP / Thomas^EO — the Seldonian framework (Thomas et al.,
//! *Preventing undesirable behavior of intelligent machines*; paper A.2).
//!
//! Training data is split into a candidate set `D₁` and a safety set `D₂`:
//!
//! 1. **candidate search** on `D₁`: fairness-penalised logistic models are
//!    trained over an escalating penalty ladder, producing candidates with
//!    decreasing predicted violation;
//! 2. **safety test** on `D₂`: a candidate is accepted only if its
//!    violation `ĝ` plus a Hoeffding confidence term
//!    `√(ln(1/δ) / (2 m))` is below the tolerance — guaranteeing, with
//!    probability `1 − δ`, that the deployed classifier's true violation is
//!    acceptable (δ = 0.05 per the paper);
//! 3. if no candidate passes, the behaviour is **NSF** ("no solution
//!    found"); since the benchmark must still produce predictions, the most
//!    conservative candidate is returned and flagged.

use fairlens_frame::{split, Dataset, Encoder};
use fairlens_linalg::{vector, Matrix};
use fairlens_model::{LogisticLoss, LogisticRegression};
use fairlens_optim::{gd, Objective};
use rand::rngs::StdRng;

use crate::error::CoreError;
use crate::pipeline::InProcessor;
use crate::snapshot::FittedModel;

/// The fairness notion a Thomas instance enforces. The paper evaluates the
/// first two and excludes the last two "as equalized odds encompasses both
/// these notions"; the framework supports all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThomasNotion {
    /// Demographic parity: `|Pr(Ŷ=1|S=0) − Pr(Ŷ=1|S=1)| ≤ tolerance`.
    DemographicParity,
    /// Equalized odds: `max(|TPRB|, |TNRB|) ≤ tolerance`.
    EqualizedOdds,
    /// Equal opportunity: `|TPRB| ≤ tolerance`.
    EqualOpportunity,
    /// Predictive equality: `|TNRB| ≤ tolerance`.
    PredictiveEquality,
}

/// The Seldonian trainer.
#[derive(Debug, Clone)]
pub struct Thomas {
    /// Enforced notion.
    pub notion: ThomasNotion,
    /// Violation tolerance in the safety test.
    pub tolerance: f64,
    /// Safety-test confidence `δ` (paper: 0.05).
    pub delta: f64,
    /// Penalty ladder for the candidate search.
    pub penalties: Vec<f64>,
}

impl Thomas {
    /// Construct with the paper-aligned defaults.
    pub fn new(notion: ThomasNotion) -> Self {
        Self {
            notion,
            tolerance: 0.08,
            delta: 0.05,
            penalties: vec![0.0, 1.0, 4.0, 16.0, 64.0, 256.0],
        }
    }
}

/// Fairness-penalised logistic objective: loss + μ · (soft violation)².
///
/// The violation is computed on *probabilities* (not hard labels) so the
/// penalty stays differentiable — the candidate-search trick Thomas et al.
/// use with their gradient-based search. One GEMV of margins per evaluation
/// feeds both the loss and the soft group rates.
struct PenalisedLoss<'a> {
    loss: LogisticLoss<'a>,
    x: &'a Matrix,
    y: &'a [u8],
    s: &'a [u8],
    mu: f64,
    /// Per gap: the label filter and the row counts of groups 0 and 1
    /// under it (at least 1), counted once.
    cells: Vec<(Option<u8>, f64, f64)>,
}

impl<'a> PenalisedLoss<'a> {
    fn new(x: &'a Matrix, y: &'a [u8], s: &'a [u8], notion: ThomasNotion, mu: f64, l2: f64) -> Self {
        let filters: &[Option<u8>] = match notion {
            ThomasNotion::DemographicParity => &[None],
            ThomasNotion::EqualizedOdds => &[Some(1), Some(0)],
            ThomasNotion::EqualOpportunity => &[Some(1)],
            ThomasNotion::PredictiveEquality => &[Some(0)],
        };
        let count = |group: u8, yf: Option<u8>| -> f64 {
            (0..y.len()).filter(|&i| s[i] == group && yf.is_none_or(|v| y[i] == v)).count() as f64
        };
        let cells =
            filters.iter().map(|&yf| (yf, count(0, yf).max(1.0), count(1, yf).max(1.0))).collect();
        Self { loss: LogisticLoss::new(x, y, l2), x, y, s, mu, cells }
    }

    /// Soft group-rate gaps from the per-row probabilities `p`, one per
    /// entry of `cells`.
    fn soft_gaps(&self, p: &[f64]) -> Vec<f64> {
        self.cells
            .iter()
            .map(|&(yf, _, _)| group_mean(p, self.s, 0, yf, self.y) - group_mean(p, self.s, 1, yf, self.y))
            .collect()
    }

    fn penalty(&self, gaps: &[f64]) -> f64 {
        self.mu * gaps.iter().map(|g| g * g).sum::<f64>()
    }

    /// Adds the penalty's gradient to the loss gradient `g`.
    fn add_penalty_gradient(&self, p: &[f64], gaps: &[f64], g: &mut [f64]) {
        let d = self.x.cols();
        for (gap, &(yf, c0, c1)) in gaps.iter().zip(self.cells.iter()) {
            for (i, &pi) in p.iter().enumerate() {
                if yf.is_some_and(|v| self.y[i] != v) {
                    continue;
                }
                // d gap / d z_i = ±σ'(z_i)/|group|
                let dgdz = match self.s[i] {
                    0 => pi * (1.0 - pi) / c0,
                    _ => -pi * (1.0 - pi) / c1,
                };
                let coeff = self.mu * 2.0 * gap * dgdz;
                if coeff != 0.0 {
                    vector::axpy(coeff, self.x.row(i), &mut g[..d]);
                    g[d] += coeff;
                }
            }
        }
    }
}

/// Mean of `p` over rows with `s == group` (and `y == y_filter` if given).
fn group_mean(p: &[f64], s: &[u8], group: u8, y_filter: Option<u8>, y: &[u8]) -> f64 {
    let mut sum = 0.0;
    let mut cnt = 0usize;
    for i in 0..p.len() {
        if s[i] != group {
            continue;
        }
        if let Some(yf) = y_filter {
            if y[i] != yf {
                continue;
            }
        }
        sum += p[i];
        cnt += 1;
    }
    if cnt == 0 {
        0.0
    } else {
        sum / cnt as f64
    }
}

impl Objective for PenalisedLoss<'_> {
    fn dim(&self) -> usize {
        self.loss.dim()
    }

    fn value(&self, params: &[f64]) -> f64 {
        let mut p = self.loss.margins(params);
        let loss = self.loss.value_at_margins(params, &mut p);
        loss + self.penalty(&self.soft_gaps(&p))
    }

    fn gradient(&self, params: &[f64]) -> Vec<f64> {
        let p = self.loss.probs(params);
        let mut g = self.loss.gradient_at_probs(params, &p);
        self.add_penalty_gradient(&p, &self.soft_gaps(&p), &mut g);
        g
    }

    fn value_grad(&self, params: &[f64]) -> (f64, Vec<f64>) {
        let mut p = self.loss.margins(params);
        let loss = self.loss.value_at_margins(params, &mut p);
        let gaps = self.soft_gaps(&p);
        let mut g = self.loss.gradient_at_probs(params, &p);
        self.add_penalty_gradient(&p, &gaps, &mut g);
        (loss + self.penalty(&gaps), g)
    }
}

/// Hard-prediction violation of the notion on a dataset.
fn hard_violation(
    notion: ThomasNotion,
    preds: &[u8],
    y: &[u8],
    s: &[u8],
) -> f64 {
    match notion {
        ThomasNotion::DemographicParity => {
            let pf: Vec<f64> = preds.iter().map(|&v| v as f64).collect();
            (group_mean(&pf, s, 0, None, y) - group_mean(&pf, s, 1, None, y)).abs()
        }
        ThomasNotion::EqualizedOdds => {
            let tprb = fairlens_metrics::tpr_balance(y, preds, s).abs();
            let tnrb = fairlens_metrics::tnr_balance(y, preds, s).abs();
            tprb.max(tnrb)
        }
        ThomasNotion::EqualOpportunity => fairlens_metrics::tpr_balance(y, preds, s).abs(),
        ThomasNotion::PredictiveEquality => fairlens_metrics::tnr_balance(y, preds, s).abs(),
    }
}

impl InProcessor for Thomas {
    fn train(&self, train: &Dataset, rng: &mut StdRng) -> Result<FittedModel, CoreError> {
        // Candidate / safety split (60/40).
        let (d1, d2) = split::train_test_split(train, 0.4, rng);
        let encoder = Encoder::fit(&d1, true);
        let x1 = encoder.transform(&d1).matrix;
        let x2 = encoder.transform(&d2).matrix;

        // Safety-test confidence inflation: per-group Hoeffding bound with
        // the smaller group's sample size (conservative).
        let m = d2.group_size(0).min(d2.group_size(1)).max(1) as f64;
        let bound = ((1.0 / self.delta).ln() / (2.0 * m)).sqrt();

        let mut fallback: Option<LogisticRegression> = None;
        let mut fallback_violation = f64::INFINITY;

        for &mu in &self.penalties {
            let pl = PenalisedLoss::new(&x1, d1.labels(), d1.sensitive(), self.notion, mu, 1e-3);
            let res = gd::minimize(
                &pl,
                &vec![0.0; pl.dim()],
                &gd::GdOptions { max_iter: 250, ..Default::default() },
            );
            let (w, b) = res.x.split_at(x1.cols());
            let model = LogisticRegression::from_params(w.to_vec(), b[0]);

            // Safety test on D2.
            let preds = model.predict(&x2);
            let g_hat = hard_violation(self.notion, &preds, d2.labels(), d2.sensitive());
            if g_hat + bound <= self.tolerance {
                return Ok(FittedModel::linear(encoder, model));
            }
            if g_hat < fallback_violation {
                fallback_violation = g_hat;
                fallback = Some(model);
            }
        }

        // NSF: no candidate passed. The paper's Thomas returns "no solution
        // found"; the benchmark still needs predictions, so deploy the most
        // conservative candidate.
        let model = fallback.ok_or_else(|| {
            CoreError::Infeasible("Thomas produced no candidates at all".into())
        })?;
        Ok(FittedModel::linear(encoder, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn biased(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let si = u8::from(rng.gen::<f64>() < 0.5);
            let a: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let p = vector::sigmoid(2.0 * a + 1.4 * (si as f64 * 2.0 - 1.0));
            x.push(a);
            s.push(si);
            y.push(u8::from(rng.gen::<f64>() < p));
        }
        Dataset::builder("tb")
            .numeric("x", x)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    #[test]
    fn dp_variant_controls_parity_violation() {
        let d = biased(6000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let m = Thomas::new(ThomasNotion::DemographicParity)
            .train(&d, &mut rng)
            .unwrap();
        let preds = m.predict(&d);
        let v = hard_violation(ThomasNotion::DemographicParity, &preds, d.labels(), d.sensitive());
        assert!(v < 0.15, "DP violation {v}");
    }

    #[test]
    fn eo_variant_controls_odds_violation() {
        let d = biased(6000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let m = Thomas::new(ThomasNotion::EqualizedOdds).train(&d, &mut rng).unwrap();
        let preds = m.predict(&d);
        let v = hard_violation(ThomasNotion::EqualizedOdds, &preds, d.labels(), d.sensitive());
        assert!(v < 0.2, "EO violation {v}");
    }

    #[test]
    fn single_sided_notions_control_their_gap() {
        let d = biased(5000, 21);
        for notion in [ThomasNotion::EqualOpportunity, ThomasNotion::PredictiveEquality] {
            let mut rng = StdRng::seed_from_u64(22);
            let m = Thomas::new(notion).train(&d, &mut rng).unwrap();
            let preds = m.predict(&d);
            let v = hard_violation(notion, &preds, d.labels(), d.sensitive());
            assert!(v < 0.2, "{notion:?} violation {v}");
        }
    }

    const NOTIONS: [ThomasNotion; 4] = [
        ThomasNotion::DemographicParity,
        ThomasNotion::EqualizedOdds,
        ThomasNotion::EqualOpportunity,
        ThomasNotion::PredictiveEquality,
    ];

    #[test]
    fn penalty_gradient_matches_numeric() {
        let d = biased(200, 5);
        let enc = Encoder::fit(&d, true);
        let x = enc.transform(&d).matrix;
        let params: Vec<f64> = (0..x.cols() + 1).map(|i| 0.1 * (i as f64 - 1.0)).collect();
        for notion in NOTIONS {
            for mu in [0.0, 3.0, 256.0] {
                let pl = PenalisedLoss::new(&x, d.labels(), d.sensitive(), notion, mu, 0.01);
                let ag = pl.gradient(&params);
                let ng = fairlens_optim::numeric_gradient(|p| pl.value(p), &params, 1e-6);
                for (a, n) in ag.iter().zip(ng.iter()) {
                    assert!(
                        (a - n).abs() < 1e-4 * n.abs().max(1.0),
                        "{notion:?} μ={mu}: analytic {a} vs numeric {n}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The fused evaluation returns exactly the bits of the separate
        /// value and gradient, for every notion.
        #[test]
        fn value_grad_is_bit_identical_to_value_and_gradient(
            seed in 0u64..1_000,
            n in 20usize..200,
            mu in 0.0f64..300.0,
            params in proptest::prop::collection::vec(-3.0f64..3.0, 3),
        ) {
            let d = biased(n, seed);
            let x = Encoder::fit(&d, true).transform(&d).matrix;
            let params = &params[..x.cols() + 1];
            for notion in NOTIONS {
                let pl = PenalisedLoss::new(&x, d.labels(), d.sensitive(), notion, mu, 1e-3);
                let (v, g) = pl.value_grad(params);
                proptest::prop_assert_eq!(v.to_bits(), pl.value(params).to_bits());
                let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&g), bits(&pl.gradient(params)));
            }
        }
    }

    /// Every candidate of the μ ladder follows the pre-fusion GD loop bit
    /// for bit.
    #[test]
    fn penalty_ladder_matches_the_unfused_loop() {
        let d = biased(600, 9);
        let x = Encoder::fit(&d, true).transform(&d).matrix;
        let opts = gd::GdOptions { max_iter: 250, ..Default::default() };
        for notion in NOTIONS {
            for &mu in &Thomas::new(notion).penalties {
                let pl = PenalisedLoss::new(&x, d.labels(), d.sensitive(), notion, mu, 1e-3);
                let r = fairlens_xverify::pairs::gd_fusion(
                    &pl,
                    &vec![0.0; pl.dim()],
                    &opts,
                    fairlens_xverify::Tolerance::Exact,
                );
                assert!(r.ok() && r.checkpoints > 0, "{notion:?} μ={mu}: {r}");
            }
        }
    }

    #[test]
    fn unbiased_data_accepted_with_zero_penalty() {
        // No group signal → the μ = 0 candidate should pass the safety test
        // and retain full accuracy.
        let mut rng = StdRng::seed_from_u64(6);
        let n = 4000;
        let mut x = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            x.push(a);
            s.push(u8::from(rng.gen::<f64>() < 0.5));
            y.push(u8::from(rng.gen::<f64>() < vector::sigmoid(3.0 * a)));
        }
        let d = Dataset::builder("ub")
            .numeric("x", x)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap();
        let mut rng2 = StdRng::seed_from_u64(7);
        let m = Thomas::new(ThomasNotion::DemographicParity)
            .train(&d, &mut rng2)
            .unwrap();
        let preds = m.predict(&d);
        let acc =
            preds.iter().zip(d.labels()).filter(|&(p, t)| p == t).count() as f64 / n as f64;
        assert!(acc > 0.75, "accuracy {acc}");
    }
}
