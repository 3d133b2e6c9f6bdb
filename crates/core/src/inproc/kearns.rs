//! Kearns^PE — subgroup-fairness auditing (Kearns et al., "preventing
//! fairness gerrymandering"; paper A.2).
//!
//! The paper evaluates the *predictive equality* (FPR parity) variant —
//! noting that the AIF360 build it used "does not include any
//! implementation for demographic parity". Both notions are implemented
//! here: each subgroup `g` must satisfy `α(g)·β(g) ≤ γ` where `α(g)` is the
//! subgroup mass and `β(g)` the FPR gap (predictive equality) or
//! positive-rate gap (demographic parity) between `g` and the population.
//!
//! Training is the fictitious-play reduction to a zero-sum game:
//!
//! 1. the **learner** best-responds with a cost-sensitive logistic
//!    regression under the current tuple weights;
//! 2. the **auditor** best-responds by searching the subgroup collection
//!    for the largest weighted FPR violation;
//! 3. the violating subgroup's negative tuples are up-weighted
//!    (multiplicative weights), pushing the next learner to lower its FPR.
//!
//! The final classifier averages the probability outputs of all rounds'
//! models (the mixture strategy of the game).

use fairlens_frame::{Column, Dataset, Encoder};
use fairlens_linalg::vector;
use fairlens_model::{LogisticOptions, LogisticRegression};
use rand::rngs::StdRng;

use crate::error::CoreError;
use crate::pipeline::InProcessor;
use crate::snapshot::{FittedModel, ModelParams};

/// Which subgroup statistic the auditor equalises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KearnsNotion {
    /// Subgroup FPR ≈ population FPR (the paper's evaluated variant).
    PredictiveEquality,
    /// Subgroup positive-prediction rate ≈ population rate (the variant
    /// missing from the paper's AIF360 build).
    DemographicParity,
}

/// The Kearns et al. subgroup auditor/learner.
#[derive(Debug, Clone)]
pub struct Kearns {
    /// Audited notion.
    pub notion: KearnsNotion,
    /// Violation tolerance `γ` (source-code default 0.005, as the paper
    /// notes).
    pub gamma: f64,
    /// Fictitious-play rounds.
    pub rounds: usize,
    /// Multiplicative-weights learning rate.
    pub eta: f64,
}

impl Default for Kearns {
    fn default() -> Self {
        Self { notion: KearnsNotion::PredictiveEquality, gamma: 0.005, rounds: 8, eta: 0.15 }
    }
}

impl Kearns {
    /// The demographic-parity variant.
    pub fn demographic_parity() -> Self {
        Self { notion: KearnsNotion::DemographicParity, ..Default::default() }
    }
}

/// A subgroup: a predicate over rows, described for diagnostics.
struct Subgroup {
    /// Row membership mask.
    member: Vec<bool>,
}

/// Build the audited subgroup collection: the two sensitive groups, every
/// categorical level, and above/below-median splits of numeric attributes —
/// optionally intersected with the sensitive groups (the "gerrymandered"
/// subgroups the approach exists to protect).
fn build_subgroups(train: &Dataset) -> Vec<Subgroup> {
    let n = train.n_rows();
    let mut out = Vec::new();
    // marginal sensitive groups
    for g in 0..2u8 {
        out.push(Subgroup {
            member: train.sensitive().iter().map(|&s| s == g).collect(),
        });
    }
    // per-attribute splits, plain and intersected with S
    for col in train.columns() {
        let masks: Vec<Vec<bool>> = match col {
            Column::Categorical { codes, levels } => (0..levels.len() as u32)
                .map(|l| codes.iter().map(|&c| c == l).collect())
                .collect(),
            Column::Numeric(v) => {
                let mut sorted = v.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let median = sorted[n / 2];
                vec![
                    v.iter().map(|&x| x <= median).collect(),
                    v.iter().map(|&x| x > median).collect(),
                ]
            }
        };
        for mask in masks {
            for g in 0..2u8 {
                let inter: Vec<bool> = mask
                    .iter()
                    .zip(train.sensitive().iter())
                    .map(|(&m, &s)| m && s == g)
                    .collect();
                out.push(Subgroup { member: inter });
            }
            out.push(Subgroup { member: mask });
        }
    }
    out
}

/// Weighted violation of a subgroup: `α(g) · (stat(g) − stat(D))`, where
/// the statistic is the FPR (predictive equality) or the positive rate
/// (demographic parity).
fn violation(
    notion: KearnsNotion,
    sub: &Subgroup,
    y: &[u8],
    preds: &[u8],
    overall: f64,
) -> f64 {
    let mut hits = 0usize;
    let mut base = 0usize;
    let mut size = 0usize;
    for i in 0..y.len() {
        if !sub.member[i] {
            continue;
        }
        size += 1;
        match notion {
            KearnsNotion::PredictiveEquality => {
                if y[i] == 0 {
                    base += 1;
                    hits += preds[i] as usize;
                }
            }
            KearnsNotion::DemographicParity => {
                base += 1;
                hits += preds[i] as usize;
            }
        }
    }
    if base == 0 || size == 0 {
        return 0.0;
    }
    let alpha = size as f64 / y.len() as f64;
    let stat = hits as f64 / base as f64;
    alpha * (stat - overall)
}

/// The population statistic matching [`violation`].
fn population_stat(notion: KearnsNotion, y: &[u8], preds: &[u8]) -> f64 {
    match notion {
        KearnsNotion::PredictiveEquality => {
            let (fp, neg) = y.iter().zip(preds.iter()).fold((0usize, 0usize), |(f, n), (&t, &p)| {
                if t == 0 {
                    (f + p as usize, n + 1)
                } else {
                    (f, n)
                }
            });
            if neg == 0 {
                0.0
            } else {
                fp as f64 / neg as f64
            }
        }
        KearnsNotion::DemographicParity => {
            preds.iter().map(|&p| p as usize).sum::<usize>() as f64 / preds.len().max(1) as f64
        }
    }
}

impl InProcessor for Kearns {
    fn train(&self, train: &Dataset, _rng: &mut StdRng) -> Result<FittedModel, CoreError> {
        let encoder = Encoder::fit(train, true);
        let x = encoder.transform(train).matrix;
        let y = train.labels();
        let subgroups = build_subgroups(train);

        let mut weights = vec![1.0f64; train.n_rows()];
        let mut members = Vec::with_capacity(self.rounds);

        for _ in 0..self.rounds {
            let model = LogisticRegression::fit_weighted(
                &x,
                y,
                Some(&weights),
                &LogisticOptions::default(),
            )?;
            let preds = model.predict(&x);
            let overall = population_stat(self.notion, y, &preds);
            members.push(model);

            // Auditor best response.
            let (worst_idx, worst_v) = subgroups
                .iter()
                .enumerate()
                .map(|(i, g)| (i, violation(self.notion, g, y, &preds, overall)))
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .unwrap_or((0, 0.0));
            if worst_v.abs() <= self.gamma {
                break; // audit passes
            }
            // Multiplicative weights on the violating subgroup: too many
            // positives/false-positives → raise the cost of predicting 1
            // there (upweight negatives); too few → lower it.
            let factor = (self.eta * worst_v.signum()).exp();
            for i in 0..train.n_rows() {
                let eligible = match self.notion {
                    KearnsNotion::PredictiveEquality => y[i] == 0,
                    KearnsNotion::DemographicParity => y[i] == 0,
                };
                if subgroups[worst_idx].member[i] && eligible {
                    weights[i] *= factor;
                }
            }
            // renormalise to keep the loss scale stable
            let mean_w = vector::mean(&weights);
            for w in weights.iter_mut() {
                *w /= mean_w;
            }
        }

        Ok(FittedModel { encoder, params: ModelParams::Mixture(members) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A subgroup (young unprivileged) with a wildly different FPR under a
    /// naive model.
    fn gerrymandered(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut age = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let si = u8::from(rng.gen::<f64>() < 0.5);
            let a: f64 = rng.gen::<f64>();
            // labels: noisy in the young-unprivileged corner
            let p = if si == 0 && a < 0.5 { 0.5 } else { vector::sigmoid(4.0 * (a - 0.5)) };
            age.push(a);
            s.push(si);
            y.push(u8::from(rng.gen::<f64>() < p));
        }
        Dataset::builder("gm")
            .numeric("age", age)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    fn worst_subgroup_violation(d: &Dataset, preds: &[u8]) -> f64 {
        let subs = build_subgroups(d);
        let (fp, neg) = d
            .labels()
            .iter()
            .zip(preds.iter())
            .fold((0usize, 0usize), |(f, n), (&t, &p)| {
                if t == 0 {
                    (f + p as usize, n + 1)
                } else {
                    (f, n)
                }
            });
        let overall = if neg == 0 { 0.0 } else { fp as f64 / neg as f64 };
        subs.iter()
            .map(|g| violation(KearnsNotion::PredictiveEquality, g, d.labels(), preds, overall).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn auditing_reduces_worst_subgroup_violation() {
        let d = gerrymandered(4000, 1);
        // naive model violation
        let enc = Encoder::fit(&d, true);
        let x = enc.transform(&d).matrix;
        let naive = LogisticRegression::fit(&x, d.labels(), &LogisticOptions::default()).unwrap();
        let naive_v = worst_subgroup_violation(&d, &naive.predict(&x));

        let mut rng = StdRng::seed_from_u64(2);
        let m = Kearns::default().train(&d, &mut rng).unwrap();
        let fair_v = worst_subgroup_violation(&d, &m.predict(&d));
        assert!(
            fair_v <= naive_v + 1e-9,
            "violation should not grow: {naive_v} → {fair_v}"
        );
    }

    #[test]
    fn subgroup_collection_is_rich() {
        let d = gerrymandered(200, 3);
        let subs = build_subgroups(&d);
        // 2 sensitive + (2 numeric splits × 3 variants) = 8
        assert_eq!(subs.len(), 8);
    }

    #[test]
    fn demographic_parity_variant_improves_subgroup_rates() {
        // Strong group base-rate gap driven by a proxy feature: the DP
        // auditor must pull the sensitive groups' positive rates together.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4000;
        let mut signal = Vec::new();
        let mut proxy = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let si = u8::from(rng.gen::<f64>() < 0.5);
            let a: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let pr = (si as f64 * 2.0 - 1.0) + 0.5 * (rng.gen::<f64>() * 2.0 - 1.0);
            y.push(u8::from(rng.gen::<f64>() < vector::sigmoid(1.3 * a + 1.1 * pr)));
            signal.push(a);
            proxy.push(pr);
            s.push(si);
        }
        let d = Dataset::builder("dpb")
            .numeric("signal", signal)
            .numeric("proxy", proxy)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap();

        let sens_gap = |preds: &[u8]| {
            let rate = |g: u8| {
                let (hits, tot) = preds
                    .iter()
                    .zip(d.sensitive().iter())
                    .filter(|&(_, &sv)| sv == g)
                    .fold((0usize, 0usize), |(h, t), (&p, _)| (h + p as usize, t + 1));
                hits as f64 / tot.max(1) as f64
            };
            (rate(1) - rate(0)).abs()
        };

        let enc = Encoder::fit(&d, true);
        let x = enc.transform(&d).matrix;
        let naive = LogisticRegression::fit(&x, d.labels(), &LogisticOptions::default()).unwrap();
        let naive_gap = sens_gap(&naive.predict(&x));
        assert!(naive_gap > 0.25, "setup: naive DP gap {naive_gap}");

        let mut rng2 = StdRng::seed_from_u64(8);
        let m = Kearns::demographic_parity().train(&d, &mut rng2).unwrap();
        let gap = sens_gap(&m.predict(&d));
        assert!(gap < naive_gap, "DP audit should shrink the gap: {naive_gap} → {gap}");
    }

    #[test]
    fn converges_quickly_on_fair_data() {
        // No subgroup structure in the labels → audit passes immediately.
        let mut rng = StdRng::seed_from_u64(4);
        let n = 1000;
        let x: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
        let y: Vec<u8> = x.iter().map(|&v| u8::from(v > 0.5)).collect();
        let s: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let d = Dataset::builder("fair")
            .numeric("x", x)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap();
        let mut rng2 = StdRng::seed_from_u64(5);
        let m = Kearns::default().train(&d, &mut rng2).unwrap();
        let preds = m.predict(&d);
        let acc = preds
            .iter()
            .zip(d.labels())
            .filter(|&(p, t)| p == t)
            .count() as f64
            / n as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }
}
