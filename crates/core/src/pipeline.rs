//! The unified fair-classification pipeline.
//!
//! Every evaluated variant plugs into one of three stage traits
//! ([`Preprocessor`], [`InProcessor`], [`Postprocessor`]); [`Approach::fit`]
//! assembles the full pipeline the paper times in its efficiency
//! experiments:
//!
//! * **pre**: repair the training data, then train the standard logistic
//!   regression on the repaired data (the paper pairs every pre-processing
//!   method with logistic regression);
//! * **in**: train the approach's own constrained model;
//! * **post**: train the standard logistic regression, then fit a
//!   prediction adjuster on its training-set probabilities.
//!
//! The stage traits are the extension points; what they produce is not.
//! An in-processor returns a concrete [`FittedModel`] and a post-processor
//! an [`Adjuster`], so every [`FittedPipeline`] is one of the few fitted
//! states [`crate::snapshot`] lists, predicts through one code path, and
//! is saved and loaded without conversion.

use std::sync::Arc;

use fairlens_frame::{Dataset, Encoder};
use fairlens_model::{LogisticOptions, LogisticRegression};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::CoreError;
use crate::snapshot::{Adjuster, FittedModel};

/// The stage at which an approach enforces fairness (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Fairness-unaware logistic regression (`LR`).
    Baseline,
    /// Data repair before training.
    Pre,
    /// Constrained learning.
    In,
    /// Prediction adjustment after training.
    Post,
}

impl Stage {
    /// Display label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Baseline => "baseline",
            Stage::Pre => "pre",
            Stage::In => "in",
            Stage::Post => "post",
        }
    }
}

/// A data-repair approach: `Dataset → Dataset`.
pub trait Preprocessor: Send + Sync {
    /// Produce the repaired training dataset.
    fn repair(&self, train: &Dataset, rng: &mut StdRng) -> Result<Dataset, CoreError>;

    /// Whether the downstream classifier should see `S` as a feature.
    ///
    /// Defaults to `true` (the AIF360 convention). Feld overrides this to
    /// `false`: disparate-impact removal repairs `X` so the model can be
    /// trained *without* the sensitive attribute — leaving `S` in the
    /// feature set would let the classifier re-derive exactly the signal
    /// the repair removed.
    fn include_sensitive_in_model(&self) -> bool {
        true
    }
}

/// An in-processing approach: constrained training.
pub trait InProcessor: Send + Sync {
    /// Train on `train`, returning a predictor.
    fn train(&self, train: &Dataset, rng: &mut StdRng) -> Result<FittedModel, CoreError>;
}

/// A post-processing approach: fits an adjuster from the base classifier's
/// training-set probabilities, ground truth and groups.
pub trait Postprocessor: Send + Sync {
    /// Fit the adjuster.
    fn fit(
        &self,
        probs: &[f64],
        y: &[u8],
        sensitive: &[u8],
        rng: &mut StdRng,
    ) -> Result<Adjuster, CoreError>;
}

/// The mechanism behind an [`Approach`].
#[derive(Clone)]
pub enum ApproachKind {
    /// Plain logistic regression, no fairness mechanism.
    Baseline,
    /// Data repair + logistic regression.
    Pre(Arc<dyn Preprocessor>),
    /// Constrained learner.
    In(Arc<dyn InProcessor>),
    /// Logistic regression + prediction adjustment.
    Post(Arc<dyn Postprocessor>),
}

/// One evaluated variant (a row of the paper's Fig. 8 right-hand column).
#[derive(Clone)]
pub struct Approach {
    /// Display name, e.g. `"KamCal^DP"`.
    pub name: &'static str,
    /// Fairness-enforcing stage.
    pub stage: Stage,
    /// Which of the five evaluated fairness metrics the variant explicitly
    /// optimises (the ↑ arrows in Fig. 10): subset of
    /// `{"DI", "TPRB", "TNRB"}` (none of the evaluated approaches target CD
    /// or CRD directly).
    pub targets: &'static [&'static str],
    /// The mechanism.
    pub kind: ApproachKind,
}

impl std::fmt::Debug for Approach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Approach")
            .field("name", &self.name)
            .field("stage", &self.stage.label())
            .field("targets", &self.targets)
            .finish()
    }
}

/// Train the standard classifier of the benchmark: logistic regression
/// over the fitted encoding of `train`. `include_sensitive` controls
/// whether `S` enters the encoding; the baseline and the post-processing
/// base include it (the AIF360 convention), which is what gives them a
/// non-trivial causal-discrimination surface.
fn train_lr(train: &Dataset, include_sensitive: bool) -> Result<FittedModel, CoreError> {
    let (encoder, feats) = {
        let _span = fairlens_trace::span("encode");
        let encoder = Encoder::fit(train, include_sensitive);
        let feats = encoder.transform(train);
        (encoder, feats)
    };
    let model =
        LogisticRegression::fit(&feats.matrix, train.labels(), &LogisticOptions::default())?;
    Ok(FittedModel::linear(encoder, model))
}

/// A fully trained pipeline ready to predict on fresh data. This is also
/// the persisted form: [`crate::snapshot`] serializes it as it is.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedPipeline {
    /// Baseline / pre / in: a plain predictor.
    Model(FittedModel),
    /// Post: base classifier + prediction adjuster. The stored seed makes
    /// randomised adjusters (Pleiss) deterministic per `predict` call.
    Adjusted {
        /// The underlying fairness-unaware classifier.
        base: FittedModel,
        /// The fitted adjustment rule.
        adjuster: Adjuster,
        /// Seed for prediction-time randomness.
        seed: u64,
    },
}

impl FittedPipeline {
    /// Predict hard labels for `data` (which must share the training
    /// schema). Deterministic for a fixed pipeline and dataset.
    pub fn predict(&self, data: &Dataset) -> Vec<u8> {
        match self {
            FittedPipeline::Model(m) => m.predict(data),
            FittedPipeline::Adjusted { base, adjuster, seed } => {
                let probs = base.predict_proba(data);
                let mut rng = StdRng::seed_from_u64(*seed ^ data.n_rows() as u64);
                adjuster.adjust(&probs, data.sensitive(), &mut rng)
            }
        }
    }

    /// Per-row scores `P(Y = 1 | x) ∈ [0, 1]`.
    ///
    /// For plain predictors this is the model's probability; for adjusted
    /// pipelines it is the rule's deterministic score (the expected
    /// adjusted label under the rule's own randomness) — so, unlike
    /// [`Self::predict`], it never consumes randomness.
    pub fn predict_proba(&self, data: &Dataset) -> Vec<f64> {
        match self {
            FittedPipeline::Model(m) => m.predict_proba(data),
            FittedPipeline::Adjusted { base, adjuster, .. } => {
                adjuster.scores(&base.predict_proba(data), data.sensitive())
            }
        }
    }

    /// Labels and scores from one pass over `data`.
    ///
    /// Bit-identical to calling [`Self::predict`] and
    /// [`Self::predict_proba`] separately: plain models share one decision
    /// pass, and adjusted pipelines compute the (deterministic) base
    /// probabilities once and seed the adjustment RNG exactly as
    /// [`Self::predict`] does.
    pub fn predict_with_proba(&self, data: &Dataset) -> (Vec<u8>, Vec<f64>) {
        match self {
            FittedPipeline::Model(m) => m.predict_with_proba(data),
            FittedPipeline::Adjusted { base, adjuster, seed } => {
                let probs = base.predict_proba(data);
                let mut rng = StdRng::seed_from_u64(*seed ^ data.n_rows() as u64);
                let labels = adjuster.adjust(&probs, data.sensitive(), &mut rng);
                let scores = adjuster.scores(&probs, data.sensitive());
                (labels, scores)
            }
        }
    }

    /// Whether [`Self::predict`] draws randomness that couples rows within
    /// a call (see [`Adjuster::is_stochastic`]). `false` means per-row
    /// predictions are independent of batch composition, so a serving
    /// layer may coalesce rows from different requests.
    pub fn is_stochastic(&self) -> bool {
        match self {
            FittedPipeline::Model(_) => false,
            FittedPipeline::Adjusted { adjuster, .. } => adjuster.is_stochastic(),
        }
    }
}

impl Approach {
    /// Train the full pipeline on `train` with deterministic randomness
    /// derived from `seed`. This is the unit the efficiency experiments
    /// time.
    pub fn fit(&self, train: &Dataset, seed: u64) -> Result<FittedPipeline, CoreError> {
        let mut rng = StdRng::seed_from_u64(seed);
        match &self.kind {
            ApproachKind::Baseline => Ok(FittedPipeline::Model(train_lr(train, true)?)),
            ApproachKind::Pre(p) => {
                let repaired = {
                    let _span = fairlens_trace::span("repair");
                    p.repair(train, &mut rng)?
                };
                if repaired.n_rows() == 0 {
                    return Err(CoreError::BadInput("repair removed every tuple".into()));
                }
                let with_s = p.include_sensitive_in_model();
                Ok(FittedPipeline::Model(train_lr(&repaired, with_s)?))
            }
            ApproachKind::In(i) => Ok(FittedPipeline::Model(i.train(train, &mut rng)?)),
            ApproachKind::Post(p) => {
                let base = train_lr(train, true)?;
                let probs = base.predict_proba(train);
                let adjuster = {
                    let _span = fairlens_trace::span("adjust");
                    p.fit(&probs, train.labels(), train.sensitive(), &mut rng)?
                };
                Ok(FittedPipeline::Adjusted { base, adjuster, seed })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        // x correlates with y; s is informative too
        let mut x = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let xi = (i % 10) as f64;
            let si = (i % 2) as u8;
            let yi = u8::from(xi + 3.0 * si as f64 > 6.0);
            x.push(xi);
            s.push(si);
            y.push(yi);
        }
        Dataset::builder("toy")
            .numeric("x", x)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    #[test]
    fn baseline_pipeline_learns() {
        let d = toy(400);
        let approach = Approach {
            name: "LR",
            stage: Stage::Baseline,
            targets: &[],
            kind: ApproachKind::Baseline,
        };
        let fitted = approach.fit(&d, 1).unwrap();
        let preds = fitted.predict(&d);
        let acc = preds
            .iter()
            .zip(d.labels())
            .filter(|&(p, t)| p == t)
            .count() as f64
            / d.n_rows() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn baseline_uses_sensitive_attribute() {
        // y depends on s; flipping s must change some predictions → CD > 0
        let d = toy(400);
        let approach = Approach {
            name: "LR",
            stage: Stage::Baseline,
            targets: &[],
            kind: ApproachKind::Baseline,
        };
        let fitted = approach.fit(&d, 1).unwrap();
        let a = fitted.predict(&d);
        let b = fitted.predict(&d.flip_sensitive());
        assert_ne!(a, b, "sensitive attribute should matter to the baseline");
    }

    #[test]
    fn identity_preprocessor_matches_baseline() {
        struct Identity;
        impl Preprocessor for Identity {
            fn repair(&self, train: &Dataset, _rng: &mut StdRng) -> Result<Dataset, CoreError> {
                Ok(train.clone())
            }
        }
        let d = toy(300);
        let pre = Approach {
            name: "identity",
            stage: Stage::Pre,
            targets: &[],
            kind: ApproachKind::Pre(Arc::new(Identity)),
        };
        let base = Approach {
            name: "LR",
            stage: Stage::Baseline,
            targets: &[],
            kind: ApproachKind::Baseline,
        };
        let p1 = pre.fit(&d, 3).unwrap().predict(&d);
        let p2 = base.fit(&d, 3).unwrap().predict(&d);
        assert_eq!(p1, p2);
    }

    #[test]
    fn threshold_adjuster_applies() {
        struct FitAlwaysPositive;
        impl Postprocessor for FitAlwaysPositive {
            fn fit(
                &self,
                _probs: &[f64],
                _y: &[u8],
                _s: &[u8],
                _rng: &mut StdRng,
            ) -> Result<Adjuster, CoreError> {
                Ok(Adjuster::Hardt(crate::post::HardtRule { p: [[1.0; 2]; 2] }))
            }
        }
        let d = toy(100);
        let post = Approach {
            name: "always-pos",
            stage: Stage::Post,
            targets: &[],
            kind: ApproachKind::Post(Arc::new(FitAlwaysPositive)),
        };
        let preds = post.fit(&d, 1).unwrap().predict(&d);
        assert!(preds.iter().all(|&p| p == 1));
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let d = toy(200);
        let approach = Approach {
            name: "LR",
            stage: Stage::Baseline,
            targets: &[],
            kind: ApproachKind::Baseline,
        };
        let a = approach.fit(&d, 9).unwrap().predict(&d);
        let b = approach.fit(&d, 9).unwrap().predict(&d);
        assert_eq!(a, b);
    }
}
