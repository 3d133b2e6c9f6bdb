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

use std::sync::Arc;

use fairlens_frame::{Dataset, Encoder};
use fairlens_model::{LogisticOptions, LogisticRegression};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::CoreError;

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

/// A model trained by an in-processing approach.
pub trait TrainedModel: Send + Sync {
    /// Hard 0/1 predictions on (possibly counterfactual) data.
    fn predict(&self, data: &Dataset) -> Vec<u8>;

    /// Per-row scores `P(Y = 1 | x) ∈ [0, 1]`.
    ///
    /// The default degrades gracefully to the hard labels as 0/1 scores;
    /// every in-tree model overrides this with its real probabilities.
    /// Implementations must stay consistent with [`Self::predict`]
    /// (`predict[i] == 1 ⇔ predict_proba[i] ≥ 0.5` under the model's own
    /// thresholding).
    fn predict_proba(&self, data: &Dataset) -> Vec<f64> {
        self.predict(data).into_iter().map(f64::from).collect()
    }

    /// Labels and scores together, for callers that need both (the serve
    /// flush path). Must be observationally identical to calling
    /// [`Self::predict`] and [`Self::predict_proba`] separately; models
    /// whose two paths share one decision pass override this to compute
    /// that pass once.
    fn predict_with_proba(&self, data: &Dataset) -> (Vec<u8>, Vec<f64>) {
        (self.predict(data), self.predict_proba(data))
    }

    /// Persistable snapshot of the fitted state, or `None` when the state
    /// is not expressible in the artifact format (see [`crate::snapshot`]).
    fn snapshot(&self) -> Option<crate::snapshot::ModelSnapshot> {
        None
    }
}

/// An in-processing approach: constrained training.
pub trait InProcessor: Send + Sync {
    /// Train on `train`, returning a predictor.
    fn train(&self, train: &Dataset, rng: &mut StdRng) -> Result<Box<dyn TrainedModel>, CoreError>;
}

/// A fitted post-processing rule mapping base-classifier probabilities (and
/// group membership) to adjusted hard predictions.
pub trait PredictionAdjuster: Send + Sync {
    /// Adjust predictions. `probs[i] = P(Y=1 | x_i)` from the base model.
    fn adjust(&self, probs: &[f64], sensitive: &[u8], rng: &mut StdRng) -> Vec<u8>;

    /// Deterministic adjusted scores: `E[Ỹ_i] = Pr(Ỹ_i = 1)` under the
    /// rule's own randomness. For deterministic rules this is exactly the
    /// 0/1 adjusted prediction; for randomised rules it is the expected
    /// adjusted label. Defaults to plain 0.5-thresholding of `probs`.
    fn scores(&self, probs: &[f64], sensitive: &[u8]) -> Vec<f64> {
        let _ = sensitive;
        probs.iter().map(|&p| f64::from(u8::from(p >= 0.5))).collect()
    }

    /// Persistable snapshot of the fitted rule, or `None` when the rule is
    /// not expressible in the artifact format (see [`crate::snapshot`]).
    fn snapshot(&self) -> Option<crate::snapshot::AdjusterSnapshot> {
        None
    }

    /// Whether [`Self::adjust`] consumes randomness. Stochastic rules make
    /// the pipeline's hard predictions depend on the *composition* of the
    /// batch they are called on (the RNG stream is shared across rows), so
    /// callers that coalesce rows from different requests — the serving
    /// batcher — must not merge batches for stochastic pipelines.
    fn is_stochastic(&self) -> bool {
        false
    }
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
    ) -> Result<Box<dyn PredictionAdjuster>, CoreError>;
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

/// The standard classifier of the benchmark: an [`Encoder`] +
/// [`LogisticRegression`] pair trained on one dataset and applicable to any
/// dataset with the same schema. The sensitive attribute is included as a
/// feature (the AIF360 convention), which is what gives the baseline and the
/// pre-/post-processing pipelines a non-trivial causal-discrimination
/// surface.
#[derive(Debug, Clone)]
pub struct LrClassifier {
    encoder: Encoder,
    model: LogisticRegression,
}

impl LrClassifier {
    /// Train on `train`. `include_sensitive` controls whether `S` enters the
    /// feature encoding.
    pub fn train(train: &Dataset, include_sensitive: bool) -> Result<Self, CoreError> {
        let (encoder, feats) = {
            let _span = fairlens_trace::span("encode");
            let encoder = Encoder::fit(train, include_sensitive);
            let feats = encoder.transform(train);
            (encoder, feats)
        };
        let model =
            LogisticRegression::fit(&feats.matrix, train.labels(), &LogisticOptions::default())?;
        Ok(Self { encoder, model })
    }

    /// Rebuild a trained classifier from persisted parts (the fitted
    /// encoder plus logistic parameters) — the restore path of the model
    /// artifact format.
    pub fn from_parts(encoder: Encoder, model: LogisticRegression) -> Self {
        Self { encoder, model }
    }

    /// The fitted feature encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// `P(Y = 1 | x)` on a dataset.
    pub fn proba(&self, data: &Dataset) -> Vec<f64> {
        self.model.predict_proba(&self.encoder.transform(data).matrix)
    }

    /// Signed decision values.
    pub fn decision(&self, data: &Dataset) -> Vec<f64> {
        self.model.decision_function(&self.encoder.transform(data).matrix)
    }

    /// The inner regression model.
    pub fn model(&self) -> &LogisticRegression {
        &self.model
    }
}

impl TrainedModel for LrClassifier {
    fn predict(&self, data: &Dataset) -> Vec<u8> {
        self.model.predict(&self.encoder.transform(data).matrix)
    }

    fn predict_proba(&self, data: &Dataset) -> Vec<f64> {
        self.proba(data)
    }

    fn predict_with_proba(&self, data: &Dataset) -> (Vec<u8>, Vec<f64>) {
        // One encode + one batched GEMV; both outputs derive from the same
        // decision values, bit-identical to the two separate calls.
        self.model.predict_with_proba(&self.encoder.transform(data).matrix)
    }

    fn snapshot(&self) -> Option<crate::snapshot::ModelSnapshot> {
        Some(crate::snapshot::ModelSnapshot::linear(&self.encoder, &self.model))
    }
}

/// A fully trained pipeline ready to predict on fresh data.
pub enum FittedPipeline {
    /// Baseline / pre / in: a plain predictor.
    Model(Box<dyn TrainedModel>),
    /// Post: base classifier + prediction adjuster. The stored seed makes
    /// randomised adjusters (Pleiss) deterministic per `predict` call.
    Adjusted {
        /// The underlying fairness-unaware classifier.
        base: LrClassifier,
        /// The fitted adjustment rule.
        adjuster: Box<dyn PredictionAdjuster>,
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
                let probs = base.proba(data);
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
                adjuster.scores(&base.proba(data), data.sensitive())
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
                let probs = base.proba(data);
                let mut rng = StdRng::seed_from_u64(*seed ^ data.n_rows() as u64);
                let labels = adjuster.adjust(&probs, data.sensitive(), &mut rng);
                let scores = adjuster.scores(&probs, data.sensitive());
                (labels, scores)
            }
        }
    }

    /// Whether [`Self::predict`] draws randomness that couples rows within
    /// a call (see [`PredictionAdjuster::is_stochastic`]). `false` means
    /// per-row predictions are independent of batch composition, so a
    /// serving layer may coalesce rows from different requests.
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
            ApproachKind::Baseline => {
                Ok(FittedPipeline::Model(Box::new(LrClassifier::train(train, true)?)))
            }
            ApproachKind::Pre(p) => {
                let repaired = {
                    let _span = fairlens_trace::span("repair");
                    p.repair(train, &mut rng)?
                };
                if repaired.n_rows() == 0 {
                    return Err(CoreError::BadInput("repair removed every tuple".into()));
                }
                let with_s = p.include_sensitive_in_model();
                Ok(FittedPipeline::Model(Box::new(LrClassifier::train(&repaired, with_s)?)))
            }
            ApproachKind::In(i) => Ok(FittedPipeline::Model(i.train(train, &mut rng)?)),
            ApproachKind::Post(p) => {
                let base = LrClassifier::train(train, true)?;
                let probs = base.proba(train);
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
        struct AlwaysPositive;
        impl PredictionAdjuster for AlwaysPositive {
            fn adjust(&self, probs: &[f64], _s: &[u8], _rng: &mut StdRng) -> Vec<u8> {
                vec![1; probs.len()]
            }
        }
        struct FitAlwaysPositive;
        impl Postprocessor for FitAlwaysPositive {
            fn fit(
                &self,
                _probs: &[f64],
                _y: &[u8],
                _s: &[u8],
                _rng: &mut StdRng,
            ) -> Result<Box<dyn PredictionAdjuster>, CoreError> {
                Ok(Box::new(AlwaysPositive))
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
