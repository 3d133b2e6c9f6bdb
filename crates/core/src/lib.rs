//! # fairlens-core
//!
//! The paper's primary subject matter: 13 fair classification approaches
//! (18 evaluated variants) spanning the three fairness-enforcing stages,
//! plus the fairness-unaware logistic-regression baseline and the unified
//! pipeline that trains and evaluates them all identically.
//!
//! ## Stages (paper Section 3)
//!
//! * **Pre-processing** ([`pre`]) — repair the training data before
//!   learning: Kam-Cal (reweighing), Feld (disparate-impact removal, λ = 1.0
//!   and 0.6), Calmon (optimised distribution transform), Zha-Wu
//!   (causal label repair), Salimi (justifiable-fairness repair via MaxSAT
//!   or matrix factorisation).
//! * **In-processing** ([`inproc`]) — constrain the learner: Zafar
//!   (covariance-proxy constraints; DP-fair, DP-acc and EO variants),
//!   Zha-Le (adversarial debiasing), Kearns (subgroup auditing), Celis
//!   (meta-algorithm, predictive-parity instance), Thomas (Seldonian
//!   candidate + safety test; DP and EO variants).
//! * **Post-processing** ([`post`]) — adjust the predictions: Kam-Kar
//!   (reject-option), Hardt (equalized-odds LP), Pleiss
//!   (calibration-preserving equal opportunity).
//!
//! ## Unified pipeline
//!
//! Every variant is an [`Approach`] in the [`registry`]; `Approach::fit`
//! produces a [`FittedPipeline`] whose `predict` consumes a raw
//! [`fairlens_frame::Dataset`] — including its sensitive attribute, so the
//! interventional causal-discrimination metric can flip `S` and re-predict
//! through exactly the same code path the benchmark uses.
//!
//! A fitted pipeline is plain data: a [`FittedModel`] (encoder plus one
//! logistic model or Kearns's mixture of them), optionally followed by one
//! [`Adjuster`] rule. The same value predicts in the benchmark, is what a
//! `.flm` [`ModelArtifact`] stores, and is what the server predicts with
//! after loading one ([`snapshot`] holds the types and their JSON form).

pub mod artifact;
pub mod baseline;
pub mod error;
pub mod inproc;
pub mod pipeline;
pub mod post;
pub mod pre;
pub mod registry;
pub mod snapshot;
pub mod validate;

pub use artifact::{
    prediction_row, write_lines_atomic, AttrSchema, AttrSchemaKind, DataSchema, ModelArtifact,
};
pub use error::CoreError;
pub use pipeline::{
    Approach, ApproachKind, FittedPipeline, InProcessor, Postprocessor, Preprocessor, Stage,
};
pub use snapshot::{Adjuster, FittedModel, ModelParams};
pub use registry::{
    all_approaches, approach_by_name, approaches_for_stage, baseline_approach,
    extended_approaches,
};
pub use validate::{cross_validate, select_by_cv, CvResult, FoldScore};
