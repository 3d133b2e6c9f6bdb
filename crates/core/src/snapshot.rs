//! Fitted state: the one form of a trained pipeline, live and persisted.
//!
//! Every trained pipeline in the workspace bottoms out in a small set of
//! concrete states: a fitted [`Encoder`] plus logistic parameters (the
//! baseline, every pre-processing pipeline, and the linear in-processing
//! models), a mixture of logistic members (Kearns), and the three fitted
//! post-processing rules (Hardt's mixing matrix, Pleiss's withholding
//! rule, Kam-Kar's confidence threshold). [`FittedModel`] and [`Adjuster`]
//! are exactly those states. They predict, and they convert to/from
//! [`fairlens_json::Value`] trees with bit-exact floats, so an artifact
//! parsed back from disk *is* the pipeline that was saved: it predicts
//! through the same code, byte for byte.
//!
//! Parsing validates what prediction relies on: widths match the encoder,
//! a mixture has members, an adjusted pipeline has a linear base, and
//! every fitted real parameter is finite (the JSON layer reads `null` as
//! NaN, which would otherwise load and serve `null` scores).

use fairlens_frame::{AttrEncoding, Dataset, Encoder};
use fairlens_json::{object, Value};
use fairlens_linalg::Matrix;
use fairlens_model::LogisticRegression;
use rand::rngs::StdRng;

use crate::pipeline::FittedPipeline;
use crate::post::{HardtRule, KamKarRule, PleissRule};

/// The parameter family of a fitted predictor.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelParams {
    /// A single logistic model: labels are `z ≥ 0`, scores `σ(z)`.
    Linear(LogisticRegression),
    /// An averaged mixture of logistic members (Kearns's learner): member
    /// probabilities are summed in member order, divided once, and the
    /// mean is thresholded at 0.5.
    Mixture(Vec<LogisticRegression>),
}

/// A fitted predictor: the training data's feature encoding plus
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedModel {
    /// The fitted (training-data) feature encoder.
    pub encoder: Encoder,
    /// The fitted parameters.
    pub params: ModelParams,
}

impl FittedModel {
    /// A single-logistic predictor.
    pub fn linear(encoder: Encoder, model: LogisticRegression) -> Self {
        Self { encoder, params: ModelParams::Linear(model) }
    }

    fn encode(&self, data: &Dataset) -> Matrix {
        self.encoder.transform(data).matrix
    }

    /// Hard 0/1 predictions on (possibly counterfactual) data.
    pub fn predict(&self, data: &Dataset) -> Vec<u8> {
        let x = self.encode(data);
        match &self.params {
            ModelParams::Linear(m) => m.predict(&x),
            ModelParams::Mixture(ms) => mean_proba(ms, &x).into_iter().map(threshold).collect(),
        }
    }

    /// Per-row scores `P(Y = 1 | x) ∈ [0, 1]`.
    pub fn predict_proba(&self, data: &Dataset) -> Vec<f64> {
        let x = self.encode(data);
        match &self.params {
            ModelParams::Linear(m) => m.predict_proba(&x),
            ModelParams::Mixture(ms) => mean_proba(ms, &x),
        }
    }

    /// Labels and scores from one encode and one decision pass,
    /// bit-identical to [`Self::predict`] and [`Self::predict_proba`].
    pub fn predict_with_proba(&self, data: &Dataset) -> (Vec<u8>, Vec<f64>) {
        let x = self.encode(data);
        match &self.params {
            ModelParams::Linear(m) => m.predict_with_proba(&x),
            ModelParams::Mixture(ms) => {
                let probs = mean_proba(ms, &x);
                (probs.iter().copied().map(threshold).collect(), probs)
            }
        }
    }

    /// Serialize to a JSON value.
    pub fn to_value(&self) -> Value {
        let params = match &self.params {
            ModelParams::Linear(m) => ("linear", linear_to_value(m)),
            ModelParams::Mixture(ms) => {
                ("mixture", Value::Array(ms.iter().map(linear_to_value).collect()))
            }
        };
        object([
            ("encoder", encoder_to_value(&self.encoder)),
            ("kind", Value::String(params.0.into())),
            ("params", params.1),
        ])
    }

    /// Parse back from a JSON value.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let encoder = encoder_from_value(field(v, "encoder")?)?;
        let kind = field(v, "kind")?.as_str().ok_or("model kind must be a string")?;
        let params = field(v, "params")?;
        let params = match kind {
            "linear" => ModelParams::Linear(linear_from_value(params)?),
            "mixture" => ModelParams::Mixture(
                params
                    .clone()
                    .into_array()?
                    .iter()
                    .map(linear_from_value)
                    .collect::<Result<_, _>>()?,
            ),
            other => return Err(format!("unknown model kind {other:?}")),
        };
        let width = encoder.width();
        let widths_ok = match &params {
            ModelParams::Linear(m) => m.weights().len() == width,
            ModelParams::Mixture(ms) => {
                !ms.is_empty() && ms.iter().all(|m| m.weights().len() == width)
            }
        };
        if !widths_ok {
            return Err(format!("parameter width does not match encoder width {width}"));
        }
        Ok(Self { encoder, params })
    }
}

/// The mixture's score: member probabilities accumulated in member order,
/// divided once.
fn mean_proba(members: &[LogisticRegression], x: &Matrix) -> Vec<f64> {
    let mut acc = vec![0.0f64; x.rows()];
    for m in members {
        for (a, p) in acc.iter_mut().zip(m.predict_proba(x)) {
            *a += p;
        }
    }
    let k = members.len() as f64;
    acc.into_iter().map(|a| a / k).collect()
}

fn threshold(p: f64) -> u8 {
    u8::from(p >= 0.5)
}

fn linear_to_value(m: &LogisticRegression) -> Value {
    object([
        ("weights", Value::from_f64s(m.weights().iter().copied())),
        ("intercept", Value::from_f64(m.intercept())),
    ])
}

fn linear_from_value(v: &Value) -> Result<LogisticRegression, String> {
    let weights = field(v, "weights")?.clone().into_f64s()?;
    let intercept = field(v, "intercept")?.clone().into_f64()?;
    if weights.iter().any(|w| !w.is_finite()) || !intercept.is_finite() {
        return Err("non-finite linear parameters".into());
    }
    Ok(LogisticRegression::from_params(weights, intercept))
}

/// A fitted post-processing rule mapping base-classifier probabilities
/// (and group membership) to adjusted predictions.
#[derive(Debug, Clone, PartialEq)]
pub enum Adjuster {
    /// Hardt's derived predictor.
    Hardt(HardtRule),
    /// Pleiss's calibration-preserving withholding rule.
    Pleiss(PleissRule),
    /// Kam-Kar's reject-option threshold.
    KamKar(KamKarRule),
}

impl Adjuster {
    /// Adjust predictions. `probs[i] = P(Y=1 | x_i)` from the base model.
    pub fn adjust(&self, probs: &[f64], sensitive: &[u8], rng: &mut StdRng) -> Vec<u8> {
        match self {
            Adjuster::Hardt(r) => r.adjust(probs, sensitive, rng),
            Adjuster::Pleiss(r) => r.adjust(probs, sensitive, rng),
            Adjuster::KamKar(r) => r.adjust(probs, sensitive),
        }
    }

    /// Deterministic adjusted scores: `E[Ỹ_i] = Pr(Ỹ_i = 1)` under the
    /// rule's own randomness. For a deterministic rule this is exactly
    /// the 0/1 adjusted prediction.
    pub fn scores(&self, probs: &[f64], sensitive: &[u8]) -> Vec<f64> {
        match self {
            Adjuster::Hardt(r) => r.scores(probs, sensitive),
            Adjuster::Pleiss(r) => r.scores(probs, sensitive),
            Adjuster::KamKar(r) => r.scores(probs, sensitive),
        }
    }

    /// Whether [`Self::adjust`] consumes randomness. Stochastic rules make
    /// the pipeline's hard predictions depend on the *composition* of the
    /// batch they are called on (the RNG stream is shared across rows), so
    /// callers that coalesce rows from different requests — the serving
    /// batcher — must not merge batches for stochastic pipelines.
    pub fn is_stochastic(&self) -> bool {
        !matches!(self, Adjuster::KamKar(_))
    }

    /// Serialize to a JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            Adjuster::Hardt(HardtRule { p }) => object([
                ("kind", Value::String("hardt".into())),
                (
                    "p",
                    Value::Array(
                        p.iter().map(|row| Value::from_f64s(row.iter().copied())).collect(),
                    ),
                ),
            ]),
            Adjuster::Pleiss(PleissRule { favoured, alpha, mu }) => object([
                ("kind", Value::String("pleiss".into())),
                ("favoured", Value::Integer(u64::from(*favoured))),
                ("alpha", Value::from_f64(*alpha)),
                ("mu", Value::from_f64(*mu)),
            ]),
            Adjuster::KamKar(KamKarRule { theta }) => object([
                ("kind", Value::String("kamkar".into())),
                ("theta", Value::from_f64(*theta)),
            ]),
        }
    }

    /// Parse back from a JSON value. Real parameters must be finite; no
    /// `[0, 1]` range is imposed, because Hardt's simplex solution may sit
    /// an ulp outside it.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let kind = field(v, "kind")?.as_str().ok_or("adjuster kind must be a string")?;
        match kind {
            "hardt" => {
                let rows = field(v, "p")?.clone().into_array()?;
                if rows.len() != 2 {
                    return Err("hardt rule needs a 2×2 matrix".into());
                }
                let mut p = [[0.0f64; 2]; 2];
                for (s, row) in rows.into_iter().enumerate() {
                    let row = row.into_f64s()?;
                    if row.len() != 2 {
                        return Err("hardt rule needs a 2×2 matrix".into());
                    }
                    if row.iter().any(|x| !x.is_finite()) {
                        return Err("hardt rule has a non-finite probability".into());
                    }
                    p[s] = [row[0], row[1]];
                }
                Ok(Adjuster::Hardt(HardtRule { p }))
            }
            "pleiss" => {
                let favoured = field(v, "favoured")?.clone().into_u64()?;
                if favoured > 1 {
                    return Err("pleiss favoured group must be 0 or 1".into());
                }
                Ok(Adjuster::Pleiss(PleissRule {
                    favoured: favoured as u8,
                    alpha: finite_field(v, "alpha")?,
                    mu: finite_field(v, "mu")?,
                }))
            }
            "kamkar" => Ok(Adjuster::KamKar(KamKarRule { theta: finite_field(v, "theta")? })),
            other => Err(format!("unknown adjuster kind {other:?}")),
        }
    }
}

impl FittedPipeline {
    /// Serialize to a JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            FittedPipeline::Model(m) => object([
                ("kind", Value::String("model".into())),
                ("model", m.to_value()),
            ]),
            FittedPipeline::Adjusted { base, adjuster, seed } => object([
                ("kind", Value::String("adjusted".into())),
                ("base", base.to_value()),
                ("adjuster", adjuster.to_value()),
                ("seed", Value::Integer(*seed)),
            ]),
        }
    }

    /// Parse back from a JSON value.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let kind = field(v, "kind")?.as_str().ok_or("pipeline kind must be a string")?;
        match kind {
            "model" => Ok(FittedPipeline::Model(FittedModel::from_value(field(v, "model")?)?)),
            "adjusted" => {
                let base = FittedModel::from_value(field(v, "base")?)?;
                if !matches!(base.params, ModelParams::Linear(_)) {
                    return Err("adjusted pipeline base must be linear".into());
                }
                Ok(FittedPipeline::Adjusted {
                    base,
                    adjuster: Adjuster::from_value(field(v, "adjuster")?)?,
                    seed: field(v, "seed")?.clone().into_u64()?,
                })
            }
            other => Err(format!("unknown pipeline kind {other:?}")),
        }
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn finite_field(v: &Value, key: &str) -> Result<f64, String> {
    let x = field(v, key)?.clone().into_f64()?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("field {key:?} must be finite"))
    }
}

fn encoder_to_value(encoder: &Encoder) -> Value {
    let attrs = encoder
        .attr_encodings()
        .iter()
        .map(|a| match a {
            AttrEncoding::Numeric { mean, std } => object([
                ("kind", Value::String("numeric".into())),
                ("mean", Value::from_f64(*mean)),
                ("std", Value::from_f64(*std)),
            ]),
            AttrEncoding::OneHot { levels } => object([
                ("kind", Value::String("one_hot".into())),
                ("levels", Value::Integer(*levels as u64)),
            ]),
        })
        .collect();
    object([
        ("include_sensitive", Value::Bool(encoder.includes_sensitive())),
        ("attrs", Value::Array(attrs)),
        (
            "names",
            Value::Array(
                encoder.feature_names().iter().map(|n| Value::String(n.clone())).collect(),
            ),
        ),
    ])
}

fn encoder_from_value(v: &Value) -> Result<Encoder, String> {
    let include_sensitive = field(v, "include_sensitive")?.clone().into_bool()?;
    let attrs = field(v, "attrs")?
        .clone()
        .into_array()?
        .iter()
        .map(|a| {
            let kind = field(a, "kind")?.as_str().ok_or("encoding kind must be a string")?;
            match kind {
                "numeric" => Ok(AttrEncoding::Numeric {
                    mean: finite_field(a, "mean")?,
                    std: finite_field(a, "std")?,
                }),
                "one_hot" => Ok(AttrEncoding::OneHot {
                    levels: field(a, "levels")?.clone().into_u64()? as usize,
                }),
                other => Err(format!("unknown encoding kind {other:?}")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let names = field(v, "names")?
        .clone()
        .into_array()?
        .into_iter()
        .map(Value::into_string)
        .collect::<Result<Vec<_>, _>>()?;
    Encoder::from_parts(attrs, include_sensitive, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_approach;

    fn toy(n: usize) -> Dataset {
        let mut x = Vec::new();
        let mut job = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let xi = (i % 10) as f64;
            let si = (i % 2) as u8;
            x.push(xi);
            job.push((i % 3) as u32);
            s.push(si);
            y.push(u8::from(xi + 3.0 * si as f64 > 6.0));
        }
        Dataset::builder("toy")
            .numeric("x", x)
            .categorical("job", job, vec!["a".into(), "b".into(), "c".into()])
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    #[test]
    fn baseline_snapshot_restores_bit_exactly() {
        let d = toy(300);
        let fitted = baseline_approach().fit(&d, 7).unwrap();
        let text = fitted.to_value().to_json();
        let back = FittedPipeline::from_value(&fairlens_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, fitted);
        assert_eq!(back.predict(&d), fitted.predict(&d));
        for (a, b) in back.predict_proba(&d).iter().zip(fitted.predict_proba(&d)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn adjuster_snapshots_round_trip() {
        for rule in [
            Adjuster::Hardt(HardtRule { p: [[0.25, 1.0], [0.0, 0.75]] }),
            Adjuster::Pleiss(PleissRule { favoured: 1, alpha: 0.3, mu: 0.61 }),
            Adjuster::KamKar(KamKarRule { theta: 0.7 }),
        ] {
            let text = rule.to_value().to_json();
            let back = Adjuster::from_value(&fairlens_json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, rule);
        }
    }

    #[test]
    fn mixture_round_trips_and_matches_reduction() {
        let d = toy(120);
        let enc = Encoder::fit(&d, true);
        let members = vec![
            LogisticRegression::from_params(vec![0.2; enc.width()], -0.1),
            LogisticRegression::from_params(vec![-0.4; enc.width()], 0.3),
            LogisticRegression::from_params(vec![0.05; enc.width()], 0.0),
        ];
        let model =
            FittedModel { encoder: enc.clone(), params: ModelParams::Mixture(members.clone()) };
        let text = model.to_value().to_json();
        let back = FittedModel::from_value(&fairlens_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, model);
        // reference reduction: accumulate then divide, like Kearns
        let x = enc.transform(&d).matrix;
        let mut acc = vec![0.0f64; d.n_rows()];
        for m in &members {
            for (a, p) in acc.iter_mut().zip(m.predict_proba(&x)) {
                *a += p;
            }
        }
        let expect: Vec<u8> =
            acc.iter().map(|a| u8::from(a / members.len() as f64 >= 0.5)).collect();
        assert_eq!(back.predict(&d), expect);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        for bad in [
            "{\"kind\":\"model\"}",
            "{\"kind\":\"warp\",\"model\":{}}",
            "{\"kind\":\"adjusted\",\"base\":{},\"adjuster\":{},\"seed\":1}",
        ] {
            let v = fairlens_json::parse(bad).unwrap();
            assert!(FittedPipeline::from_value(&v).is_err(), "{bad}");
        }
        // width mismatch between encoder and parameters
        let d = toy(50);
        let enc = Encoder::fit(&d, true);
        let width = enc.width();
        let model =
            FittedModel::linear(enc, LogisticRegression::from_params(vec![0.0; width], 0.0));
        let mut text = model.to_value().to_json();
        text = text.replacen("\"weights\":[", "\"weights\":[9.0,", 1);
        let v = fairlens_json::parse(&text).unwrap();
        assert!(FittedModel::from_value(&v).is_err());
    }
}
