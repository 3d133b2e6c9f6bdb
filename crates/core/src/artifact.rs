//! The `.flm` ("FairLens model") on-disk artifact format.
//!
//! An artifact is a single JSON document (written with the workspace's
//! bit-exact float serializer, so save → load → predict reproduces the
//! in-memory pipeline byte for byte) carrying:
//!
//! * provenance — approach name, stage, dataset kind, training seed, row
//!   count and training-fold metrics;
//! * the training data's [`DataSchema`], so a server can validate and
//!   encode raw JSON rows without ever seeing the training data;
//! * the [`PipelineSnapshot`] of the fitted pipeline.
//!
//! The envelope is versioned (`"format": "flm"`, `"version": 1`); loaders
//! reject unknown formats/versions up front with a structured error rather
//! than mis-parsing.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use fairlens_frame::{Column, Dataset};
use fairlens_json::{object, parse, Value};

use crate::error::CoreError;
use crate::pipeline::{Approach, FittedPipeline};
use crate::snapshot::PipelineSnapshot;

/// File extension for model artifacts.
pub const ARTIFACT_EXT: &str = "flm";
/// Envelope format tag.
pub const ARTIFACT_FORMAT: &str = "flm";
/// Current envelope version.
pub const ARTIFACT_VERSION: u64 = 1;

/// The domain of one predictive attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrSchemaKind {
    /// Real-valued attribute.
    Numeric,
    /// Finite-domain attribute with named levels (`levels[code]`).
    Categorical {
        /// Level display names, in code order.
        levels: Vec<String>,
    },
}

/// Name + domain of one predictive attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSchema {
    /// Attribute name (JSON key in prediction requests).
    pub name: String,
    /// Attribute domain.
    pub kind: AttrSchemaKind,
}

/// The `(X, S; Y)` schema of the data a pipeline was trained on — enough
/// to validate and assemble prediction-time rows from raw JSON objects.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSchema {
    /// Predictive attributes, in training column order.
    pub attrs: Vec<AttrSchema>,
    /// Sensitive attribute name (binary, `1` = privileged).
    pub sensitive: String,
    /// Label attribute name (not required in prediction rows).
    pub label: String,
}

impl DataSchema {
    /// Capture the schema of a dataset.
    pub fn of(data: &Dataset) -> Self {
        let attrs = data
            .columns()
            .iter()
            .zip(data.attr_names())
            .map(|(col, name)| AttrSchema {
                name: name.clone(),
                kind: match col {
                    Column::Numeric(_) => AttrSchemaKind::Numeric,
                    Column::Categorical { levels, .. } => {
                        AttrSchemaKind::Categorical { levels: levels.clone() }
                    }
                },
            })
            .collect();
        Self {
            attrs,
            sensitive: data.sensitive_name().to_string(),
            label: data.label_name().to_string(),
        }
    }

    /// Assemble a prediction-time [`Dataset`] from JSON row objects.
    ///
    /// Each row must be an object providing every predictive attribute and
    /// the sensitive attribute; unknown keys are rejected (they almost
    /// always indicate a typo'd attribute name, and silently ignoring them
    /// would mis-predict). Categorical values accept either the level name
    /// (string) or the integer code; numeric values must be finite;
    /// the sensitive value must be 0 or 1. Labels are not part of
    /// prediction input — the returned dataset carries dummy `0` labels.
    ///
    /// Errors are row-addressed (`"row 3: ..."`) so a serving layer can
    /// return actionable 400 bodies.
    pub fn dataset_from_rows(&self, rows: &[Value]) -> Result<Dataset, String> {
        if rows.is_empty() {
            return Err("no rows to predict".into());
        }
        let n = rows.len();
        let mut numeric: Vec<Vec<f64>> = Vec::new();
        let mut codes: Vec<Vec<u32>> = Vec::new();
        for attr in &self.attrs {
            match &attr.kind {
                AttrSchemaKind::Numeric => numeric.push(Vec::with_capacity(n)),
                AttrSchemaKind::Categorical { .. } => codes.push(Vec::with_capacity(n)),
            }
        }
        let mut sensitive = Vec::with_capacity(n);

        for (r, row) in rows.iter().enumerate() {
            let fail = |msg: String| format!("row {r}: {msg}");
            let Value::Object(fields) = row else {
                return Err(fail(format!("expected an object, got {}", row.kind_name())));
            };
            for (key, _) in fields {
                let known = key == &self.sensitive
                    || self.attrs.iter().any(|a| &a.name == key);
                if !known {
                    return Err(fail(format!("unknown attribute {key:?}")));
                }
            }
            let field = |key: &str| {
                row.get(key).ok_or_else(|| fail(format!("missing attribute {key:?}")))
            };
            let (mut ni, mut ci) = (0usize, 0usize);
            for attr in &self.attrs {
                let v = field(&attr.name)?;
                match &attr.kind {
                    AttrSchemaKind::Numeric => {
                        let x = v.clone().into_f64().map_err(|e| {
                            fail(format!("attribute {:?}: {e}", attr.name))
                        })?;
                        if !x.is_finite() {
                            return Err(fail(format!(
                                "attribute {:?} must be finite",
                                attr.name
                            )));
                        }
                        numeric[ni].push(x);
                        ni += 1;
                    }
                    AttrSchemaKind::Categorical { levels } => {
                        let code = match v {
                            Value::String(s) => levels
                                .iter()
                                .position(|l| l == s)
                                .ok_or_else(|| {
                                    fail(format!(
                                        "attribute {:?}: unknown level {s:?}",
                                        attr.name
                                    ))
                                })? as u32,
                            other => {
                                let c = other.clone().into_u64().map_err(|e| {
                                    fail(format!("attribute {:?}: {e}", attr.name))
                                })?;
                                if c as usize >= levels.len() {
                                    return Err(fail(format!(
                                        "attribute {:?}: code {c} beyond {} levels",
                                        attr.name,
                                        levels.len()
                                    )));
                                }
                                c as u32
                            }
                        };
                        codes[ci].push(code);
                        ci += 1;
                    }
                }
            }
            let s = field(&self.sensitive)?.clone().into_u64().map_err(|e| {
                fail(format!("sensitive attribute {:?}: {e}", self.sensitive))
            })?;
            if s > 1 {
                return Err(fail(format!(
                    "sensitive attribute {:?} must be 0 or 1",
                    self.sensitive
                )));
            }
            sensitive.push(s as u8);
        }

        let mut builder = Dataset::builder("request");
        let (mut ni, mut ci) = (0usize, 0usize);
        for attr in &self.attrs {
            match &attr.kind {
                AttrSchemaKind::Numeric => {
                    builder = builder.numeric(&attr.name, std::mem::take(&mut numeric[ni]));
                    ni += 1;
                }
                AttrSchemaKind::Categorical { levels } => {
                    builder = builder.categorical(
                        &attr.name,
                        std::mem::take(&mut codes[ci]),
                        levels.clone(),
                    );
                    ci += 1;
                }
            }
        }
        builder
            .sensitive(&self.sensitive, sensitive)
            .labels(&self.label, vec![0u8; n])
            .build()
            .map_err(|e| e.to_string())
    }

    /// Serialize to a JSON value.
    pub fn to_value(&self) -> Value {
        let attrs = self
            .attrs
            .iter()
            .map(|a| match &a.kind {
                AttrSchemaKind::Numeric => object([
                    ("name", Value::String(a.name.clone())),
                    ("kind", Value::String("numeric".into())),
                ]),
                AttrSchemaKind::Categorical { levels } => object([
                    ("name", Value::String(a.name.clone())),
                    ("kind", Value::String("categorical".into())),
                    (
                        "levels",
                        Value::Array(
                            levels.iter().map(|l| Value::String(l.clone())).collect(),
                        ),
                    ),
                ]),
            })
            .collect();
        object([
            ("attrs", Value::Array(attrs)),
            ("sensitive", Value::String(self.sensitive.clone())),
            ("label", Value::String(self.label.clone())),
        ])
    }

    /// Parse back from a JSON value.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let attrs = field(v, "attrs")?
            .clone()
            .into_array()?
            .iter()
            .map(|a| {
                let name = field(a, "name")?.as_str().ok_or("attr name must be a string")?;
                let kind = field(a, "kind")?.as_str().ok_or("attr kind must be a string")?;
                let kind = match kind {
                    "numeric" => AttrSchemaKind::Numeric,
                    "categorical" => {
                        let levels = field(a, "levels")?
                            .clone()
                            .into_array()?
                            .into_iter()
                            .map(Value::into_string)
                            .collect::<Result<Vec<_>, _>>()?;
                        if levels.is_empty() {
                            return Err("categorical attribute with no levels".into());
                        }
                        AttrSchemaKind::Categorical { levels }
                    }
                    other => return Err(format!("unknown attr kind {other:?}")),
                };
                Ok(AttrSchema { name: name.to_string(), kind })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            attrs,
            sensitive: field(v, "sensitive")?
                .as_str()
                .ok_or("sensitive name must be a string")?
                .to_string(),
            label: field(v, "label")?
                .as_str()
                .ok_or("label name must be a string")?
                .to_string(),
        })
    }
}

/// Row `r` of `data` as a prediction-request object, the inverse of
/// [`DataSchema::dataset_from_rows`]: every predictive attribute (numbers
/// as numbers, categories by level name) plus the sensitive attribute.
pub fn prediction_row(data: &Dataset, r: usize) -> Value {
    let mut fields: Vec<(String, Value)> = data
        .columns()
        .iter()
        .zip(data.attr_names())
        .map(|(col, name)| {
            let v = match col {
                Column::Numeric(xs) => Value::Number(xs[r]),
                Column::Categorical { codes, levels } => {
                    Value::String(levels[codes[r] as usize].clone())
                }
            };
            (name.clone(), v)
        })
        .collect();
    let sensitive = Value::Integer(u64::from(data.sensitive()[r]));
    fields.push((data.sensitive_name().to_string(), sensitive));
    Value::Object(fields)
}

/// A saved model: provenance + schema + fitted pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Registry name of the approach (e.g. `"KamCal"`, `"Hardt^EO"`).
    pub approach: String,
    /// Fairness-enforcing stage label (`baseline`/`pre`/`in`/`post`).
    pub stage: String,
    /// Dataset the pipeline was trained on (e.g. `"german"`).
    pub dataset: String,
    /// Training seed (cell seed in the benchmark's derivation scheme).
    pub seed: u64,
    /// Number of training rows.
    pub train_rows: u64,
    /// Training-fold metrics `(name, value)`, e.g. accuracy and the five
    /// fairness measures. Besides provenance, these are the baseline the
    /// serving stack's drift detection judges live metrics against.
    pub train_metrics: Vec<(String, f64)>,
    /// Schema of the training data, used to parse prediction rows.
    pub schema: DataSchema,
    /// The fitted pipeline.
    pub pipeline: PipelineSnapshot,
}

impl ModelArtifact {
    /// Package a fitted pipeline: the stage comes from `approach`, the
    /// row count and schema from `train`, the snapshot from `fitted`
    /// (which fails for pipelines the artifact format cannot express).
    pub fn new(
        approach: &Approach,
        dataset: &str,
        train: &Dataset,
        fitted: &FittedPipeline,
        seed: u64,
        train_metrics: Vec<(String, f64)>,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            approach: approach.name.to_string(),
            stage: approach.stage.label().to_string(),
            dataset: dataset.to_string(),
            seed,
            train_rows: train.n_rows() as u64,
            train_metrics,
            schema: DataSchema::of(train),
            pipeline: fitted.snapshot()?,
        })
    }

    /// Rebuild the live pipeline.
    pub fn restore(&self) -> FittedPipeline {
        self.pipeline.restore()
    }

    /// Look up one training-fold metric by name — the provenance
    /// read-back used by live drift detection, which compares windowed
    /// online metrics against these training-time values.
    pub fn train_metric(&self, name: &str) -> Option<f64> {
        self.train_metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Serialize the artifact to its on-disk JSON form.
    pub fn to_json(&self) -> String {
        let metrics = Value::Object(
            self.train_metrics
                .iter()
                .map(|(k, m)| (k.clone(), Value::from_f64(*m)))
                .collect(),
        );
        object([
            ("format", Value::String(ARTIFACT_FORMAT.into())),
            ("version", Value::Integer(ARTIFACT_VERSION)),
            ("approach", Value::String(self.approach.clone())),
            ("stage", Value::String(self.stage.clone())),
            ("dataset", Value::String(self.dataset.clone())),
            ("seed", Value::Integer(self.seed)),
            ("train_rows", Value::Integer(self.train_rows)),
            ("train_metrics", metrics),
            ("schema", self.schema.to_value()),
            ("pipeline", self.pipeline.to_value()),
        ])
        .to_json()
    }

    /// Parse an artifact from its JSON form, validating the envelope.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        match field(&v, "format")?.as_str() {
            Some(ARTIFACT_FORMAT) => {}
            Some(other) => return Err(format!("not a model artifact (format {other:?})")),
            None => return Err("artifact format tag must be a string".into()),
        }
        let version = field(&v, "version")?.clone().into_u64()?;
        if version != ARTIFACT_VERSION {
            return Err(format!(
                "unsupported artifact version {version} (this build reads {ARTIFACT_VERSION})"
            ));
        }
        let train_metrics = field(&v, "train_metrics")?
            .clone()
            .into_object()?
            .into_iter()
            .map(|(k, m)| Ok((k, m.into_f64()?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            approach: str_field(&v, "approach")?,
            stage: str_field(&v, "stage")?,
            dataset: str_field(&v, "dataset")?,
            seed: field(&v, "seed")?.clone().into_u64()?,
            train_rows: field(&v, "train_rows")?.clone().into_u64()?,
            train_metrics,
            schema: DataSchema::from_value(field(&v, "schema")?)?,
            pipeline: PipelineSnapshot::from_value(field(&v, "pipeline")?)?,
        })
    }

    /// Write the artifact to `path` with [`write_lines_atomic`], so a
    /// concurrent loader never observes a half-written artifact.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_lines_atomic(path, std::iter::once(self.to_json()))
    }

    /// Read an artifact from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// The workspace's one write-then-rename routine: write `lines` to a
/// `.tmp` sibling, fsync it, rename it over `path`, then fsync the
/// directory so the rename is durable. Parent directories are created as
/// needed; a reader never observes a partially written file.
pub fn write_lines_atomic(
    path: &Path,
    lines: impl Iterator<Item = String>,
) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            std::fs::create_dir_all(p)?;
            Some(p)
        }
        _ => None,
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let file = std::fs::File::create(&tmp)?;
        let mut w = std::io::BufWriter::new(file);
        for line in lines {
            writeln!(w, "{line}")?;
        }
        w.flush()?;
        w.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = parent {
        // Best-effort on platforms where directories cannot be opened
        // for sync.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))?
        .to_string())
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

    fn toy_artifact() -> (Dataset, FittedPipeline, ModelArtifact) {
        let d = toy(200);
        let approach = baseline_approach();
        let fitted = approach.fit(&d, 11).unwrap();
        let metrics = vec![("acc".into(), 0.93), ("di".into(), 0.81)];
        let artifact = ModelArtifact::new(&approach, "toy", &d, &fitted, 11, metrics).unwrap();
        (d, fitted, artifact)
    }

    #[test]
    fn artifact_json_round_trips() {
        let (d, fitted, artifact) = toy_artifact();
        let text = artifact.to_json();
        let back = ModelArtifact::from_json(&text).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.restore().predict(&d), fitted.predict(&d));
    }

    #[test]
    fn artifact_save_load_round_trips() {
        let (_, _, artifact) = toy_artifact();
        let dir = std::env::temp_dir().join("fairlens-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lr-toy.flm");
        artifact.save(&path).unwrap();
        let back = ModelArtifact::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, artifact);
    }

    #[test]
    fn envelope_is_validated() {
        let (_, _, artifact) = toy_artifact();
        let good = artifact.to_json();
        let bad_format = good.replacen("\"format\":\"flm\"", "\"format\":\"zip\"", 1);
        assert!(ModelArtifact::from_json(&bad_format).is_err());
        let bad_version = good.replacen("\"version\":1", "\"version\":99", 1);
        assert!(ModelArtifact::from_json(&bad_version).is_err());
        assert!(ModelArtifact::from_json("{\"hello\":1}").is_err());
        assert!(ModelArtifact::from_json("not json").is_err());
    }

    #[test]
    fn rows_parse_with_level_names_or_codes() {
        let (d, _, artifact) = toy_artifact();
        let rows = vec![
            parse("{\"x\":4.0,\"job\":\"b\",\"s\":1}").unwrap(),
            parse("{\"x\":9,\"job\":2,\"s\":0}").unwrap(),
        ];
        let req = artifact.schema.dataset_from_rows(&rows).unwrap();
        assert_eq!(req.n_rows(), 2);
        assert_eq!(req.sensitive(), &[1, 0]);
        let Column::Categorical { codes, .. } = req.column(1) else { panic!() };
        assert_eq!(codes, &[1, 2]);
        // prediction must go through the same encoder path as training data
        let pipeline = artifact.restore();
        let preds = pipeline.predict(&req);
        assert_eq!(preds.len(), 2);
        let _ = d;
    }

    #[test]
    fn prediction_rows_parse_back_to_the_same_data() {
        let (d, _, artifact) = toy_artifact();
        let rows: Vec<Value> = (0..d.n_rows()).map(|r| prediction_row(&d, r)).collect();
        let back = artifact.schema.dataset_from_rows(&rows).unwrap();
        assert_eq!(back.columns(), d.columns());
        assert_eq!(back.sensitive(), d.sensitive());
    }

    #[test]
    fn malformed_rows_are_rejected_with_row_context() {
        let (_, _, artifact) = toy_artifact();
        let cases = [
            ("[]", "array row"),
            ("{\"x\":1.0,\"job\":\"a\"}", "missing sensitive"),
            ("{\"x\":1.0,\"job\":\"z\",\"s\":0}", "unknown level"),
            ("{\"x\":1.0,\"job\":7,\"s\":0}", "code out of range"),
            ("{\"x\":1.0,\"job\":\"a\",\"s\":3}", "non-binary sensitive"),
            ("{\"x\":null,\"job\":\"a\",\"s\":0}", "non-finite numeric"),
            ("{\"x\":1.0,\"job\":\"a\",\"s\":0,\"typo\":1}", "unknown key"),
        ];
        for (row, what) in cases {
            let rows = vec![parse(row).unwrap()];
            let err = artifact.schema.dataset_from_rows(&rows).unwrap_err();
            assert!(err.starts_with("row 0:"), "{what}: {err}");
        }
        assert!(artifact.schema.dataset_from_rows(&[]).is_err());
    }
}
