//! The annotated dataset `(X, S; Y)` and its builder.

use rand::Rng;

use crate::column::Column;
use crate::error::FrameError;

/// An annotated dataset with the paper's schema `(X, S; Y)`.
///
/// * `X` — predictive attribute columns (mixed numeric/categorical),
/// * `S` — binary sensitive attribute (`1` = privileged group, `0` =
///   unprivileged group),
/// * `Y` — binary ground-truth label (`1` = favourable outcome).
///
/// The struct is immutable-by-convention: repairs produce new datasets via
/// the `with_*` constructors, which keeps every pre-processing approach a
/// pure `Dataset -> Dataset` function and makes the pipelines trivially
/// testable.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    attr_names: Vec<String>,
    columns: Vec<Column>,
    sensitive_name: String,
    sensitive: Vec<u8>,
    label_name: String,
    labels: Vec<u8>,
}

impl Dataset {
    /// Start building a dataset with the given display name.
    pub fn builder(name: impl Into<String>) -> DatasetBuilder {
        DatasetBuilder {
            name: name.into(),
            attr_names: Vec::new(),
            columns: Vec::new(),
            sensitive_name: "S".into(),
            sensitive: Vec::new(),
            label_name: "Y".into(),
            labels: Vec::new(),
        }
    }

    /// Dataset display name (e.g. `"adult"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows (tuples) `|D|`.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of predictive attributes `|X|`.
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Names of the predictive attributes.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// The predictive attribute columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by positional index.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Result<usize, FrameError> {
        self.attr_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::UnknownColumn { name: name.to_string() })
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, FrameError> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// Name of the sensitive attribute `S`.
    pub fn sensitive_name(&self) -> &str {
        &self.sensitive_name
    }

    /// The sensitive attribute values (`1` privileged / `0` unprivileged).
    pub fn sensitive(&self) -> &[u8] {
        &self.sensitive
    }

    /// Name of the label attribute `Y`.
    pub fn label_name(&self) -> &str {
        &self.label_name
    }

    /// The ground-truth labels.
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Overall positive rate `Pr(Y = 1)`.
    pub fn pos_rate(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().map(|&y| y as usize).sum::<usize>() as f64 / self.labels.len() as f64
    }

    /// Group-conditional positive rate `Pr(Y = 1 | S = s)`.
    pub fn group_pos_rate(&self, s: u8) -> f64 {
        let mut pos = 0usize;
        let mut tot = 0usize;
        for (&si, &yi) in self.sensitive.iter().zip(self.labels.iter()) {
            if si == s {
                tot += 1;
                pos += yi as usize;
            }
        }
        if tot == 0 {
            0.0
        } else {
            pos as f64 / tot as f64
        }
    }

    /// Number of rows in group `S = s`.
    pub fn group_size(&self, s: u8) -> usize {
        self.sensitive.iter().filter(|&&si| si == s).count()
    }

    /// Number of rows in the joint cell `(S = s, Y = y)`.
    pub fn cell_count(&self, s: u8, y: u8) -> usize {
        self.sensitive
            .iter()
            .zip(self.labels.iter())
            .filter(|&(&si, &yi)| si == s && yi == y)
            .count()
    }

    /// Select rows by index (repetition allowed), producing a new dataset.
    pub fn select_rows(&self, idx: &[usize]) -> Dataset {
        Dataset {
            name: self.name.clone(),
            attr_names: self.attr_names.clone(),
            columns: self.columns.iter().map(|c| c.select(idx)).collect(),
            sensitive_name: self.sensitive_name.clone(),
            sensitive: idx.iter().map(|&i| self.sensitive[i]).collect(),
            label_name: self.label_name.clone(),
            labels: idx.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// Keep only the given attribute columns (by index, in order). `S` and
    /// `Y` are always retained — used by the dimensionality sweep (Fig. 11d–f).
    pub fn select_attrs(&self, idx: &[usize]) -> Dataset {
        Dataset {
            name: self.name.clone(),
            attr_names: idx.iter().map(|&i| self.attr_names[i].clone()).collect(),
            columns: idx.iter().map(|&i| self.columns[i].clone()).collect(),
            sensitive_name: self.sensitive_name.clone(),
            sensitive: self.sensitive.clone(),
            label_name: self.label_name.clone(),
            labels: self.labels.clone(),
        }
    }

    /// Draw `n` rows with replacement, with probability proportional to
    /// `weights` — the kernel of Kam-Cal's reweighting repair.
    ///
    /// Uses inverse-CDF sampling over the cumulative weights; `O(n log |D|)`.
    pub fn sample_weighted<R: Rng + ?Sized>(
        &self,
        n: usize,
        weights: &[f64],
        rng: &mut R,
    ) -> Dataset {
        assert_eq!(weights.len(), self.n_rows(), "sample_weighted: weight length");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w.max(0.0);
            cdf.push(acc);
        }
        let total = acc;
        let mut idx = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = rng.gen::<f64>() * total;
            // first index with cdf[i] >= u
            let i = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            idx.push(i);
        }
        self.select_rows(&idx)
    }

    /// Same dataset with a replaced label vector (Zha-Wu label repair).
    ///
    /// # Panics
    /// Panics if the length differs.
    pub fn with_labels(&self, labels: Vec<u8>) -> Dataset {
        assert_eq!(labels.len(), self.n_rows(), "with_labels: length mismatch");
        Dataset { labels, ..self.clone() }
    }

    /// Same dataset with a replaced sensitive vector — used to build the
    /// interventional twin for the causal-discrimination metric.
    ///
    /// # Panics
    /// Panics if the length differs or values are not binary.
    pub fn with_sensitive(&self, sensitive: Vec<u8>) -> Dataset {
        assert_eq!(sensitive.len(), self.n_rows(), "with_sensitive: length mismatch");
        assert!(sensitive.iter().all(|&s| s <= 1), "with_sensitive: non-binary");
        Dataset { sensitive, ..self.clone() }
    }

    /// The interventional twin: every tuple's sensitive attribute flipped.
    pub fn flip_sensitive(&self) -> Dataset {
        self.with_sensitive(self.sensitive.iter().map(|&s| 1 - s).collect())
    }

    /// Same dataset with every attribute column replaced at once (Feld's
    /// per-attribute repair, Calmon's joint transform). Names are retained.
    pub fn with_all_columns(&self, columns: Vec<Column>) -> Dataset {
        assert_eq!(columns.len(), self.n_attrs(), "with_all_columns: arity mismatch");
        for c in &columns {
            assert_eq!(c.len(), self.n_rows(), "with_all_columns: length mismatch");
        }
        Dataset { columns, ..self.clone() }
    }

    /// Append a copy of row `row` from `src` (which must share this schema).
    /// Used by the serving batcher to merge requests into one batch.
    pub fn push_row_from(&mut self, src: &Dataset, row: usize) {
        debug_assert_eq!(self.n_attrs(), src.n_attrs(), "push_row_from: schema mismatch");
        for (c, sc) in self.columns.iter_mut().zip(src.columns.iter()) {
            c.push_from(sc, row);
        }
        self.sensitive.push(src.sensitive[row]);
        self.labels.push(src.labels[row]);
    }

    /// A compact one-line summary used by the experiment harness logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: |D|={}, |X|={}, S={} (unpriv {:.0}%), Pr(Y=1)={:.2} [S=0: {:.2}, S=1: {:.2}]",
            self.name,
            self.n_rows(),
            self.n_attrs(),
            self.sensitive_name,
            100.0 * self.group_size(0) as f64 / self.n_rows().max(1) as f64,
            self.pos_rate(),
            self.group_pos_rate(0),
            self.group_pos_rate(1),
        )
    }
}

/// Builder for [`Dataset`] with validation on `build`.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    name: String,
    attr_names: Vec<String>,
    columns: Vec<Column>,
    sensitive_name: String,
    sensitive: Vec<u8>,
    label_name: String,
    labels: Vec<u8>,
}

impl DatasetBuilder {
    /// Add a numeric predictive attribute.
    pub fn numeric(mut self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.attr_names.push(name.into());
        self.columns.push(Column::Numeric(values));
        self
    }

    /// Add a categorical predictive attribute with level names.
    pub fn categorical(
        mut self,
        name: impl Into<String>,
        codes: Vec<u32>,
        levels: Vec<String>,
    ) -> Self {
        self.attr_names.push(name.into());
        self.columns.push(Column::Categorical { codes, levels });
        self
    }

    /// Set the sensitive attribute (`1` privileged / `0` unprivileged).
    pub fn sensitive(mut self, name: impl Into<String>, values: Vec<u8>) -> Self {
        self.sensitive_name = name.into();
        self.sensitive = values;
        self
    }

    /// Set the ground-truth labels.
    pub fn labels(mut self, name: impl Into<String>, values: Vec<u8>) -> Self {
        self.label_name = name.into();
        self.labels = values;
        self
    }

    /// Validate and build the dataset.
    pub fn build(self) -> Result<Dataset, FrameError> {
        let n = self.labels.len();
        if n == 0 {
            return Err(FrameError::Empty);
        }
        if self.sensitive.len() != n {
            return Err(FrameError::LengthMismatch {
                column: self.sensitive_name.clone(),
                expected: n,
                actual: self.sensitive.len(),
            });
        }
        for (name, col) in self.attr_names.iter().zip(self.columns.iter()) {
            if col.len() != n {
                return Err(FrameError::LengthMismatch {
                    column: name.clone(),
                    expected: n,
                    actual: col.len(),
                });
            }
            if let Column::Categorical { codes, levels } = col {
                if let Some(&bad) = codes.iter().find(|&&c| c as usize >= levels.len()) {
                    return Err(FrameError::CodeOutOfRange {
                        column: name.clone(),
                        code: bad,
                        levels: levels.len(),
                    });
                }
            }
        }
        if self.sensitive.iter().any(|&s| s > 1) {
            return Err(FrameError::NonBinary { attribute: self.sensitive_name });
        }
        if self.labels.iter().any(|&y| y > 1) {
            return Err(FrameError::NonBinary { attribute: self.label_name });
        }
        Ok(Dataset {
            name: self.name,
            attr_names: self.attr_names,
            columns: self.columns,
            sensitive_name: self.sensitive_name,
            sensitive: self.sensitive,
            label_name: self.label_name,
            labels: self.labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn toy() -> Dataset {
        Dataset::builder("toy")
            .numeric("age", vec![20.0, 30.0, 40.0, 50.0, 60.0, 25.0])
            .categorical(
                "job",
                vec![0, 1, 1, 0, 2, 2],
                vec!["blue".into(), "white".into(), "none".into()],
            )
            .sensitive("sex", vec![1, 1, 0, 0, 1, 0])
            .labels("hired", vec![1, 0, 1, 0, 1, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let d = toy();
        assert_eq!(d.n_rows(), 6);
        assert_eq!(d.n_attrs(), 2);
        assert_eq!(d.attr_names(), &["age".to_string(), "job".to_string()]);
        assert_eq!(d.sensitive_name(), "sex");
        assert_eq!(d.label_name(), "hired");
    }

    #[test]
    fn builder_validates_lengths() {
        let err = Dataset::builder("bad")
            .numeric("x", vec![1.0])
            .sensitive("s", vec![0, 1])
            .labels("y", vec![1, 0])
            .build()
            .unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch { .. }));
    }

    #[test]
    fn builder_validates_binary() {
        let err = Dataset::builder("bad")
            .sensitive("s", vec![0, 2])
            .labels("y", vec![1, 0])
            .build()
            .unwrap_err();
        assert!(matches!(err, FrameError::NonBinary { .. }));
    }

    #[test]
    fn builder_validates_codes() {
        let err = Dataset::builder("bad")
            .categorical("c", vec![0, 5], vec!["a".into()])
            .sensitive("s", vec![0, 1])
            .labels("y", vec![1, 0])
            .build()
            .unwrap_err();
        assert!(matches!(err, FrameError::CodeOutOfRange { .. }));
    }

    #[test]
    fn builder_rejects_empty() {
        assert_eq!(Dataset::builder("e").build().unwrap_err(), FrameError::Empty);
    }

    #[test]
    fn rates_and_counts() {
        let d = toy();
        assert!((d.pos_rate() - 4.0 / 6.0).abs() < 1e-12);
        assert!((d.group_pos_rate(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.group_pos_rate(0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.group_size(0), 3);
        assert_eq!(d.cell_count(1, 1), 2);
        assert_eq!(d.cell_count(0, 0), 1);
    }

    #[test]
    fn select_rows_reorders() {
        let d = toy().select_rows(&[5, 0]);
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.labels(), &[1, 1]);
        assert_eq!(d.sensitive(), &[0, 1]);
        assert_eq!(d.column(0).as_numeric().unwrap(), &[25.0, 20.0]);
    }

    #[test]
    fn select_attrs_projects() {
        let d = toy().select_attrs(&[1]);
        assert_eq!(d.n_attrs(), 1);
        assert_eq!(d.attr_names(), &["job".to_string()]);
        assert_eq!(d.n_rows(), 6);
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(7);
        // All mass on row 2
        let mut w = vec![0.0; 6];
        w[2] = 1.0;
        let s = d.sample_weighted(10, &w, &mut rng);
        assert_eq!(s.n_rows(), 10);
        assert!(s.sensitive().iter().all(|&v| v == 0));
        assert!(s.labels().iter().all(|&v| v == 1));
    }

    #[test]
    fn with_labels_replaces() {
        let d = toy().with_labels(vec![0; 6]);
        assert_eq!(d.pos_rate(), 0.0);
    }

    #[test]
    fn push_row_from_appends() {
        let src = toy();
        let mut d = toy();
        d.push_row_from(&src, 0);
        assert_eq!(d.n_rows(), 7);
        assert_eq!(d.labels()[6], 1);
        assert_eq!(d.column(0).as_numeric().unwrap()[6], 20.0);
    }

    #[test]
    fn unknown_column_errors() {
        let d = toy();
        assert!(d.column_by_name("nope").is_err());
        assert_eq!(d.column_index("job").unwrap(), 1);
    }

    #[test]
    fn summary_mentions_name() {
        assert!(toy().summary().contains("toy"));
    }
}
