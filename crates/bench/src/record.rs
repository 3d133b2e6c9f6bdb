//! Machine-readable experiment results.
//!
//! Every evaluated (approach × dataset × fold) cell yields one
//! [`RunRecord`]; batches serialize to JSON-lines files under `results/`
//! through a small hand-rolled serializer (the workspace has no serde).
//! The format is one flat JSON object per line:
//!
//! ```json
//! {"approach":"KamCal^DP","stage":"pre","dataset":"German","fold":0,
//!  "seed":1234,"rows":1000,"attrs":9,"fit_ms":12.5,"predict_ms":0.8,
//!  "metrics":{"accuracy":0.71,...,"crd_fair":0.98}}
//! ```
//!
//! `metrics` is `null` for timing-only cells (the Fig. 11 sweeps); an
//! individual metric that came out non-finite serializes as `null` and
//! parses back as NaN. Metric floats round-trip bit-exactly (shortest
//! round-trip formatting), which is what lets the determinism test compare
//! a parallel run against a sequential one byte for byte.
//!
//! The JSON value model, parser and float formatting live in the shared
//! [`fairlens_json`] crate (they are also what the `.flm` model artifacts
//! and the `fairlens-serve` wire format are built on); this module keeps
//! the record-specific field layout and file handling.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use fairlens_core::write_lines_atomic;
use fairlens_json::{escape_into, fmt_f64, parse, Value};

/// JSON keys of the nine normalised metrics, in
/// [`fairlens_metrics::MetricReport::values`] order.
pub const METRIC_KEYS: [&str; 9] = [
    "accuracy",
    "precision",
    "recall",
    "f1",
    "di_star",
    "tprb_fair",
    "tnrb_fair",
    "cd_fair",
    "crd_fair",
];

/// One evaluated cell of an experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Approach display name (registry name, e.g. `"KamCal^DP"`).
    pub approach: String,
    /// Stage label: `baseline` / `pre` / `in` / `post`.
    pub stage: String,
    /// Dataset display name (`Adult` / `COMPAS` / `German` / `Credit`).
    pub dataset: String,
    /// Fold index within the spec (0-based).
    pub fold: usize,
    /// The cell's derived deterministic seed.
    pub seed: u64,
    /// Rows of the generated dataset the cell ran on (the Fig. 11 size
    /// sweep varies this between otherwise-identical cells).
    pub rows: usize,
    /// Attributes of the data the cell actually used (the Fig. 11
    /// attribute sweep and the Calmon-on-Credit 22-attribute fallback
    /// vary this).
    pub attrs: usize,
    /// The nine normalised metrics ([`METRIC_KEYS`] order); `None` for
    /// timing-only cells.
    pub metrics: Option<[f64; 9]>,
    /// Wall-clock training time (repair + train + adjuster fit), ms.
    pub fit_ms: f64,
    /// Wall-clock prediction time over the evaluation rows, ms.
    pub predict_ms: f64,
    /// How many attempts the cell took (1 = first try; >1 means transient
    /// failures were retried with derived seeds).
    pub attempts: u32,
}

impl RunRecord {
    /// Metric value by key, if this record carries metrics.
    pub fn metric(&self, key: &str) -> Option<f64> {
        let idx = METRIC_KEYS.iter().position(|&k| k == key)?;
        self.metrics.map(|m| m[idx])
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        push_str_field(&mut s, "approach", &self.approach);
        s.push(',');
        push_str_field(&mut s, "stage", &self.stage);
        s.push(',');
        push_str_field(&mut s, "dataset", &self.dataset);
        let _ = write!(s, ",\"fold\":{},\"seed\":{}", self.fold, self.seed);
        let _ = write!(s, ",\"rows\":{},\"attrs\":{}", self.rows, self.attrs);
        let _ = write!(s, ",\"fit_ms\":{}", fmt_f64(self.fit_ms));
        let _ = write!(s, ",\"predict_ms\":{}", fmt_f64(self.predict_ms));
        let _ = write!(s, ",\"attempts\":{}", self.attempts);
        match &self.metrics {
            None => s.push_str(",\"metrics\":null"),
            Some(values) => {
                s.push_str(",\"metrics\":{");
                for (i, (key, v)) in METRIC_KEYS.iter().zip(values).enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{key}\":{}", fmt_f64(*v));
                }
                s.push('}');
            }
        }
        s.push('}');
        s
    }

    /// Parse one JSON line produced by [`Self::to_json`] (field order is
    /// not significant; unknown fields are rejected).
    pub fn from_json(line: &str) -> Result<Self, String> {
        let obj = match parse(line)? {
            Value::Object(o) => o,
            _ => return Err("record line is not a JSON object".into()),
        };
        let mut approach = None;
        let mut stage = None;
        let mut dataset = None;
        let mut fold = None;
        let mut seed = None;
        let mut rows = None;
        let mut attrs = None;
        let mut fit_ms = None;
        let mut predict_ms = None;
        let mut attempts = None;
        let mut metrics: Option<Option<[f64; 9]>> = None;
        for (key, v) in obj {
            match key.as_str() {
                "approach" => approach = Some(v.into_string()?),
                "stage" => stage = Some(v.into_string()?),
                "dataset" => dataset = Some(v.into_string()?),
                "fold" => fold = Some(v.into_f64()? as usize),
                "seed" => seed = Some(v.into_u64()?),
                "rows" => rows = Some(v.into_u64()? as usize),
                "attrs" => attrs = Some(v.into_u64()? as usize),
                "fit_ms" => fit_ms = Some(v.into_f64()?),
                "predict_ms" => predict_ms = Some(v.into_f64()?),
                "attempts" => {
                    let raw = v.into_u64()?;
                    attempts = Some(
                        u32::try_from(raw).map_err(|_| format!("attempts {raw} overflows u32"))?,
                    );
                }
                "metrics" => match v {
                    Value::Null => metrics = Some(None),
                    Value::Object(m) => {
                        let mut out = [f64::NAN; 9];
                        let mut seen = 0usize;
                        for (mk, mv) in m {
                            let idx = METRIC_KEYS
                                .iter()
                                .position(|&k| k == mk)
                                .ok_or_else(|| format!("unknown metric key {mk:?}"))?;
                            out[idx] = mv.into_f64()?;
                            seen += 1;
                        }
                        if seen != METRIC_KEYS.len() {
                            return Err(format!("expected 9 metrics, got {seen}"));
                        }
                        metrics = Some(Some(out));
                    }
                    _ => return Err("metrics must be an object or null".into()),
                },
                other => return Err(format!("unknown record field {other:?}")),
            }
        }
        Ok(RunRecord {
            approach: approach.ok_or("missing approach")?,
            stage: stage.ok_or("missing stage")?,
            dataset: dataset.ok_or("missing dataset")?,
            fold: fold.ok_or("missing fold")?,
            seed: seed.ok_or("missing seed")?,
            rows: rows.ok_or("missing rows")?,
            attrs: attrs.ok_or("missing attrs")?,
            metrics: metrics.ok_or("missing metrics")?,
            fit_ms: fit_ms.ok_or("missing fit_ms")?,
            predict_ms: predict_ms.ok_or("missing predict_ms")?,
            // absent in pre-fault-tolerance files: those cells ran once
            attempts: attempts.unwrap_or(1),
        })
    }
}

/// Why a cell produced no record: the failure taxonomy persisted to the
/// `*.failures.jsonl` sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The cell's code panicked; the panic was isolated to the cell.
    Panicked,
    /// The cell exceeded `--cell-timeout` and was cancelled cooperatively.
    TimedOut,
    /// Training returned a non-transient error (infeasible, unsupported,
    /// bad input — deterministic in the data, never retried).
    TrainError,
    /// Every attempt failed with a transient numeric error.
    ExhaustedRetries,
}

impl FailureKind {
    /// The JSON wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Panicked => "panicked",
            Self::TimedOut => "timed_out",
            Self::TrainError => "train_error",
            Self::ExhaustedRetries => "exhausted_retries",
        }
    }

}

impl std::str::FromStr for FailureKind {
    type Err = String;

    /// Parse the JSON wire name.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "panicked" => Ok(Self::Panicked),
            "timed_out" => Ok(Self::TimedOut),
            "train_error" => Ok(Self::TrainError),
            "exhausted_retries" => Ok(Self::ExhaustedRetries),
            other => Err(format!("unknown failure kind {other:?}")),
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A cell that produced no [`RunRecord`], with enough context to re-run it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Approach display name (or the registry-lookup string that failed).
    pub approach: String,
    /// Dataset display name.
    pub dataset: String,
    /// Fold index within the spec.
    pub fold: usize,
    /// Failure classification.
    pub kind: FailureKind,
    /// Human-readable error (panic message, training error, …).
    pub error: String,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// Wall-clock spent on the cell across all attempts, ms (partial
    /// timing — recorded even when the cell timed out or panicked).
    pub elapsed_ms: f64,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} fold {}: [{}] {} ({} attempt(s), {:.0} ms)",
            self.approach, self.dataset, self.fold, self.kind, self.error, self.attempts,
            self.elapsed_ms
        )
    }
}

impl CellFailure {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(192);
        s.push('{');
        push_str_field(&mut s, "approach", &self.approach);
        s.push(',');
        push_str_field(&mut s, "dataset", &self.dataset);
        let _ = write!(s, ",\"fold\":{},\"kind\":\"{}\"", self.fold, self.kind.as_str());
        s.push(',');
        push_str_field(&mut s, "error", &self.error);
        let _ = write!(s, ",\"attempts\":{}", self.attempts);
        let _ = write!(s, ",\"elapsed_ms\":{}", fmt_f64(self.elapsed_ms));
        s.push('}');
        s
    }

    /// Parse one JSON line produced by [`Self::to_json`].
    pub fn from_json(line: &str) -> Result<Self, String> {
        let obj = match parse(line)? {
            Value::Object(o) => o,
            _ => return Err("failure line is not a JSON object".into()),
        };
        let mut approach = None;
        let mut dataset = None;
        let mut fold = None;
        let mut kind = None;
        let mut error = None;
        let mut attempts = None;
        let mut elapsed_ms = None;
        for (key, v) in obj {
            match key.as_str() {
                "approach" => approach = Some(v.into_string()?),
                "dataset" => dataset = Some(v.into_string()?),
                "fold" => fold = Some(v.into_u64()? as usize),
                "kind" => kind = Some(v.into_string()?.parse::<FailureKind>()?),
                "error" => error = Some(v.into_string()?),
                "attempts" => {
                    let raw = v.into_u64()?;
                    attempts = Some(
                        u32::try_from(raw).map_err(|_| format!("attempts {raw} overflows u32"))?,
                    );
                }
                "elapsed_ms" => elapsed_ms = Some(v.into_f64()?),
                other => return Err(format!("unknown failure field {other:?}")),
            }
        }
        Ok(CellFailure {
            approach: approach.ok_or("missing approach")?,
            dataset: dataset.ok_or("missing dataset")?,
            fold: fold.ok_or("missing fold")?,
            kind: kind.ok_or("missing kind")?,
            error: error.ok_or("missing error")?,
            attempts: attempts.ok_or("missing attempts")?,
            elapsed_ms: elapsed_ms.ok_or("missing elapsed_ms")?,
        })
    }
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    let _ = write!(s, "\"{key}\":");
    escape_into(s, value);
}

/// Write records as JSON-lines, creating parent directories as needed.
pub fn write_jsonl(path: &Path, records: &[RunRecord]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for r in records {
        writeln!(w, "{}", r.to_json())?;
    }
    w.flush()
}

/// Read a JSON-lines result file back into records (blank lines skipped).
pub fn read_jsonl(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| RunRecord::from_json(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Read a JSON-lines result file tolerantly: malformed lines (e.g. a line
/// truncated when a run was killed mid-write) are skipped, not fatal.
/// Returns the parseable records plus the count of skipped lines.
pub fn read_jsonl_lossy(path: &Path) -> Result<(Vec<RunRecord>, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match RunRecord::from_json(line) {
            Ok(r) => records.push(r),
            Err(_) => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// The failures-sidecar path for a results file:
/// `results/fig12_stability.jsonl` → `results/fig12_stability.failures.jsonl`.
pub fn failures_path(results: &Path) -> std::path::PathBuf {
    results.with_extension("failures.jsonl")
}

/// Atomically (re)write a results file; see [`write_lines_atomic`].
pub fn write_jsonl_atomic(path: &Path, records: &[RunRecord]) -> std::io::Result<()> {
    write_lines_atomic(path, records.iter().map(RunRecord::to_json))
}

/// Atomically (re)write a failures sidecar. An empty failure list removes
/// a stale sidecar instead, so a clean run leaves no sidecar behind.
pub fn write_failures_atomic(path: &Path, failures: &[CellFailure]) -> std::io::Result<()> {
    if failures.is_empty() {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    } else {
        write_lines_atomic(path, failures.iter().map(CellFailure::to_json))
    }
}

/// Read a failures sidecar back; a missing file is an empty list.
pub fn read_failures(path: &Path) -> Result<Vec<CellFailure>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| CellFailure::from_json(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Read a failures sidecar tolerantly, mirroring [`read_jsonl_lossy`]:
/// malformed lines (e.g. a last line truncated when a run was killed
/// mid-append) are skipped, not fatal, so a resume still carries every
/// intact failure instead of dropping the whole sidecar. A missing file
/// is an empty list.
pub fn read_failures_lossy(path: &Path) -> Result<(Vec<CellFailure>, usize), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut failures = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match CellFailure::from_json(line) {
            Ok(f) => failures.push(f),
            Err(_) => skipped += 1,
        }
    }
    Ok((failures, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            approach: "KamCal^DP".into(),
            stage: "pre".into(),
            dataset: "German".into(),
            fold: 3,
            seed: 0xDEAD_BEEF_1234,
            rows: 1_000,
            attrs: 9,
            metrics: Some([0.71, 0.55, 0.1 + 0.2, 0.62, 0.9, 1.0, 0.0, 0.33, 0.98]),
            fit_ms: 12.625,
            predict_ms: 0.25,
            attempts: 1,
        }
    }

    fn sample_failure() -> CellFailure {
        CellFailure {
            approach: "Calmon^DP".into(),
            dataset: "Credit".into(),
            fold: 7,
            kind: FailureKind::TimedOut,
            error: "exceeded 30s deadline".into(),
            attempts: 2,
            elapsed_ms: 60000.5,
        }
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let r = sample();
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.approach, r.approach);
        assert_eq!(parsed.seed, r.seed);
        let (a, b) = (r.metrics.unwrap(), parsed.metrics.unwrap());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(parsed.fit_ms.to_bits(), r.fit_ms.to_bits());
        // and the serialized text itself is stable
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn nan_metric_serializes_as_null() {
        let mut r = sample();
        let mut m = r.metrics.unwrap();
        m[4] = f64::NAN;
        r.metrics = Some(m);
        let line = r.to_json();
        assert!(line.contains("\"di_star\":null"), "{line}");
        let parsed = RunRecord::from_json(&line).unwrap();
        assert!(parsed.metrics.unwrap()[4].is_nan());
    }

    #[test]
    fn timing_only_records_have_null_metrics() {
        let mut r = sample();
        r.metrics = None;
        let line = r.to_json();
        assert!(line.contains("\"metrics\":null"), "{line}");
        let parsed = RunRecord::from_json(&line).unwrap();
        assert_eq!(parsed.metrics, None);
    }

    #[test]
    fn escaped_names_survive() {
        let mut r = sample();
        r.approach = "weird\"name\\with\tescapes".into();
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.approach, r.approach);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(RunRecord::from_json("{").is_err());
        assert!(RunRecord::from_json("[]").is_err());
        assert!(RunRecord::from_json("{\"approach\":\"x\"}").is_err());
        let with_unknown = sample().to_json().replace("\"fold\"", "\"bold\"");
        assert!(RunRecord::from_json(&with_unknown).is_err());
    }

    #[test]
    fn jsonl_file_round_trip() {
        let dir = std::env::temp_dir().join("fairlens_record_test");
        let path = dir.join("batch.jsonl");
        let records = vec![sample(), {
            let mut r = sample();
            r.fold = 4;
            r.metrics = None;
            r
        }];
        write_jsonl(&path, &records).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeds_beyond_f64_mantissa_round_trip_exactly() {
        let mut r = sample();
        r.seed = u64::MAX - 41; // needs all 64 bits; f64 would round it
        let parsed = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.seed, r.seed);
    }

    #[test]
    fn metric_lookup_by_key() {
        let r = sample();
        assert_eq!(r.metric("accuracy"), Some(0.71));
        assert_eq!(r.metric("crd_fair"), Some(0.98));
        assert_eq!(r.metric("nope"), None);
    }

    #[test]
    fn attempts_default_to_one_for_old_files() {
        // pre-fault-tolerance lines carry no "attempts" field
        let line = sample().to_json().replace(",\"attempts\":1", "");
        let parsed = RunRecord::from_json(&line).unwrap();
        assert_eq!(parsed.attempts, 1);
    }

    #[test]
    fn retried_record_round_trips_attempts() {
        let mut r = sample();
        r.attempts = 3;
        let line = r.to_json();
        assert!(line.contains("\"attempts\":3"), "{line}");
        assert_eq!(RunRecord::from_json(&line).unwrap(), r);
    }

    #[test]
    fn failure_json_round_trip() {
        for kind in [
            FailureKind::Panicked,
            FailureKind::TimedOut,
            FailureKind::TrainError,
            FailureKind::ExhaustedRetries,
        ] {
            let mut f = sample_failure();
            f.kind = kind;
            f.error = "panic with \"quotes\"\nand newline".into();
            let line = f.to_json();
            assert!(line.contains(&format!("\"kind\":\"{}\"", kind.as_str())), "{line}");
            assert_eq!(CellFailure::from_json(&line).unwrap(), f);
        }
    }

    #[test]
    fn failure_rejects_unknown_kind_and_fields() {
        let bad_kind = sample_failure().to_json().replace("timed_out", "melted");
        assert!(CellFailure::from_json(&bad_kind).is_err());
        let bad_field = sample_failure().to_json().replace("\"fold\"", "\"gold\"");
        assert!(CellFailure::from_json(&bad_field).is_err());
    }

    #[test]
    fn failures_sidecar_file_round_trip() {
        let dir = std::env::temp_dir().join("fairlens_failures_test");
        let results = dir.join("fig12_stability.jsonl");
        let sidecar = failures_path(&results);
        assert_eq!(sidecar, dir.join("fig12_stability.failures.jsonl"));
        let failures = vec![sample_failure(), {
            let mut f = sample_failure();
            f.kind = FailureKind::Panicked;
            f.fold = 8;
            f
        }];
        write_failures_atomic(&sidecar, &failures).unwrap();
        assert_eq!(read_failures(&sidecar).unwrap(), failures);
        // clean run: sidecar removed, missing file reads as empty
        write_failures_atomic(&sidecar, &[]).unwrap();
        assert!(!sidecar.exists());
        assert_eq!(read_failures(&sidecar).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_matches_plain_write() {
        let dir = std::env::temp_dir().join("fairlens_atomic_test");
        let plain = dir.join("plain.jsonl");
        let atomic = dir.join("atomic.jsonl");
        let records = vec![sample()];
        write_jsonl(&plain, &records).unwrap();
        write_jsonl_atomic(&atomic, &records).unwrap();
        assert_eq!(
            std::fs::read_to_string(&plain).unwrap(),
            std::fs::read_to_string(&atomic).unwrap()
        );
        assert!(!dir.join("atomic.jsonl.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_read_skips_truncated_tail() {
        let dir = std::env::temp_dir().join("fairlens_lossy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("killed.jsonl");
        let good = sample().to_json();
        let truncated = &good[..good.len() / 2]; // simulate a mid-write kill
        std::fs::write(&path, format!("{good}\n{truncated}")).unwrap();
        let (records, skipped) = read_jsonl_lossy(&path).unwrap();
        assert_eq!(records, vec![sample()]);
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failures_lossy_read_skips_truncated_last_line() {
        let dir = std::env::temp_dir().join("fairlens_failures_lossy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("killed.failures.jsonl");
        let good = sample_failure().to_json();
        let truncated = &good[..good.len() - 7]; // kill mid-append
        std::fs::write(&path, format!("{good}\n{truncated}")).unwrap();
        let (failures, skipped) = read_failures_lossy(&path).unwrap();
        assert_eq!(failures, vec![sample_failure()]);
        assert_eq!(skipped, 1);
        // The strict reader refuses the same file — the resume path must
        // use the lossy one.
        assert!(read_failures(&path).is_err());
        // And a missing sidecar is an empty list, not an error.
        let (none, skipped) = read_failures_lossy(&dir.join("absent.jsonl")).unwrap();
        assert!(none.is_empty());
        assert_eq!(skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_reads_skip_interleaved_foreign_lines() {
        // A resume pointed at concatenated checkpoint output can see
        // record and failure lines interleaved in one file; each lossy
        // reader must keep its own rows and count the other kind as
        // skipped rather than abort the resume.
        let dir = std::env::temp_dir().join("fairlens_interleave_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.jsonl");
        let r1 = sample().to_json();
        let f1 = sample_failure().to_json();
        let mut r2 = sample();
        r2.fold = 9;
        std::fs::write(&path, format!("{r1}\n{f1}\n{}\n", r2.to_json())).unwrap();
        let (records, skipped) = read_jsonl_lossy(&path).unwrap();
        assert_eq!(records, vec![sample(), r2]);
        assert_eq!(skipped, 1);
        let (failures, skipped) = read_failures_lossy(&path).unwrap();
        assert_eq!(failures, vec![sample_failure()]);
        assert_eq!(skipped, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attempts_overflow_is_rejected() {
        // u64::MAX fits the JSON integer model but not the u32 field; the
        // parser must fail loudly instead of wrapping.
        let record_line =
            sample().to_json().replace("\"attempts\":1", "\"attempts\":4294967296");
        let err = RunRecord::from_json(&record_line).unwrap_err();
        assert!(err.contains("overflows u32"), "{err}");
        let failure_line =
            sample_failure().to_json().replace("\"attempts\":2", "\"attempts\":18446744073709551615");
        let err = CellFailure::from_json(&failure_line).unwrap_err();
        assert!(err.contains("overflows u32"), "{err}");
        // The boundary value itself still parses.
        let max_line =
            sample().to_json().replace("\"attempts\":1", "\"attempts\":4294967295");
        assert_eq!(RunRecord::from_json(&max_line).unwrap().attempts, u32::MAX);
    }
}
