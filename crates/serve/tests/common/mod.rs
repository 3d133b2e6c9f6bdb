//! Fixtures shared by the serve and fleet end-to-end suites (the fleet
//! suite includes this file by path): artifact export, request bodies,
//! one-shot HTTP, and an in-process `fairlens-serve`.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

use fairlens_core::{
    all_approaches, baseline_approach, prediction_row, DataSchema, FittedPipeline, ModelArtifact,
};
use fairlens_json::{object, parse, Value};
use fairlens_serve::{http, ServeConfig, Server};
use fairlens_synth::DatasetKind;

/// A fresh, empty directory under the system temp dir.
pub fn temp_models_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flm-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fit `approach_name` on German(300) and save it as `{id}.flm`,
/// returning the fitted pipeline for offline comparison.
pub fn export(dir: &Path, id: &str, approach_name: &str, seed: u64) -> (FittedPipeline, DataSchema) {
    export_on(DatasetKind::German, dir, id, approach_name, seed)
}

/// [`export`], trained on `kind` instead of German.
pub fn export_on(
    kind: DatasetKind,
    dir: &Path,
    id: &str,
    approach_name: &str,
    seed: u64,
) -> (FittedPipeline, DataSchema) {
    let data = kind.generate(300, seed);
    let approach = std::iter::once(baseline_approach())
        .chain(all_approaches(kind.salimi_inadmissible()))
        .find(|a| a.name == approach_name)
        .unwrap_or_else(|| panic!("no approach {approach_name:?}"));
    let fitted = approach.fit(&data, seed).unwrap();
    let metrics = vec![("accuracy".into(), 0.75)];
    let artifact = ModelArtifact::new(&approach, kind.name(), &data, &fitted, seed, metrics);
    artifact.save(&dir.join(format!("{id}.flm"))).unwrap();
    (fitted, artifact.schema)
}

/// Schema-shaped JSON rows from the first `n` rows of a German sample.
pub fn sample_rows(n: usize, seed: u64) -> Vec<Value> {
    let pool = DatasetKind::German.generate(64.max(n), seed);
    (0..n).map(|r| prediction_row(&pool, r)).collect()
}

pub fn predict_body(model: &str, rows: &[Value]) -> String {
    object([
        ("model", Value::String(model.into())),
        ("rows", Value::Array(rows.to_vec())),
    ])
    .to_json()
}

/// A JSON body parsed, anything else (the metrics text) as a string.
pub fn parse_body(body: Vec<u8>) -> Value {
    let text = String::from_utf8(body).unwrap();
    if text.trim_start().starts_with('{') {
        parse(&text).unwrap_or(Value::Null)
    } else {
        Value::String(text)
    }
}

/// One request on a fresh connection (`Err` = the transport died).
pub fn try_one_shot(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Value), String> {
    let resp = http::one_shot(addr, method, path, body.as_bytes(), Duration::from_secs(30))
        .map_err(|e| e.to_string())?;
    Ok((resp.status, parse_body(resp.body)))
}

pub fn one_shot(addr: &str, method: &str, path: &str, body: &str) -> (u16, Value) {
    try_one_shot(addr, method, path, body).unwrap()
}

/// Launch an in-process server over `dir` on an ephemeral port; returns
/// its address and the thread running `Server::run`.
pub fn launch(
    dir: &Path,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (String, JoinHandle<std::io::Result<()>>) {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        models_dir: dir.to_path_buf(),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// `POST /v1/shutdown` to a serve or fleet front door, then join the
/// thread running it: the drain must answer 200 and `run` return `Ok`.
pub fn shutdown_and_join(addr: &str, handle: JoinHandle<std::io::Result<()>>) {
    let (status, _) = one_shot(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap().unwrap();
}
