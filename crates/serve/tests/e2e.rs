//! End-to-end tests: a real server on an ephemeral port, a real client
//! over TCP, and byte-identical agreement with offline prediction.

mod common;

use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use common::{
    export, launch, one_shot, parse_body, predict_body, sample_rows, shutdown_and_join,
    temp_models_dir,
};
use fairlens_core::ModelArtifact;
use fairlens_json::{object, parse, Value};
use fairlens_serve::http::Conn;
use fairlens_serve::ServeFaults;

// ---------------------------------------------------------------------------
// Harness

/// Keep-alive test client over the crate's own strict [`Conn`].
struct Client(Conn);

impl Client {
    fn open(addr: &str) -> Self {
        Self(Conn::connect(addr, Duration::from_secs(30)).unwrap())
    }

    fn send_raw(&mut self, raw: &str) {
        self.0.write_raw(raw.as_bytes()).unwrap();
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, Value) {
        let (status, v, _) = self.request_meta(method, path, body);
        (status, v)
    }

    fn request_meta(&mut self, method: &str, path: &str, body: &str) -> (u16, Value, RespMeta) {
        self.0.write_request(method, path, body.as_bytes()).unwrap();
        self.read_response_full()
    }

    fn read_response(&mut self) -> (u16, Value) {
        let (status, v, _) = self.read_response_full();
        (status, v)
    }

    fn read_response_full(&mut self) -> (u16, Value, RespMeta) {
        let (resp, close) = self.0.read_response().unwrap();
        let meta = RespMeta { retry_after: resp.retry_after, close };
        (resp.status, parse_body(resp.body), meta)
    }
}

/// Response headers the overload tests assert on.
struct RespMeta {
    retry_after: Option<u64>,
    close: bool,
}

fn error_kind(v: &Value) -> Option<String> {
    v.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str).map(str::to_string)
}

/// Stage `candidate` as `model`'s shadow through `POST /v1/shadow`.
fn attach_shadow(addr: &str, model: &str, candidate: &Path) {
    let body = object([
        ("model", Value::String(model.into())),
        ("artifact", Value::String(candidate.to_string_lossy().into_owned())),
    ])
    .to_json();
    let (status, v) = one_shot(addr, "POST", "/v1/shadow", &body);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("shadowing"));
}

// ---------------------------------------------------------------------------
// Tests

#[test]
fn health_models_and_metrics_respond() {
    let dir = temp_models_dir("basic");
    export(&dir, "german-lr", "LR", 11);
    let (addr, handle) = launch(&dir, |_| {});

    let (status, v) = one_shot(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));

    let (status, v) = one_shot(&addr, "GET", "/v1/models", "");
    assert_eq!(status, 200);
    let models = v.get("models").cloned().unwrap().into_array().unwrap();
    assert_eq!(models.len(), 1);
    let m = &models[0];
    assert_eq!(m.get("id").and_then(Value::as_str), Some("german-lr"));
    assert_eq!(m.get("dataset").and_then(Value::as_str), Some("German"));
    assert!(m.get("train_metrics").unwrap().get("accuracy").is_some());

    let (status, text) = Client::open(&addr).request("GET", "/metrics", "");
    assert_eq!(status, 200);
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_requests_total"), "{text}");

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_predictions_match_offline_predict_bit_exactly() {
    let dir = temp_models_dir("exact");
    let (fitted, schema) = export(&dir, "german-lr", "LR", 13);
    let (addr, handle) = launch(&dir, |_| {});

    let rows = sample_rows(24, 99);
    let offline = schema.dataset_from_rows(&rows).unwrap();
    let want_labels = fitted.predict(&offline);
    let want_scores = fitted.predict_proba(&offline);

    // Batch request.
    let (status, v) = one_shot(&addr, "POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("count").cloned().unwrap().into_u64().unwrap(), 24);
    let labels: Vec<u8> = v
        .get("predictions")
        .cloned()
        .unwrap()
        .into_array()
        .unwrap()
        .into_iter()
        .map(|x| x.into_u64().unwrap() as u8)
        .collect();
    let scores = v.get("scores").cloned().unwrap().into_f64s().unwrap();
    assert_eq!(labels, want_labels);
    assert_eq!(
        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        want_scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        "served scores must round-trip bit-exactly"
    );

    // Single-row request.
    let body = object([
        ("model", Value::String("german-lr".into())),
        ("row", rows[0].clone()),
    ])
    .to_json();
    let (status, v) = one_shot(&addr, "POST", "/v1/predict", &body);
    assert_eq!(status, 200);
    assert_eq!(v.get("prediction").cloned().unwrap().into_u64().unwrap() as u8, want_labels[0]);
    assert_eq!(
        v.get("score").cloned().unwrap().into_f64().unwrap().to_bits(),
        want_scores[0].to_bits()
    );

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stochastic_postprocessors_match_offline_per_request() {
    let dir = temp_models_dir("hardt");
    let (fitted, schema) = export(&dir, "german-hardt", "Hardt^EO", 17);
    let (addr, handle) = launch(&dir, |_| {});

    // Hardt's rule draws from an RNG keyed on (seed, batch rows): served
    // predictions must match an offline call on exactly this row set,
    // which also proves the batcher did not merge it with anything else.
    for n in [1usize, 7] {
        let rows = sample_rows(n, 3 + n as u64);
        let offline = schema.dataset_from_rows(&rows).unwrap();
        let want = fitted.predict(&offline);
        let (status, v) =
            one_shot(&addr, "POST", "/v1/predict", &predict_body("german-hardt", &rows));
        assert_eq!(status, 200, "{v:?}");
        let labels: Vec<u8> = v
            .get("predictions")
            .cloned()
            .unwrap()
            .into_array()
            .unwrap()
            .into_iter()
            .map(|x| x.into_u64().unwrap() as u8)
            .collect();
        assert_eq!(labels, want, "n={n}");
    }

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_structured_and_never_close_the_connection() {
    let dir = temp_models_dir("errors");
    export(&dir, "german-lr", "LR", 19);
    let (addr, handle) = launch(&dir, |_| {});
    let mut client = Client::open(&addr);

    let kind_of = |v: &Value| {
        v.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str).map(str::to_string)
    };

    // Malformed JSON → 400, connection stays usable.
    let (status, v) = client.request("POST", "/v1/predict", "{not json");
    assert_eq!(status, 400);
    assert_eq!(kind_of(&v).as_deref(), Some("bad_request"));

    // Unknown model → 404 on the same connection.
    let rows = sample_rows(2, 5);
    let (status, v) = client.request("POST", "/v1/predict", &predict_body("nope", &rows));
    assert_eq!(status, 404);
    assert_eq!(kind_of(&v).as_deref(), Some("unknown_model"));

    // Bad row (unknown attribute) → row-addressed 400.
    let bad = object([("model", Value::String("german-lr".into())), (
        "rows",
        Value::Array(vec![object([("bogus_attr", Value::Number(1.0))])]),
    )]);
    let (status, v) = client.request("POST", "/v1/predict", &bad.to_json());
    assert_eq!(status, 400);
    let msg = v.get("error").unwrap().get("message").unwrap().as_str().unwrap().to_string();
    assert!(msg.contains("row 0"), "{msg}");

    // Missing rows → 400; wrong method → 405; unknown route → 404.
    let (status, v) =
        client.request("POST", "/v1/predict", "{\"model\": \"german-lr\"}");
    assert_eq!(status, 400);
    assert_eq!(kind_of(&v).as_deref(), Some("bad_request"));
    let (status, v) = client.request("GET", "/v1/predict", "");
    assert_eq!(status, 405);
    assert_eq!(kind_of(&v).as_deref(), Some("method_not_allowed"));
    let (status, v) = client.request("GET", "/v1/nothing", "");
    assert_eq!(status, 404);
    assert_eq!(kind_of(&v).as_deref(), Some("not_found"));

    // After all that, the same connection still serves a good request.
    let (status, _) =
        client.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200);

    // Oversized declared body → 413 before any body byte is read (fresh
    // connection: framing errors do close).
    let mut big = Client::open(&addr);
    big.send_raw("POST /v1/predict HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n");
    let (status, v) = big.read_response();
    assert_eq!(status, 413);
    assert_eq!(kind_of(&v).as_deref(), Some("payload_too_large"));

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_deadline_times_out_with_504() {
    let dir = temp_models_dir("deadline");
    export(&dir, "german-lr", "LR", 23);
    let (addr, handle) = launch(&dir, |cfg| cfg.deadline = Duration::ZERO);

    let rows = sample_rows(4, 7);
    let (status, v) = one_shot(&addr, "POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 504, "{v:?}");
    assert_eq!(
        v.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str),
        Some("timed_out")
    );

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let dir = temp_models_dir("drain");
    export(&dir, "german-lr", "LR", 29);
    let (addr, handle) = launch(&dir, |_| {});

    // A keep-alive connection opened before the drain trigger: its
    // in-flight request after shutdown gets a structured 503, not a reset.
    let mut survivor = Client::open(&addr);
    let (status, _) = survivor.request("GET", "/healthz", "");
    assert_eq!(status, 200);

    let (status, _) = one_shot(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);

    let rows = sample_rows(2, 31);
    let (status, v) =
        survivor.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 503, "{v:?}");
    assert_eq!(
        v.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str),
        Some("shutting_down")
    );

    // run() returns Ok once drained; afterwards the port is closed.
    handle.join().unwrap().unwrap();
    assert!(TcpStream::connect(&addr).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flood_past_the_queue_bound_sheds_429_and_serves_the_queued_request() {
    let dir = temp_models_dir("flood");
    let (fitted, schema) = export(&dir, "german-lr", "LR", 37);
    // An injected hang parks the executor on the first request, so the
    // queue (bounded at 1) genuinely fills; the deadline bounds how long
    // the parked request stalls.
    let (addr, handle) = launch(&dir, |cfg| {
        cfg.max_queue = 1;
        cfg.max_batch = 1;
        cfg.deadline = Duration::from_millis(1500);
        cfg.faults = Arc::new(ServeFaults::parse("hang:german-lr:1").unwrap());
    });

    // A: parked inside the injected hang until its deadline.
    let rows_a = sample_rows(2, 41);
    let (addr_a, body_a) = (addr.clone(), predict_body("german-lr", &rows_a));
    let parked =
        std::thread::spawn(move || Client::open(&addr_a).request("POST", "/v1/predict", &body_a));
    std::thread::sleep(Duration::from_millis(300));

    // B: sits in the (capacity-1) queue behind the parked flush.
    let rows_b = sample_rows(3, 43);
    let offline_b = schema.dataset_from_rows(&rows_b).unwrap();
    let want_labels = fitted.predict(&offline_b);
    let want_scores = fitted.predict_proba(&offline_b);
    let (addr_b, body_b) = (addr.clone(), predict_body("german-lr", &rows_b));
    let queued =
        std::thread::spawn(move || Client::open(&addr_b).request("POST", "/v1/predict", &body_b));
    std::thread::sleep(Duration::from_millis(300));

    // C: the queue is full — shed with a structured 429 + Retry-After,
    // and the connection survives for the follow-up metrics scrape.
    let rows_c = sample_rows(1, 47);
    let mut c = Client::open(&addr);
    let (status, v, meta) =
        c.request_meta("POST", "/v1/predict", &predict_body("german-lr", &rows_c));
    assert_eq!(status, 429, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("overloaded"));
    assert!(meta.retry_after.is_some(), "429 must carry Retry-After");
    assert_eq!(
        v.get("error").unwrap().get("retry_after_seconds").cloned().unwrap().into_u64(),
        Ok(meta.retry_after.unwrap()),
        "header and body hints must agree"
    );

    // Mid-overload metrics: the queue gauge is pinned at its bound and
    // the shed is counted.
    let (status, text) = c.request("GET", "/metrics", "");
    assert_eq!(status, 200);
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_queue_depth{model=\"german-lr\"} 1"), "{text}");
    assert!(text.contains("fairlens_shed_total{reason=\"queue_full\"} 1"), "{text}");

    // A stalls out with a 504; B is served once the hang resolves, and
    // its answer is bit-exact with the offline pipeline.
    let (status, v) = parked.join().unwrap();
    assert_eq!(status, 504, "{v:?}");
    let (status, v) = queued.join().unwrap();
    assert_eq!(status, 200, "{v:?}");
    let labels: Vec<u8> = v
        .get("predictions")
        .cloned()
        .unwrap()
        .into_array()
        .unwrap()
        .into_iter()
        .map(|x| x.into_u64().unwrap() as u8)
        .collect();
    let scores = v.get("scores").cloned().unwrap().into_f64s().unwrap();
    assert_eq!(labels, want_labels);
    assert_eq!(
        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        want_scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        "a request that survived the overload must still be bit-exact"
    );

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn breaker_opens_on_executor_death_and_a_probe_re_closes_it() {
    let dir = temp_models_dir("breaker");
    let (fitted, schema) = export(&dir, "german-lr", "LR", 53);
    let (addr, handle) = launch(&dir, |cfg| {
        cfg.breaker_threshold = 1;
        cfg.breaker_cooldown = Duration::from_millis(300);
        cfg.faults = Arc::new(ServeFaults::parse("panic:german-lr:1").unwrap());
    });
    let rows = sample_rows(4, 59);
    let offline = schema.dataset_from_rows(&rows).unwrap();
    let want_labels = fitted.predict(&offline);
    let mut client = Client::open(&addr);

    // 1: the injected panic kills the executor mid-request → structured
    // 503, never a dropped connection; the breaker (threshold 1) opens.
    let (status, v, meta) =
        client.request_meta("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 503, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("unavailable"));
    assert!(meta.retry_after.is_some());

    // 2: rejected at the door by the open breaker, with Retry-After.
    let (status, v, meta) =
        client.request_meta("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 503, "{v:?}");
    assert!(v.get("error").unwrap().get("message").unwrap().as_str().unwrap().contains("breaker"));
    assert!(meta.retry_after.is_some());

    // The listing and metrics agree: open, tripped once.
    let (_, v) = client.request("GET", "/v1/models", "");
    let m = &v.get("models").cloned().unwrap().into_array().unwrap()[0];
    assert_eq!(m.get("breaker").and_then(Value::as_str), Some("open"));
    let (_, text) = client.request("GET", "/metrics", "");
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_breaker_state{model=\"german-lr\"} 2"), "{text}");
    assert!(text.contains("fairlens_breaker_opens_total{model=\"german-lr\"} 1"), "{text}");
    assert!(text.contains("fairlens_shed_total{reason=\"breaker_open\"} 1"), "{text}");

    // 3: after the cooldown the probe is admitted, the registry respawns
    // the executor from the artifact, and the answer is bit-exact.
    std::thread::sleep(Duration::from_millis(400));
    let (status, v) = client.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200, "{v:?}");
    let labels: Vec<u8> = v
        .get("predictions")
        .cloned()
        .unwrap()
        .into_array()
        .unwrap()
        .into_iter()
        .map(|x| x.into_u64().unwrap() as u8)
        .collect();
    assert_eq!(labels, want_labels, "respawned executor must serve bit-exactly");

    // The probe's success re-closed the breaker.
    let (_, v) = client.request("GET", "/v1/models", "");
    let m = &v.get("models").cloned().unwrap().into_array().unwrap()[0];
    assert_eq!(m.get("breaker").and_then(Value::as_str), Some("closed"));
    assert_eq!(m.get("status").and_then(Value::as_str), Some("ready"));
    let (_, text) = client.request("GET", "/metrics", "");
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_breaker_state{model=\"german-lr\"} 0"), "{text}");

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_loris_requests_are_cut_off_with_408() {
    let dir = temp_models_dir("loris");
    export(&dir, "german-lr", "LR", 61);
    let (addr, handle) = launch(&dir, |cfg| {
        cfg.limits.read_deadline = Duration::from_millis(600);
    });

    // Drip half a request and go quiet: the read deadline must cut the
    // connection loose with a structured 408 instead of pinning a worker.
    let mut loris = Client::open(&addr);
    loris.send_raw("POST /v1/predict HTTP/1.1\r\ncontent-le");
    let t0 = std::time::Instant::now();
    let (status, v, meta) = loris.read_response_full();
    assert_eq!(status, 408, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("request_timeout"));
    assert!(meta.close, "a timed-out read poisons the stream");
    assert!(t0.elapsed() >= Duration::from_millis(300), "must not fire instantly");

    // The server is unharmed: a well-behaved request still round-trips.
    let rows = sample_rows(2, 67);
    let (status, _) = one_shot(&addr, "POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200);

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadow_with_identical_candidate_stays_clean_and_promotes() {
    let dir = temp_models_dir("shadow-clean");
    let (fitted, schema) = export(&dir, "german-lr", "LR", 81);
    // The candidate lives outside the scanned models dir (a byte-exact
    // copy of the incumbent), so it is a shadow, not a second model.
    let cand_dir = temp_models_dir("shadow-clean-cand");
    let candidate = cand_dir.join("candidate.flm");
    std::fs::copy(dir.join("german-lr.flm"), &candidate).unwrap();
    let record = cand_dir.join("recorded.jsonl");
    let (addr, handle) = launch(&dir, |cfg| cfg.record = Some(record.clone()));
    attach_shadow(&addr, "german-lr", &candidate);

    // Drive a few requests: answers still come from (and bit-match) the
    // incumbent, while the shadow compares in the background.
    let mut client = Client::open(&addr);
    for seed in [91u64, 92, 93] {
        let rows = sample_rows(4, seed);
        let offline = schema.dataset_from_rows(&rows).unwrap();
        let want = fitted.predict_proba(&offline);
        let (status, v) = client.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
        assert_eq!(status, 200, "{v:?}");
        let scores = v.get("scores").cloned().unwrap().into_f64s().unwrap();
        assert_eq!(
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        );
    }

    // The listing surfaces the clean comparison window.
    let (_, v) = client.request("GET", "/v1/models", "");
    let m = &v.get("models").cloned().unwrap().into_array().unwrap()[0];
    let shadow = m.get("shadow").expect("shadow block in /v1/models");
    assert_eq!(shadow.get("compared").cloned().unwrap().into_u64(), Ok(3));
    assert_eq!(shadow.get("divergence").cloned().unwrap().into_u64(), Ok(0));
    assert!(shadow.get("first_divergence").is_none());
    let (_, text) = client.request("GET", "/metrics", "");
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_shadow_compared_total{model=\"german-lr\"} 3"), "{text}");
    assert!(text.contains("fairlens_shadow_divergence_total{model=\"german-lr\"} 0"), "{text}");

    // Replace the candidate file with a differently seeded model after
    // its clean window: promote must install the artifact the shadow
    // verified, never these untested bytes.
    export(&cand_dir, "candidate", "LR", 82);

    // Clean window → promote succeeds and the shadow detaches.
    let (status, v) = client.request("POST", "/v1/promote", "{\"model\": \"german-lr\"}");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("promoted"));
    assert_eq!(v.get("compared").cloned().unwrap().into_u64(), Ok(3));
    let (_, v) = client.request("GET", "/v1/models", "");
    let m = &v.get("models").cloned().unwrap().into_array().unwrap()[0];
    assert!(m.get("shadow").is_none(), "promoted shadow must detach");
    // A second promote has nothing to cut over → 400.
    let (status, v) = client.request("POST", "/v1/promote", "{\"model\": \"german-lr\"}");
    assert_eq!(status, 400, "{v:?}");

    // The promoted artifact still serves bit-exactly against the
    // verified candidate.
    let rows = sample_rows(2, 94);
    let offline = schema.dataset_from_rows(&rows).unwrap();
    let want = fitted.predict_proba(&offline);
    let (status, v) = client.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200, "{v:?}");
    let scores = v.get("scores").cloned().unwrap().into_f64s().unwrap();
    assert_eq!(
        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
    );

    shutdown_and_join(&addr, handle);

    // The recorder captured every predict exchange, score bits included.
    let log = std::fs::read_to_string(&record).unwrap();
    let entries: Vec<Value> = log.lines().map(|l| parse(l).unwrap()).collect();
    assert_eq!(entries.len(), 4, "{log}");
    for e in &entries {
        assert_eq!(e.get("status").cloned().unwrap().into_u64(), Ok(200));
        let bits = e.get("score_bits").cloned().unwrap().into_array().unwrap();
        assert!(!bits.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cand_dir);
}

#[test]
fn shadow_divergence_increments_counters_and_blocks_promote() {
    use fairlens_core::{FittedPipeline, ModelParams};
    use fairlens_model::LogisticRegression;

    let dir = temp_models_dir("shadow-dirty");
    let (fitted, schema) = export(&dir, "german-lr", "LR", 83);
    // The candidate: the incumbent with one coefficient bit flipped —
    // bit 8 rather than the last place, because a 1-ulp weight change
    // is absorbed by output rounding on most rows (same choice as the
    // flm_flip tool, and still a ~1e-14 relative nudge).
    let cand_dir = temp_models_dir("shadow-dirty-cand");
    let candidate = cand_dir.join("candidate.flm");
    let mut artifact = ModelArtifact::load(&dir.join("german-lr.flm")).unwrap();
    let base = match &mut artifact.pipeline {
        FittedPipeline::Model(m) => m,
        FittedPipeline::Adjusted { base, .. } => base,
    };
    let model = match &mut base.params {
        ModelParams::Linear(m) => m,
        ModelParams::Mixture(ms) => ms.first_mut().unwrap(),
    };
    let mut weights = model.weights().to_vec();
    weights[0] = f64::from_bits(weights[0].to_bits() ^ (1 << 8));
    *model = LogisticRegression::from_params(weights, model.intercept());
    artifact.save(&candidate).unwrap();
    let (addr, handle) = launch(&dir, |_| {});
    attach_shadow(&addr, "german-lr", &candidate);

    // The response still comes from — and bit-matches — the incumbent;
    // the flipped candidate only dirties the comparison window.
    let mut client = Client::open(&addr);
    let rows = sample_rows(8, 97);
    let offline = schema.dataset_from_rows(&rows).unwrap();
    let want = fitted.predict_proba(&offline);
    let (status, v) = client.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200, "{v:?}");
    let scores = v.get("scores").cloned().unwrap().into_f64s().unwrap();
    assert_eq!(
        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        "a diverging shadow must never shape the response"
    );

    let (_, text) = client.request("GET", "/metrics", "");
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_shadow_compared_total{model=\"german-lr\"} 1"), "{text}");
    assert!(text.contains("fairlens_shadow_divergence_total{model=\"german-lr\"} 1"), "{text}");

    // The listing pins the first divergence with both bit patterns.
    let (_, v) = client.request("GET", "/v1/models", "");
    let m = &v.get("models").cloned().unwrap().into_array().unwrap()[0];
    let shadow = m.get("shadow").unwrap();
    assert_eq!(shadow.get("divergence").cloned().unwrap().into_u64(), Ok(1));
    let first = shadow.get("first_divergence").expect("first divergence pinned");
    assert_eq!(first.get("request").cloned().unwrap().into_u64(), Ok(1));
    let inc_bits = first.get("incumbent_bits").and_then(Value::as_str).unwrap().to_string();
    assert!(inc_bits.starts_with("0x"), "{inc_bits}");

    // Promote refuses with a structured 409 naming the first differing
    // request and the score bits.
    let (status, v) = client.request("POST", "/v1/promote", "{\"model\": \"german-lr\"}");
    assert_eq!(status, 409, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("conflict"));
    let msg = v.get("error").unwrap().get("message").unwrap().as_str().unwrap().to_string();
    assert!(msg.contains("1 of 1"), "{msg}");
    assert!(msg.contains("request 1"), "{msg}");
    assert!(msg.contains(&inc_bits), "{msg} vs {inc_bits}");

    // The incumbent keeps serving after the refusal.
    let (status, _) = client.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200);

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cand_dir);
}

#[test]
fn promote_without_traffic_is_a_409_and_unknown_model_a_404() {
    let dir = temp_models_dir("promote-empty");
    export(&dir, "german-lr", "LR", 87);
    let cand_dir = temp_models_dir("promote-empty-cand");
    let candidate = cand_dir.join("candidate.flm");
    std::fs::copy(dir.join("german-lr.flm"), &candidate).unwrap();
    let (addr, handle) = launch(&dir, |_| {});
    attach_shadow(&addr, "german-lr", &candidate);

    // An empty comparison window has proven nothing → 409.
    let (status, v) = one_shot(&addr, "POST", "/v1/promote", "{\"model\": \"german-lr\"}");
    assert_eq!(status, 409, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("conflict"));
    let (status, v) = one_shot(&addr, "POST", "/v1/promote", "{\"model\": \"nope\"}");
    assert_eq!(status, 404, "{v:?}");
    let (status, v) = one_shot(&addr, "POST", "/v1/promote", "{}");
    assert_eq!(status, 400, "{v:?}");
    let (status, _) = one_shot(&addr, "GET", "/v1/promote", "");
    assert_eq!(status, 405);

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cand_dir);
}

#[test]
fn unloadable_artifacts_are_quarantined_not_fatal() {
    let dir = temp_models_dir("quarantine");
    export(&dir, "german-lr", "LR", 73);
    std::fs::write(dir.join("rotten.flm"), "definitely not an artifact").unwrap();
    let (addr, handle) = launch(&dir, |_| {});

    // The listing carries both: the loadable model ready, the corrupt
    // one quarantined with its reason.
    let (status, v) = one_shot(&addr, "GET", "/v1/models", "");
    assert_eq!(status, 200);
    let models = v.get("models").cloned().unwrap().into_array().unwrap();
    assert_eq!(models.len(), 2, "{v:?}");
    let by_id = |id: &str| {
        models.iter().find(|m| m.get("id").and_then(Value::as_str) == Some(id)).unwrap()
    };
    assert_eq!(by_id("german-lr").get("status").and_then(Value::as_str), Some("ready"));
    let rotten = by_id("rotten");
    assert_eq!(rotten.get("status").and_then(Value::as_str), Some("unloadable"));
    assert!(rotten.get("error").and_then(Value::as_str).is_some());

    // Predicting against it is an immediate structured 503 served from
    // the negative cache, and it is counted exactly once.
    let rows = sample_rows(1, 79);
    let (status, v) = one_shot(&addr, "POST", "/v1/predict", &predict_body("rotten", &rows));
    assert_eq!(status, 503, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("unavailable"));
    let (_, text) = Client::open(&addr).request("GET", "/metrics", "");
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_model_load_failures_total 1"), "{text}");

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feedback_joins_labels_and_rejects_bad_reports_end_to_end() {
    let dir = temp_models_dir("feedback");
    export(&dir, "german-lr", "LR", 41);
    let (addr, handle) = launch(&dir, |cfg| cfg.monitor_window = 32);
    let mut client = Client::open(&addr);

    let rows = sample_rows(5, 51);
    let (status, v) = client.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200, "{v:?}");
    let seq = v.get("seq").cloned().unwrap().into_u64().unwrap();
    let fb = |seq: u64, labels: &str| {
        format!("{{\"model\": \"german-lr\", \"seq\": {seq}, \"labels\": {labels}}}")
    };

    // Accepted: all five labels join rows still resident in the window.
    let (status, v) = client.request("POST", "/v1/feedback", &fb(seq, "[1,0,1,1,0]"));
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(v.get("matched").cloned().unwrap().into_u64(), Ok(5));
    assert_eq!(v.get("expected").cloned().unwrap().into_u64(), Ok(5));

    // A second report for the same seq is a conflict.
    let (status, v) = client.request("POST", "/v1/feedback", &fb(seq, "[1,0,1,1,0]"));
    assert_eq!(status, 409, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("conflict"));
    // A seq this model never issued is not found.
    let (status, v) = client.request("POST", "/v1/feedback", &fb(999, "[1]"));
    assert_eq!(status, 404, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("not_found"));
    // A label count disagreeing with the original row count is a 400
    // that still reaches the per-model feedback counters...
    let (status, v) =
        client.request("POST", "/v1/predict", &predict_body("german-lr", &rows[..3]));
    assert_eq!(status, 200, "{v:?}");
    let seq2 = v.get("seq").cloned().unwrap().into_u64().unwrap();
    let (status, v) = client.request("POST", "/v1/feedback", &fb(seq2, "[1]"));
    assert_eq!(status, 400, "{v:?}");
    assert_eq!(error_kind(&v).as_deref(), Some("bad_request"));
    // ...while a malformed label value is rejected before the monitor.
    let (status, v) = client.request("POST", "/v1/feedback", &fb(seq2, "[1, 2, 0]"));
    assert_eq!(status, 400, "{v:?}");
    // An unknown model is its own 404 and never counts against anyone.
    let (status, v) = client
        .request("POST", "/v1/feedback", "{\"model\": \"nope\", \"seq\": 0, \"label\": 1}");
    assert_eq!(status, 404, "{v:?}");
    let (status, _) = client.request("GET", "/v1/feedback", "");
    assert_eq!(status, 405);

    let (_, text) = client.request("GET", "/metrics", "");
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    for want in [
        "fairlens_feedback_total{model=\"german-lr\",status=\"ok\"} 1",
        "fairlens_feedback_total{model=\"german-lr\",status=\"duplicate\"} 1",
        "fairlens_feedback_total{model=\"german-lr\",status=\"unknown\"} 1",
        "fairlens_feedback_total{model=\"german-lr\",status=\"invalid\"} 1",
    ] {
        assert!(text.contains(want), "missing {want} in:\n{text}");
    }

    // The listing's monitor block reflects the joins: 8 rows observed
    // across 2 requests, 5 of them labeled.
    let (_, v) = client.request("GET", "/v1/models", "");
    let models = v.get("models").cloned().unwrap().into_array().unwrap();
    let monitor = models[0].get("monitor").expect("monitor block");
    assert_eq!(monitor.get("window_len").cloned().unwrap().into_u64(), Ok(8));
    assert_eq!(monitor.get("observed").cloned().unwrap().into_u64(), Ok(8));
    assert_eq!(monitor.get("labeled").cloned().unwrap().into_u64(), Ok(5));
    assert_eq!(monitor.get("pending").cloned().unwrap().into_u64(), Ok(2));
    // Training-time baselines for the monitored metrics surface too.
    assert!(monitor.get("baseline").unwrap().get("accuracy").is_some());

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn skewed_feedback_drives_drift_to_alerting() {
    let dir = temp_models_dir("drift-skew");
    export(&dir, "german-lr", "LR", 43); // baseline accuracy 0.75
    let (addr, handle) = launch(&dir, |cfg| {
        cfg.monitor_window = 8;
        cfg.drift_thresholds = vec![("accuracy".into(), 0.25)];
        cfg.drift_warn = 1;
        cfg.drift_alert = 2;
        cfg.drift_min_labeled = 4;
    });
    let mut client = Client::open(&addr);

    // Report the opposite of every prediction: live accuracy over any
    // full window is exactly 0.0 against a 0.75 baseline — every
    // evaluation past the window fill breaches, so warn=1/alert=2 walks
    // ok → warning → alerting within two evaluations.
    for row in sample_rows(12, 53) {
        let body = object([
            ("model", Value::String("german-lr".into())),
            ("row", row),
        ])
        .to_json();
        let (status, v) = client.request("POST", "/v1/predict", &body);
        assert_eq!(status, 200, "{v:?}");
        let seq = v.get("seq").cloned().unwrap().into_u64().unwrap();
        let pred = v.get("prediction").cloned().unwrap().into_u64().unwrap();
        let (status, v) = client.request(
            "POST",
            "/v1/feedback",
            &format!("{{\"model\": \"german-lr\", \"seq\": {seq}, \"label\": {}}}", 1 - pred),
        );
        assert_eq!(status, 200, "{v:?}");
    }

    let (_, v) = client.request("GET", "/v1/models", "");
    let models = v.get("models").cloned().unwrap().into_array().unwrap();
    let monitor = models[0].get("monitor").expect("monitor block");
    let drift = monitor.get("drift").unwrap();
    assert_eq!(drift.get("state").and_then(Value::as_str), Some("alerting"), "{v:?}");
    let breaching = drift.get("breaching").cloned().unwrap().into_array().unwrap();
    assert!(
        breaching
            .iter()
            .any(|b| b.get("metric").and_then(Value::as_str) == Some("accuracy")),
        "accuracy must be named as the offending metric: {v:?}"
    );
    assert_eq!(
        monitor.get("live").unwrap().get("all").unwrap().get("accuracy").cloned().unwrap()
            .into_f64(),
        Ok(0.0),
        "every labeled window row disagrees with its prediction"
    );

    let (_, text) = client.request("GET", "/metrics", "");
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_drift_state{model=\"german-lr\"} 2"), "{text}");
    assert!(
        text.contains("fairlens_live_metric{model=\"german-lr\",metric=\"accuracy\",group=\"all\"} 0"),
        "{text}"
    );

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_artifact_drives_label_free_drift_into_alerting() {
    use fairlens_core::{FittedPipeline, ModelParams};
    use fairlens_metrics::di_star;
    use fairlens_model::LogisticRegression;

    let dir = temp_models_dir("drift-flip");
    let (fitted, schema) = export(&dir, "german-lr", "LR", 47);
    let rows = sample_rows(16, 59);
    let offline = schema.dataset_from_rows(&rows).unwrap();
    let baseline_di = di_star(&fitted.predict(&offline), offline.sensitive());

    // Mangle the served artifact: negate every model weight (a gross
    // version of the bit corruption flm_flip exercises) while keeping
    // the *original* model's di_star as the recorded training-time
    // baseline — a deployment whose artifact no longer matches its own
    // provenance. No feedback anywhere: disparate impact is label-free,
    // so drift must fire from scored traffic alone.
    let path = dir.join("german-lr.flm");
    let mut artifact = ModelArtifact::load(&path).unwrap();
    artifact.train_metrics = vec![("di_star".into(), baseline_di)];
    let base = match &mut artifact.pipeline {
        FittedPipeline::Model(m) => m,
        FittedPipeline::Adjusted { base, .. } => base,
    };
    let negate = |m: &mut LogisticRegression| {
        let weights = m.weights().iter().map(|w| -w).collect();
        *m = LogisticRegression::from_params(weights, -m.intercept());
    };
    match &mut base.params {
        ModelParams::Linear(p) => negate(p),
        ModelParams::Mixture(ps) => ps.iter_mut().for_each(negate),
    }
    artifact.save(&path).unwrap();

    // Precondition (deterministic): on exactly these rows the mangled
    // model's group outcomes differ measurably from the baseline, and
    // both values are defined. The drift threshold is set to half that
    // gap, so every full-window evaluation below must breach.
    let flipped_di = di_star(&artifact.pipeline.predict(&offline), offline.sensitive());
    let gap = (flipped_di - baseline_di).abs();
    assert!(
        baseline_di.is_finite() && flipped_di.is_finite() && gap > 0.01,
        "weight negation barely moved di_star: {baseline_di} vs {flipped_di}"
    );

    let (addr, handle) = launch(&dir, |cfg| {
        cfg.monitor_window = 16;
        cfg.drift_thresholds = vec![("di_star".into(), gap / 2.0)];
        cfg.drift_warn = 1;
        cfg.drift_alert = 2;
    });
    let mut client = Client::open(&addr);
    // One window-filling batch (first evaluation), then two repeat
    // singles. Each single evicts the row it re-sends, so the window
    // multiset — and with it live di_star — is *identical* across all
    // three evaluations: breach, breach, breach.
    let (status, v) = client.request("POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200, "{v:?}");
    for row in &rows[..2] {
        let body = object([
            ("model", Value::String("german-lr".into())),
            ("row", row.clone()),
        ])
        .to_json();
        let (status, v) = client.request("POST", "/v1/predict", &body);
        assert_eq!(status, 200, "{v:?}");
    }

    let (_, v) = client.request("GET", "/v1/models", "");
    let models = v.get("models").cloned().unwrap().into_array().unwrap();
    let monitor = models[0].get("monitor").expect("monitor block");
    assert_eq!(monitor.get("labeled").cloned().unwrap().into_u64(), Ok(0), "no feedback sent");
    let drift = monitor.get("drift").unwrap();
    assert_eq!(drift.get("state").and_then(Value::as_str), Some("alerting"), "{v:?}");
    let breaching = drift.get("breaching").cloned().unwrap().into_array().unwrap();
    let di = breaching
        .iter()
        .find(|b| b.get("metric").and_then(Value::as_str) == Some("di_star"))
        .expect("di_star named as the offending metric");
    assert_eq!(
        di.get("live").cloned().unwrap().into_f64().unwrap().to_bits(),
        flipped_di.to_bits(),
        "the breach quotes the mangled model's exact live value"
    );
    assert_eq!(
        di.get("baseline").cloned().unwrap().into_f64().unwrap().to_bits(),
        baseline_di.to_bits(),
    );

    let (_, text) = client.request("GET", "/metrics", "");
    let Value::String(text) = text else { panic!("metrics is not JSON") };
    assert!(text.contains("fairlens_drift_state{model=\"german-lr\"} 2"), "{text}");

    shutdown_and_join(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
