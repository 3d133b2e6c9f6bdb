//! Fleet end-to-end tests: a real front door over real `fairlens-serve`
//! worker processes, chaos included.
//!
//! The headline test kills the primary replica with SIGKILL in the
//! middle of a request stream and asserts that every response still
//! arrives with HTTP 200 and scores bit-identical to a single-process
//! reference server over the same artifacts — failover must be
//! invisible at the correctness level, not just "mostly works".

#[path = "../../serve/tests/common/mod.rs"]
mod common;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    export, export_on, launch, one_shot, predict_body, sample_rows, shutdown_and_join,
    temp_models_dir, try_one_shot,
};
use fairlens_fleet::{Fleet, FleetConfig, SupervisorConfig};
use fairlens_json::{object, Value};
use fairlens_serve::http::Conn;
use fairlens_synth::DatasetKind;

// ---------------------------------------------------------------------------
// Harness

/// The `fairlens-serve` binary the fleet will spawn. Tests run from
/// `target/<profile>/deps/<test-bin>`, so the serve binary lives two
/// directories up; build it (cheap when fresh) so the path exists even
/// when only the test binary was compiled.
fn serve_bin() -> PathBuf {
    let target_dir = std::env::current_exe().unwrap().parent().unwrap().parent().unwrap().to_path_buf();
    let bin = target_dir.join("fairlens-serve");
    if !bin.exists() {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "fairlens-serve", "--bin", "fairlens-serve"])
            .status()
            .expect("cargo build fairlens-serve");
        assert!(status.success(), "building fairlens-serve failed");
    }
    assert!(bin.exists(), "no fairlens-serve at {}", bin.display());
    bin
}

/// Fast supervision knobs so the test observes a respawn in seconds.
fn fast_cfg(dir: &Path, workers: usize, replicas: usize) -> FleetConfig {
    FleetConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        replicas,
        models_dir: dir.to_path_buf(),
        serve_bin: serve_bin(),
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(300),
        supervisor: SupervisorConfig {
            fail_threshold: 2,
            ok_threshold: 2,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(1),
            restart_budget: 5,
        },
        ..FleetConfig::default()
    }
}

/// A running fleet, drained when it goes out of scope: a test that panics
/// unwinds through the guard, which shuts the fleet down so that it reaps
/// its `fairlens-serve` workers instead of leaving them running after the
/// test binary exits.
struct FleetGuard {
    addr: String,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl FleetGuard {
    /// The strict shutdown a passing test ends with: the drain answers 200
    /// and `run` returns `Ok`.
    fn shutdown(mut self) {
        shutdown_and_join(&self.addr, self.handle.take().unwrap());
    }
}

impl Drop for FleetGuard {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        // Best effort and panic-free: this runs while a failure unwinds.
        let _ = try_one_shot(&self.addr, "POST", "/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
}

/// Launch a fleet and wait until it is ready.
fn launch_fleet(cfg: FleetConfig) -> FleetGuard {
    let fleet = Fleet::bind(cfg).unwrap();
    let addr = fleet.local_addr().to_string();
    let guard = FleetGuard { addr, handle: Some(std::thread::spawn(move || fleet.run())) };
    // The fleet answers immediately, but wait until every worker is
    // routable so placement is stable before the test starts aiming.
    wait_ready(&guard.addr, Duration::from_secs(30));
    guard
}

fn wait_ready(addr: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, v) = one_shot(addr, "GET", "/healthz", "");
        if status == 200 && v.get("ready").and_then(|r| r.clone().into_bool().ok()) == Some(true) {
            return;
        }
        assert!(Instant::now() < deadline, "fleet never became ready: {}", v.to_json());
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The scores array of a 200 predict response, serialized — the
/// bit-exactness comparison key (seqs are worker-local and excluded).
fn scores_of(v: &Value) -> String {
    v.get("scores")
        .unwrap_or_else(|| panic!("no scores in {}", v.to_json()))
        .to_json()
}

// ---------------------------------------------------------------------------
// Tests

#[test]
fn routes_health_fleet_models_and_predicts() {
    let dir = temp_models_dir("routes");
    export(&dir, "german-lr", "LR", 11);
    export(&dir, "german-alt", "LR", 13);
    let fleet = launch_fleet(fast_cfg(&dir, 2, 2));
    let addr = fleet.addr.clone();

    let (status, v) = one_shot(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(v.get("workers").cloned().unwrap().into_array().unwrap().len(), 2);

    let (status, v) = one_shot(&addr, "GET", "/v1/fleet", "");
    assert_eq!(status, 200);
    let models = v.get("models").cloned().unwrap().into_array().unwrap();
    assert_eq!(models.len(), 2, "placement lists both models: {}", v.to_json());
    for m in &models {
        let replicas = m.get("replicas").cloned().unwrap().into_array().unwrap();
        assert_eq!(replicas.len(), 2, "two replicas per model");
        assert!(m.get("primary").is_some(), "a routable primary exists");
        assert!(m.get("primary_pid").is_some(), "primary pid is published");
    }

    let (status, v) = one_shot(&addr, "GET", "/v1/models", "");
    assert_eq!(status, 200);
    assert_eq!(v.get("count").cloned().unwrap().into_u64().unwrap(), 2);

    // Predict through the front door, feedback joins on the same seq.
    let rows = sample_rows(3, 99);
    let (status, v) = one_shot(&addr, "POST", "/v1/predict", &predict_body("german-lr", &rows));
    assert_eq!(status, 200, "{}", v.to_json());
    assert_eq!(v.get("scores").cloned().unwrap().into_array().unwrap().len(), 3);
    let seq = v.get("seq").cloned().unwrap().into_u64().unwrap();
    let fb = object([
        ("model", Value::String("german-lr".into())),
        ("seq", Value::Integer(seq)),
        ("labels", Value::Array(vec![Value::Integer(1), Value::Integer(0), Value::Integer(1)])),
    ])
    .to_json();
    let (status, v) = one_shot(&addr, "POST", "/v1/feedback", &fb);
    assert_eq!(status, 200, "feedback routes to the worker that predicted: {}", v.to_json());

    // Unknown model is a clean 404, unknown route a 404, bad method 405.
    let (status, _) = one_shot(&addr, "POST", "/v1/predict", &predict_body("nope", &rows));
    assert_eq!(status, 404);
    let (status, _) = one_shot(&addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let (status, _) = one_shot(&addr, "GET", "/v1/predict", "");
    assert_eq!(status, 405);

    let (status, text) = one_shot(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let text = text.as_str().unwrap_or_default();
    assert!(text.contains("fairlens_fleet_requests_total"), "fleet metrics render");

    fleet.shutdown();
}

#[test]
fn sigkill_primary_mid_stream_is_invisible_and_bit_exact() {
    let dir = temp_models_dir("failover");
    export(&dir, "german-lr", "LR", 11);
    let (ref_addr, ref_handle) = launch(&dir, |_| {});
    let fleet = launch_fleet(fast_cfg(&dir, 3, 2));
    let addr = fleet.addr.clone();

    // Aim: the primary replica's pid for the model under test.
    let (_, v) = one_shot(&addr, "GET", "/v1/fleet", "");
    let entry = v
        .get("models")
        .cloned()
        .unwrap()
        .into_array()
        .unwrap()
        .into_iter()
        .find(|m| m.get("id").and_then(Value::as_str) == Some("german-lr"))
        .expect("german-lr placed");
    let primary_pid = entry.get("primary_pid").cloned().unwrap().into_u64().unwrap();

    // Distinct request bodies so a cached/mixed-up answer cannot pass.
    let bodies: Vec<String> =
        (0..120).map(|i| predict_body("german-lr", &sample_rows(2, 1000 + i))).collect();
    let expected: Vec<String> = bodies
        .iter()
        .map(|b| {
            let (status, v) = one_shot(&ref_addr, "POST", "/v1/predict", b);
            assert_eq!(status, 200, "reference predict failed: {}", v.to_json());
            scores_of(&v)
        })
        .collect();

    let mut killed = false;
    for (i, body) in bodies.iter().enumerate() {
        if i == 30 {
            // SIGKILL, not a polite signal: the worker gets no chance to
            // flush, drain, or answer its in-flight sockets.
            let status = Command::new("kill")
                .args(["-9", &primary_pid.to_string()])
                .status()
                .unwrap();
            assert!(status.success(), "kill -9 {primary_pid} failed");
            killed = true;
        }
        let (status, v) = try_one_shot(&addr, "POST", "/v1/predict", body)
            .unwrap_or_else(|e| panic!("request {i} died at the transport level: {e}"));
        assert_eq!(status, 200, "request {i} (killed={killed}): {}", v.to_json());
        assert_eq!(
            scores_of(&v),
            expected[i],
            "request {i} scores differ from the single-process reference"
        );
    }

    // The supervisor notices the death and respawns within the backoff
    // bound; the fleet reports a restart and returns to full strength.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, text) = one_shot(&addr, "GET", "/metrics", "");
        let text = text.as_str().unwrap_or_default().to_string();
        let restarted = text
            .lines()
            .any(|l| l.starts_with("fairlens_worker_restarts_total{") && !l.ends_with(" 0"));
        if restarted {
            break;
        }
        assert!(Instant::now() < deadline, "no respawn recorded:\n{text}");
        std::thread::sleep(Duration::from_millis(100));
    }
    wait_ready(&addr, Duration::from_secs(20));

    // And the respawned fleet still answers bit-exactly.
    let body = predict_body("german-lr", &sample_rows(2, 7777));
    let (status, vr) = one_shot(&ref_addr, "POST", "/v1/predict", &body);
    assert_eq!(status, 200);
    let (status, vf) = one_shot(&addr, "POST", "/v1/predict", &body);
    assert_eq!(status, 200);
    assert_eq!(scores_of(&vf), scores_of(&vr));

    fleet.shutdown();
    shutdown_and_join(&ref_addr, ref_handle);
}

#[test]
fn abort_fault_respawns_clean_and_traffic_survives() {
    let dir = temp_models_dir("abort");
    export(&dir, "german-lr", "LR", 11);
    let mut cfg = fast_cfg(&dir, 2, 2);
    // Worker 0 aborts on its 5th german-lr request — first incarnation
    // only; the respawn must come back without the fault.
    cfg.worker_faults = vec![(0, "abort:german-lr:5".into())];
    let fleet = launch_fleet(cfg);
    let addr = fleet.addr.clone();

    for i in 0..40u64 {
        let body = predict_body("german-lr", &sample_rows(1, 500 + i));
        let (status, v) = try_one_shot(&addr, "POST", "/v1/predict", &body)
            .unwrap_or_else(|e| panic!("request {i} died at the transport level: {e}"));
        assert_eq!(status, 200, "request {i}: {}", v.to_json());
    }

    // If worker 0 was a replica it aborted and restarted; either way the
    // fleet must end the storm fully routable with zero failed requests.
    wait_ready(&addr, Duration::from_secs(20));
    fleet.shutdown();
}

/// `(every listed worker is up, summed restarts)` from a `/metrics` text.
fn worker_health(metrics: &str) -> (Vec<bool>, u64) {
    let value = |line: &str| line.rsplit(' ').next().unwrap().parse::<u64>().unwrap();
    let up = metrics
        .lines()
        .filter(|l| l.starts_with("fairlens_worker_up{"))
        .map(|l| value(l) == 1)
        .collect();
    let restarts = metrics
        .lines()
        .filter(|l| l.starts_with("fairlens_worker_restarts_total{"))
        .map(value)
        .sum();
    (up, restarts)
}

#[test]
fn keep_alive_clients_never_crowd_out_the_supervisor() {
    let dir = temp_models_dir("keepalive");
    export(&dir, "german-lr", "LR", 11);
    // Default worker settings, no faults: more keep-alive clients than a
    // worker had connection threads before each connection got its own.
    let fleet = launch_fleet(fast_cfg(&dir, 2, 2));
    let addr = fleet.addr.clone();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let (addr, stop) = (addr.clone(), stop.clone());
            std::thread::spawn(move || -> Result<u64, String> {
                let timeout = Duration::from_secs(30);
                let mut conn = Conn::connect(addr.as_str(), timeout).map_err(|e| e.to_string())?;
                let mut answered = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let (resp, close) =
                        conn.request("GET", "/v1/models", b"").map_err(|e| e.to_string())?;
                    if resp.status != 200 || close {
                        let text = resp.text();
                        return Err(format!("HTTP {} (close={close}): {text}", resp.status));
                    }
                    answered += 1;
                }
                Ok(answered)
            })
        })
        .collect();

    // Throughout the load, every worker stays up and none restarts.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(3) {
        let (status, text) = one_shot(&addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let text = text.as_str().unwrap_or_default();
        let (up, restarts) = worker_health(text);
        assert_eq!(up, [true, true], "a worker went down under keep-alive load:\n{text}");
        assert_eq!(restarts, 0, "a healthy worker was restarted:\n{text}");
        std::thread::sleep(Duration::from_millis(100));
    }
    stop.store(true, Ordering::SeqCst);
    for client in clients {
        let answered = client.join().unwrap().expect("a keep-alive client saw a non-200");
        assert!(answered > 0, "a keep-alive client was never answered");
    }

    fleet.shutdown();
}

#[test]
fn blue_green_reload_under_live_traffic_never_errors() {
    let dir = temp_models_dir("reload");
    export(&dir, "german-lr", "LR", 11);
    // A byte-identical candidate: guaranteed zero divergence, which is
    // exactly what a clean cutover requires.
    let candidate = dir.join("candidate.flm");
    std::fs::copy(dir.join("german-lr.flm"), &candidate).unwrap();
    // Candidates the reload must refuse: a differently seeded model that
    // diverges from the incumbent, and one trained on another schema.
    let cand_dir = temp_models_dir("reload-cand");
    export(&cand_dir, "diverging", "LR", 12);
    export_on(DatasetKind::Adult, &cand_dir, "adult", "LR", 11);
    let reload_body = |artifact: &Path| {
        object([
            ("model", Value::String("german-lr".into())),
            ("artifact", Value::String(artifact.to_string_lossy().into_owned())),
            ("window", Value::Integer(8)),
        ])
        .to_json()
    };

    let fleet = launch_fleet(fast_cfg(&dir, 2, 2));
    let addr = fleet.addr.clone();

    // Live traffic during the whole reload; every response must be 200.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let addr = addr.clone();
        let stop = stop.clone();
        std::thread::spawn(move || -> Result<u64, String> {
            let mut sent = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let body = predict_body("german-lr", &sample_rows(1, 9000 + sent));
                let (status, v) = try_one_shot(&addr, "POST", "/v1/predict", &body)?;
                if status != 200 {
                    return Err(format!("predict {sent} got HTTP {status}: {}", v.to_json()));
                }
                sent += 1;
            }
            Ok(sent)
        })
    };

    // Give the feeder a head start so the shadow window has traffic.
    std::thread::sleep(Duration::from_millis(200));
    let (status, v) = one_shot(&addr, "POST", "/v1/reload", &reload_body(&candidate));
    assert_eq!(status, 200, "reload failed: {}", v.to_json());
    assert_eq!(v.get("status").and_then(Value::as_str), Some("reloaded"));
    assert!(v.get("compared").cloned().unwrap().into_u64().unwrap() >= 8);

    // A diverging candidate, with the feeder still running: the
    // primary's registry refuses the promote with its 409, and the
    // incumbent keeps answering with unchanged score bits.
    let probe = predict_body("german-lr", &sample_rows(3, 4242));
    let (status, v) = one_shot(&addr, "POST", "/v1/predict", &probe);
    assert_eq!(status, 200, "{}", v.to_json());
    let before = scores_of(&v);
    let (status, v) =
        one_shot(&addr, "POST", "/v1/reload", &reload_body(&cand_dir.join("diverging.flm")));
    assert_eq!(status, 409, "diverging reload: {}", v.to_json());
    let error = v.get("error").unwrap();
    assert_eq!(error.get("kind").and_then(Value::as_str), Some("conflict"));
    let msg = error.get("message").and_then(Value::as_str).unwrap();
    assert!(msg.contains("first divergence at request"), "{msg}");
    let (status, v) = one_shot(&addr, "POST", "/v1/predict", &probe);
    assert_eq!(status, 200, "{}", v.to_json());
    assert_eq!(scores_of(&v), before, "a refused reload changed the served scores");

    // A candidate with another input schema is the primary's 400.
    let (status, v) =
        one_shot(&addr, "POST", "/v1/reload", &reload_body(&cand_dir.join("adult.flm")));
    assert_eq!(status, 400, "wrong-schema reload: {}", v.to_json());

    // Traffic keeps flowing after the cutover, then the feeder reports.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::SeqCst);
    let sent = feeder.join().unwrap().expect("a request failed during the blue/green reload");
    assert!(sent >= 20, "only {sent} requests flowed during the reload window");

    // A reload of a model with no traffic and a missing artifact both
    // fail with structured errors, not hangs.
    let (status, _) = one_shot(
        &addr,
        "POST",
        "/v1/reload",
        &object([
            ("model", Value::String("german-lr".into())),
            ("artifact", Value::String("/nonexistent.flm".into())),
        ])
        .to_json(),
    );
    assert_eq!(status, 400);

    // Outcomes count by final status: one clean cutover, one 409, and
    // the two 400s as failures.
    let (_, text) = one_shot(&addr, "GET", "/metrics", "");
    let text = text.as_str().unwrap_or_default();
    for want in [
        "fairlens_fleet_reloads_total{outcome=\"ok\"} 1",
        "fairlens_fleet_reloads_total{outcome=\"rejected\"} 1",
        "fairlens_fleet_reloads_total{outcome=\"failed\"} 2",
    ] {
        assert!(text.contains(want), "missing {want} in:\n{text}");
    }

    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&cand_dir);
}

/// Worker pids as the fleet's health report lists them.
fn worker_pids(addr: &str) -> Vec<u64> {
    let (_, v) = one_shot(addr, "GET", "/healthz", "");
    let workers = v.get("workers").cloned().unwrap().into_array().unwrap();
    workers.iter().filter_map(|w| w.get("pid").cloned()).map(|p| p.into_u64().unwrap()).collect()
}

#[test]
fn a_panicking_test_leaves_no_worker_behind() {
    let dir = temp_models_dir("orphans");
    export(&dir, "german-lr", "LR", 11);
    let (tx, rx) = std::sync::mpsc::channel();
    let failed = std::thread::spawn(move || {
        let fleet = launch_fleet(fast_cfg(&dir, 2, 1));
        tx.send(worker_pids(&fleet.addr)).unwrap();
        panic!("deliberate failure with a live fleet");
    })
    .join();
    assert!(failed.is_err(), "the test body was meant to panic");
    let pids = rx.recv().unwrap();
    assert_eq!(pids.len(), 2, "{pids:?}");
    for pid in pids {
        assert!(!Path::new(&format!("/proc/{pid}")).exists(), "worker pid {pid} outlived the failed test");
    }
}
