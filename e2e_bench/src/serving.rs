//! The serving workloads: `fairlens-serve`, or `fairlens-fleet` in front
//! of two workers, on loopback, under a closed loop of keep-alive
//! connections.
//!
//! Every run builds the repository's own binaries, exports the `adult-lr`
//! artifact with `export_models`, computes the expected score of every
//! pool row with `ModelArtifact::restore().predict_with_proba` before any
//! timing, and then boots fresh server processes on port 0, reading the
//! address from their `listening on` announce. Each 200 predict is checked
//! bit for bit against those expected scores. The servers are drained
//! with `POST /v1/shutdown`; a process that outlives its drain fails the
//! run.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fairlens_core::ModelArtifact;
use fairlens_fleet::Backend;
use fairlens_json::{parse, Value};
use fairlens_serve::recorder::score_bits;

use crate::prom::Scrape;
use crate::stats::{mean, median, nearest_rank, tail};
use crate::traffic::{self, Request};
use crate::Report;

/// Which front end the load goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// One `fairlens-serve`.
    Serve,
    /// `fairlens-fleet --workers 2 --replicas 2`.
    Fleet,
}

impl Target {
    /// Client connections, one thread each. One serve process takes the
    /// container's core count (2). Through the fleet, two connections
    /// share its backend pool and every other request pays a second 40 ms
    /// delayed-ACK stall, which puts the median exactly on the edge between
    /// two modes 44 ms apart; one connection keeps the fleet's numbers
    /// steady run to run.
    fn conns(self) -> u64 {
        match self {
            Target::Serve => 2,
            Target::Fleet => 1,
        }
    }
}

/// The served model (`export_models` id for LR on Adult).
const MODEL: &str = "adult-lr";
/// Set-up boots per run, each drained again; `setup_s` is the median of
/// their spawn-to-first-answer times. One more boot serves the load.
const SETUP_BOOTS: usize = 7;
/// The fleet's probe interval during the set-up boots. A fleet routes to
/// a worker only after a probe, and at the default 100 ms the first answer
/// waits for whichever tick follows the workers' announce: boots split
/// into two modes ~75 ms apart, and the median flips between them from run
/// to run. A tight cadence times the boot itself.
const SETUP_PROBE_MS: &str = "5";
/// `wall_s` on a serving workload: time to complete this many operations.
const WALL_OPS: usize = 200;
/// Upper bound on the measured window, whatever `--seconds` and
/// `WALL_OPS` ask for, so a run always ends well inside its time limit.
const MAX_WINDOW: Duration = Duration::from_secs(90);
/// Per-request client timeout.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a process may take to announce its address, answer its first
/// predict, or exit after a drain request.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// The repository binaries a serving run drives.
struct Bins {
    serve: PathBuf,
    fleet: PathBuf,
    export: PathBuf,
}

/// Build `fairlens-serve`, `fairlens-fleet` and `export_models` from the
/// repository at the working directory, and locate them from cargo's
/// artifact messages (so any `CARGO_TARGET_DIR` works).
fn build_binaries() -> Result<Bins, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            "Cargo.toml",
        ])
        .args(["--message-format", "json-render-diagnostics"])
        .args([
            "-p",
            "fairlens-serve",
            "-p",
            "fairlens-fleet",
            "-p",
            "fairlens-bench",
        ])
        .args([
            "--bin",
            "fairlens-serve",
            "--bin",
            "fairlens-fleet",
            "--bin",
            "export_models",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building the serving binaries failed ({})",
            out.status
        ));
    }
    let found = |name: &str| -> Result<PathBuf, String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| parse(line).ok())
            .filter_map(|msg| {
                msg.get("executable")
                    .and_then(Value::as_str)
                    .map(PathBuf::from)
            })
            .find(|p| p.file_name().is_some_and(|f| f == name))
            .ok_or_else(|| format!("cargo reported no {name} executable"))
    };
    Ok(Bins {
        serve: found("fairlens-serve")?,
        fleet: found("fairlens-fleet")?,
        export: found("export_models")?,
    })
}

/// The request pool with the artifact's own score for every row.
struct Model {
    rows: Vec<Value>,
    labels: Vec<u8>,
    expected_bits: Vec<u64>,
}

fn prepare_model(bins: &Bins, models: &Path, seed: u64) -> Result<Model, String> {
    let out = Command::new(&bins.export)
        .args(["--scale", "quick", "--seed", &seed.to_string(), "--out"])
        .arg(models)
        .args(["--datasets", "Adult", "--approaches", "LR"])
        .output()
        .map_err(|e| format!("cannot run export_models: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "export_models failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let artifact = ModelArtifact::load(&models.join(format!("{MODEL}.flm")))?;
    let pool = traffic::pool(seed);
    let rows: Vec<Value> = (0..pool.n_rows())
        .map(|r| traffic::row_json(&pool, r))
        .collect();
    let data = artifact.schema.dataset_from_rows(&rows)?;
    let (_, scores) = artifact.restore().predict_with_proba(&data);
    Ok(Model {
        rows,
        labels: pool.labels().to_vec(),
        expected_bits: scores.iter().map(|s| s.to_bits()).collect(),
    })
}

/// A spawned server process whose stderr is pumped by a thread.
struct Proc {
    child: Child,
    addr: String,
    pump: Option<JoinHandle<()>>,
    log: std::sync::Arc<std::sync::Mutex<VecDeque<String>>>,
}

impl Proc {
    /// Spawn `cmd` and wait for the stderr line `<prefix>ADDR ...`.
    fn spawn(mut cmd: Command, prefix: &'static str) -> Result<Proc, String> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let log = std::sync::Arc::new(std::sync::Mutex::new(VecDeque::new()));
        let (tx, rx) = mpsc::channel();
        let pump_log = log.clone();
        let pump = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line
                    .strip_prefix(prefix)
                    .and_then(|r| r.split_whitespace().next())
                {
                    let _ = tx.send(addr.to_string());
                }
                let mut log = pump_log.lock().expect("log lock");
                if log.len() == 40 {
                    log.pop_front();
                }
                log.push_back(line);
            }
        });
        let mut proc = Proc {
            child,
            addr: String::new(),
            pump: Some(pump),
            log,
        };
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err(format!("no '{prefix}' announce: {}", proc.tail())),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn tail(&self) -> String {
        self.log
            .lock()
            .expect("log lock")
            .iter()
            .cloned()
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// `POST /v1/shutdown`, then wait for the process to exit on its own.
    fn drain(mut self) -> Result<(), String> {
        let asked = Backend::new(&self.addr)
            .and_then(|b| b.roundtrip("POST", "/v1/shutdown", b"", REQUEST_TIMEOUT));
        if let Err(e) = asked {
            return Err(format!("shutdown request to {} failed: {e}", self.addr));
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}: {}", self.tail()))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!("server {} survived its drain", self.pid()))
    }
}

impl Drop for Proc {
    /// On an error path the process is still up: ask it to drain first, so
    /// a fleet reaps its workers, and kill it only if that does not work.
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            if let Ok(b) = Backend::new(&self.addr) {
                let _ = b.roundtrip("POST", "/v1/shutdown", b"", Duration::from_secs(2));
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline && !matches!(self.child.try_wait(), Ok(Some(_))) {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

/// Start the target and time spawn → first answered predict. A set-up
/// boot of the fleet probes its workers at `SETUP_PROBE_MS`.
fn boot(
    target: Target,
    bins: &Bins,
    models: &Path,
    model: &Model,
    setup: bool,
) -> Result<(Proc, f64), String> {
    let t0 = Instant::now();
    let proc = match target {
        Target::Serve => {
            let mut cmd = Command::new(&bins.serve);
            cmd.args(["--addr", "127.0.0.1:0", "--models"]).arg(models);
            Proc::spawn(cmd, "[serve] listening on ")?
        }
        Target::Fleet => {
            let mut cmd = Command::new(&bins.fleet);
            cmd.args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--replicas",
                "2",
                "--models",
            ])
            .arg(models)
            .arg("--serve-bin")
            .arg(&bins.serve);
            if setup {
                cmd.args(["--probe-interval-ms", SETUP_PROBE_MS]);
            }
            Proc::spawn(cmd, "[fleet] listening on ")?
        }
    };
    // A fixed predict, repeated until a replica answers.
    let req = traffic::request(0, 0);
    let body = traffic::predict_body(MODEL, &model.rows, &req);
    let backend = Backend::new(&proc.addr).map_err(|e| e.to_string())?;
    let deadline = t0 + BOOT_TIMEOUT;
    loop {
        match backend.roundtrip("POST", "/v1/predict", body.as_bytes(), REQUEST_TIMEOUT) {
            Ok(resp) if resp.status == 200 => {
                let setup = t0.elapsed().as_secs_f64();
                check_scores(&resp.body, &req, model)?;
                return Ok((proc, setup));
            }
            _ if Instant::now() > deadline => {
                return Err(format!(
                    "no answered predict within {BOOT_TIMEOUT:?}: {}",
                    proc.tail()
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Compare an answer's score bits with the artifact's own.
fn check_scores(body: &[u8], req: &Request, model: &Model) -> Result<Value, String> {
    let v = parse(&String::from_utf8_lossy(body)).map_err(|e| format!("bad predict JSON: {e}"))?;
    let got = score_bits(&v);
    let want: Vec<u64> = req.rows.iter().map(|&r| model.expected_bits[r]).collect();
    if got != want {
        return Err(format!(
            "score bits {got:x?} for pool rows {:?}, expected {want:x?}",
            req.rows
        ));
    }
    Ok(v)
}

/// One finished client operation.
struct Op {
    feedback: bool,
    rtt_ms: f64,
    ok: bool,
    /// Seconds from the window start to completion.
    done_s: f64,
}

#[derive(Default)]
struct Load {
    ops: Vec<Op>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    mismatches: Vec<String>,
    elapsed_s: f64,
}

/// Closed loop on `conns` keep-alive connections for at least `window`
/// (and at least `WALL_OPS` operations, within `MAX_WINDOW`). Connection
/// `c` sends requests `c, c + conns, …` of the stream.
fn drive(addr: &str, model: &Model, seed: u64, window: Duration, conns: u64) -> Load {
    let start = Instant::now();
    let done = AtomicU64::new(0);
    let keep_going = |elapsed: Duration| {
        elapsed < MAX_WINDOW && (elapsed < window || done.load(Ordering::Relaxed) < WALL_OPS as u64)
    };
    let per_conn: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (done, keep_going) = (&done, &keep_going);
                s.spawn(move || {
                    let mut load = Load::default();
                    let backend = match Backend::new(addr) {
                        Ok(b) => b,
                        Err(e) => {
                            load.mismatches.push(format!("bad address {addr}: {e}"));
                            return load;
                        }
                    };
                    let mut i = c;
                    while keep_going(start.elapsed()) {
                        one_request(&backend, model, seed, i, start, &mut load);
                        done.fetch_add(1, Ordering::Relaxed);
                        i += conns;
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut load = Load {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for l in per_conn {
        load.ops.extend(l.ops);
        load.encode_ms.extend(l.encode_ms);
        load.decode_ms.extend(l.decode_ms);
        load.mismatches.extend(l.mismatches);
    }
    load
}

/// Send request `i` (and its feedback, if due) and record the outcome.
fn one_request(
    backend: &Backend,
    model: &Model,
    seed: u64,
    i: u64,
    start: Instant,
    load: &mut Load,
) {
    let req = traffic::request(seed, i);
    let t_enc = Instant::now();
    let body = traffic::predict_body(MODEL, &model.rows, &req);
    load.encode_ms.push(ms_since(t_enc));
    let t0 = Instant::now();
    let resp = backend.roundtrip("POST", "/v1/predict", body.as_bytes(), REQUEST_TIMEOUT);
    let rtt_ms = ms_since(t0);
    let done_s = start.elapsed().as_secs_f64();
    let answer = match resp {
        Ok(r) if r.status == 200 => {
            let t_dec = Instant::now();
            let checked = check_scores(&r.body, &req, model);
            load.decode_ms.push(ms_since(t_dec));
            match checked {
                Ok(v) => Some(v),
                Err(e) => {
                    load.mismatches.push(format!("request {i}: {e}"));
                    None
                }
            }
        }
        Ok(r) => {
            load.mismatches.push(format!(
                "request {i}: HTTP {} {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
            None
        }
        Err(e) => {
            load.mismatches
                .push(format!("request {i}: transport error {e}"));
            None
        }
    };
    load.ops.push(Op {
        feedback: false,
        rtt_ms,
        ok: answer.is_some(),
        done_s,
    });
    let (Some(answer), true) = (answer, req.feedback) else {
        return;
    };

    let seq = answer
        .get("seq")
        .cloned()
        .and_then(|v| v.into_u64().ok())
        .unwrap_or(u64::MAX);
    let labels: Vec<u8> = req.rows.iter().map(|&r| model.labels[r]).collect();
    let body = traffic::feedback_body(MODEL, seq, &labels, req.single);
    let t0 = Instant::now();
    let resp = backend.roundtrip("POST", "/v1/feedback", body.as_bytes(), REQUEST_TIMEOUT);
    let rtt_ms = ms_since(t0);
    let ok = match resp {
        Ok(r) if r.status == 200 => {
            let v = parse(&String::from_utf8_lossy(&r.body)).unwrap_or(Value::Null);
            v.get("status").and_then(Value::as_str) == Some("ok")
        }
        _ => false,
    };
    if !ok {
        load.mismatches
            .push(format!("request {i}: feedback for seq {seq} not accepted"));
    }
    load.ops.push(Op {
        feedback: true,
        rtt_ms,
        ok,
        done_s: start.elapsed().as_secs_f64(),
    });
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn get(addr: &str, path: &str) -> Result<String, String> {
    let resp = Backend::new(addr)
        .and_then(|b| b.roundtrip("GET", path, b"", REQUEST_TIMEOUT))
        .map_err(|e| format!("GET {path} on {addr}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path} on {addr}: HTTP {}", resp.status));
    }
    Ok(String::from_utf8_lossy(&resp.body).into_owned())
}

/// The processes that do the serving: (addr, pid) of every worker (the
/// server itself for `Target::Serve`). A fleet answers once one replica is
/// up, so this waits until `GET /v1/fleet` lists every worker's address.
fn workers(target: Target, front: &Proc) -> Result<Vec<(String, u32)>, String> {
    if target == Target::Serve {
        return Ok(vec![(front.addr.clone(), front.pid())]);
    }
    let deadline = Instant::now() + BOOT_TIMEOUT;
    loop {
        let v = parse(&get(&front.addr, "/v1/fleet")?)?;
        let list = v
            .get("workers")
            .cloned()
            .ok_or("no workers in /v1/fleet")?
            .into_array()?;
        let found: Option<Vec<(String, u32)>> = list
            .iter()
            .map(|w| {
                let addr = w.get("addr").and_then(Value::as_str)?;
                let pid = w.get("pid").cloned()?.into_u64().ok()?;
                Some((addr.to_string(), u32::try_from(pid).ok()?))
            })
            .collect();
        match found {
            Some(found) if !found.is_empty() => return Ok(found),
            _ if Instant::now() > deadline => {
                return Err(format!("fleet workers never all came up: {v:?}"))
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Workers' `/metrics`, summed, and the front door's (fleet only).
fn scrape(
    target: Target,
    front: &Proc,
    workers: &[(String, u32)],
) -> Result<(Scrape, Scrape), String> {
    let mut total = Scrape::default();
    for (addr, _) in workers {
        total.add(&Scrape::parse(&get(addr, "/metrics")?)?);
    }
    let fleet = match target {
        Target::Serve => Scrape::default(),
        Target::Fleet => Scrape::parse(&get(&front.addr, "/metrics")?)?,
    };
    Ok((total, fleet))
}

/// VmHWM of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for pid {pid}"))
}

/// Whether `pid` is still a live (non-zombie) process.
fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit_once(')')
            .is_some_and(|(_, rest)| !rest.trim_start().starts_with('Z')),
        Err(_) => false,
    }
}

/// Run one serving workload and fill `report`.
pub fn run(
    target: Target,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let t_run = Instant::now();
    let bins = build_binaries()?;
    let models = dir.join("models");
    let model = prepare_model(&bins, &models, seed)?;
    eprintln!(
        "[e2e_bench] binaries and artifact ready after {:.3} s",
        t_run.elapsed().as_secs_f64()
    );

    let mut setups = Vec::with_capacity(SETUP_BOOTS);
    for b in 0..SETUP_BOOTS {
        let (proc, setup) = boot(target, &bins, &models, &model, true)?;
        setups.push(setup);
        let pids = workers(target, &proc)?;
        let t0 = Instant::now();
        proc.drain()?;
        ensure_gone(&pids)?;
        eprintln!(
            "[e2e_bench] boot {b}: first answer after {setup:.4} s, drained in {:.3} s",
            t0.elapsed().as_secs_f64()
        );
    }
    let (front, first_answer) = boot(target, &bins, &models, &model, false)?;
    let pool_workers = workers(target, &front)?;
    eprintln!(
        "[e2e_bench] serving from {} (first answer after {first_answer:.4} s) after {:.3} s",
        front.addr,
        t_run.elapsed().as_secs_f64()
    );

    let window = Duration::from_secs(seconds);
    if trace {
        // Untraced half, then the traced half on the same stream.
        let plain = drive(&front.addr, &model, seed, window / 2, target.conns());
        let before = scrape(target, &front, &pool_workers)?;
        let traced = drive(&front.addr, &model, seed, window / 2, target.conns());
        let after = scrape(target, &front, &pool_workers)?;
        account(&plain, report);
        account(&traced, report);
        let p50 = |l: &Load| {
            let mut v: Vec<f64> = l.ops.iter().map(|o| o.rtt_ms).collect();
            v.sort_by(f64::total_cmp);
            nearest_rank(&v, 50.0).value
        };
        report.set(
            "trace.overhead_pct",
            100.0 * (p50(&traced) / p50(&plain) - 1.0),
            traced.ops.len(),
        );
        layers(
            target,
            &traced,
            &before.0.delta_to(&after.0),
            &before.1.delta_to(&after.1),
            report,
        );
    } else {
        let load = drive(&front.addr, &model, seed, window, target.conns());
        account(&load, report);
        let mut rtts: Vec<f64> = load.ops.iter().map(|o| o.rtt_ms).collect();
        rtts.sort_by(f64::total_cmp);
        let mut done: Vec<f64> = load.ops.iter().map(|o| o.done_s).collect();
        done.sort_by(f64::total_cmp);
        let p99 = tail(&rtts);
        report.set(
            "wall_s",
            done.get(WALL_OPS - 1).copied().unwrap_or(load.elapsed_s),
            WALL_OPS,
        );
        report.set(
            "throughput_rps",
            load.ops.len() as f64 / load.elapsed_s,
            load.ops.len(),
        );
        report.set(
            "latency_p50_ms",
            nearest_rank(&rtts, 50.0).value,
            rtts.len(),
        );
        report.set("latency_p99_ms", p99.value, rtts.len());
        report.note(format!(
            "latency_p99_ms is p{:.1} of {} requests",
            p99.pct,
            rtts.len()
        ));
        report.set("setup_s", median(&setups), SETUP_BOOTS);
        let mut rss = peak_rss_mb(front.pid())?;
        if target == Target::Fleet {
            for (_, pid) in &pool_workers {
                rss += peak_rss_mb(*pid)?;
            }
        }
        report.set(
            "peak_rss_mb",
            rss,
            1 + usize::from(target == Target::Fleet) * pool_workers.len(),
        );
    }

    let t_drain = Instant::now();
    front.drain()?;
    ensure_gone(&pool_workers)?;
    eprintln!(
        "[e2e_bench] window done, drained in {:.3} s, run took {:.3} s",
        t_drain.elapsed().as_secs_f64(),
        t_run.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Fail the run if any server process outlived its drain.
fn ensure_gone(procs: &[(String, u32)]) -> Result<(), String> {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while procs.iter().any(|(_, pid)| alive(*pid)) {
        if Instant::now() > deadline {
            return Err(format!("worker process(es) survived the drain: {procs:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

fn account(load: &Load, report: &mut Report) {
    report.attempted += load.ops.len() as u64;
    report.failed += load.ops.iter().filter(|o| !o.ok).count() as u64;
    for m in load.mismatches.iter().take(5) {
        report.deviation(m.clone());
    }
    if load.mismatches.len() > 5 {
        report.deviation(format!("… {} more", load.mismatches.len() - 5));
    }
}

/// Per-layer numbers: the servers' `/metrics` deltas over the traced
/// window, against the client's own timing of the same window.
fn layers(target: Target, load: &Load, workers: &Scrape, fleet: &Scrape, report: &mut Report) {
    let ms_per = |sum: f64, count: f64| if count > 0.0 { 1e3 * sum / count } else { 0.0 };
    let handled = workers.sum("fairlens_requests_total", &[("route", "/v1/predict")])
        + workers.sum("fairlens_requests_total", &[("route", "/v1/feedback")]);
    let request_ms = ms_per(
        workers.sum("fairlens_request_latency_seconds_sum", &[]),
        handled,
    );
    report.set("serve.request_ms", request_ms, handled as usize);
    for phase in ["parse", "queue", "batch", "predict"] {
        let n = workers.sum("fairlens_phase_seconds_count", &[("phase", phase)]);
        let v = ms_per(
            workers.sum("fairlens_phase_seconds_sum", &[("phase", phase)]),
            n,
        );
        report.set_owned(format!("serve.{phase}_ms"), v, n as usize);
    }
    let flushes = workers.sum("fairlens_batch_rows_count", &[]);
    let ratio = |x: f64| if flushes > 0.0 { x / flushes } else { 0.0 };
    let predicts = workers.sum(
        "fairlens_requests_total",
        &[("route", "/v1/predict"), ("status", "200")],
    );
    report.set(
        "serve.rows_per_flush",
        ratio(workers.sum("fairlens_batch_rows_sum", &[])),
        flushes as usize,
    );
    report.set(
        "serve.requests_per_flush",
        ratio(predicts),
        flushes as usize,
    );

    let rtts: Vec<f64> = load.ops.iter().map(|o| o.rtt_ms).collect();
    let gap = mean(&rtts) - request_ms;
    match target {
        Target::Serve => report.set("serve.transport_ms", gap, rtts.len()),
        Target::Fleet => report.set("fleet.hop_ms", gap, rtts.len()),
    }
    let of_kind = |feedback: bool| -> Vec<f64> {
        load.ops
            .iter()
            .filter(|o| o.feedback == feedback)
            .map(|o| o.rtt_ms)
            .collect()
    };
    let (predict_rtt, feedback_rtt) = (of_kind(false), of_kind(true));
    report.set(
        "client.predict_rtt_ms",
        mean(&predict_rtt),
        predict_rtt.len(),
    );
    report.set(
        "client.feedback_rtt_ms",
        mean(&feedback_rtt),
        feedback_rtt.len(),
    );
    report.set(
        "client.encode_ms",
        mean(&load.encode_ms),
        load.encode_ms.len(),
    );
    report.set(
        "client.decode_ms",
        mean(&load.decode_ms),
        load.decode_ms.len(),
    );

    let feedback_ok = workers.sum("fairlens_feedback_total", &[("status", "ok")]);
    report.set("serve.shed", workers.sum("fairlens_shed_total", &[]), 1);
    report.set("serve.errors", workers.sum("fairlens_errors_total", &[]), 1);
    report.set("monitor.feedback_ok", feedback_ok, 1);
    report.set(
        "monitor.feedback_rejected",
        workers.sum("fairlens_feedback_total", &[]) - feedback_ok,
        1,
    );
    report.set(
        "fleet.retries",
        fleet.sum("fairlens_fleet_forward_retries_total", &[]),
        1,
    );
    report.set(
        "fleet.failovers",
        fleet.sum("fairlens_fleet_failovers_total", &[]),
        1,
    );
}
