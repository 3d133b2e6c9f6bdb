//! CLI entry point for the prediction server.

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use fairlens_serve::{ServeConfig, ServeFaults, Server};

const USAGE: &str = "\
fairlens-serve [--addr HOST:PORT] [--models DIR]
               [--max-batch ROWS] [--batch-wait-ms MS]
               [--deadline-ms MS] [--max-loaded N] [--trace PATH]
               [--max-queue N] [--max-inflight N]
               [--breaker-threshold N] [--breaker-cooldown-ms MS]
               [--read-deadline-ms MS] [--shadow-tolerance ULPS]
               [--record PATH]
               [--monitor-window ROWS] [--monitor-pending N]
               [--drift-threshold METRIC=DELTA]... [--drift-warn N]
               [--drift-alert N] [--drift-recover N] [--drift-min-labeled N]
               [--worker-id N]

Serves predictions from the .flm artifacts in DIR (default: models).
Port 0 binds an ephemeral port, announced on stderr as
'[serve] listening on ...'. Stop with POST /v1/shutdown.
--trace records one span track per predict request (parse/queue/batch/
predict) and writes PATH (JSONL) plus PATH.collapsed at drain.

Overload protection: --max-queue bounds each model executor's queue and
--max-inflight bounds concurrently processed predictions (0 = unlimited);
past either, requests shed with 429 + Retry-After. --breaker-threshold
consecutive model failures open that model's circuit breaker for
--breaker-cooldown-ms (rejections are 503 + Retry-After; a probe then
re-closes it). --read-deadline-ms bounds how long a client may take to
deliver one request (408 past it). Each connection has its own thread; a
keep-alive idle for 30 s is closed, and a 257th live connection gets 503.

Cross-verified deployment: POST /v1/shadow {\"model\", \"artifact\"}
loads the candidate .flm at path \"artifact\" as the model's shadow (a
candidate that cannot load or has another input schema is a 400);
without \"artifact\" it detaches. Every admitted predict is then scored
by both; the response always comes from the incumbent, and score
streams are compared bit-exactly (or within --shadow-tolerance ULPS),
surfaced as fairlens_shadow_{compared,divergence}_total and in
GET /v1/models. POST /v1/promote {\"model\": id} installs the candidate
as loaded at attach, only when the comparison window is non-empty and
clean (else a structured 409).
--record PATH appends every /v1/predict and /v1/feedback exchange as
JSONL (request, response, score bits, timestamps last) for the loadgen's
--replay mode.

Live fairness monitoring: every scored predict lands in a per-model
sliding window of --monitor-window rows (group id, predicted label,
score); POST /v1/feedback {\"model\", \"seq\", \"label\"|\"labels\"}
joins true outcomes onto it (seqs come back in predict responses;
--monitor-pending bounds how many are remembered). Live windowed metrics
are compared against the artifact's training-time metrics:
--drift-threshold METRIC=DELTA (repeatable; default accuracy=0.10,
di_star/tprb_fair/tnrb_fair=0.15) flags a breach past |live-baseline| >
DELTA. --drift-warn consecutive breaching full-window evaluations raise
ok->warning, --drift-alert raise warning->alerting, --drift-recover
clean evaluations step back down; label-dependent metrics wait for
--drift-min-labeled labeled rows. Status appears in GET /v1/models
(\"monitor\" block) and as fairlens_live_metric / fairlens_drift_state /
fairlens_feedback_total.

Fleet worker mode: --worker-id N tags this process as fleet shard N; the
id is echoed in GET /healthz along with pid, in-flight count and
draining status so the fairlens-fleet supervisor can probe it.
The fleet's blue/green reload stages through POST /v1/shadow and
installs through POST /v1/promote on the model's primary, then sends
POST /v1/refresh {\"model\"} to every worker, which re-reads the
model's artifact from disk and evicts the resident executor.

Chaos: the FAIRLENS_FAULT env var injects deterministic faults, e.g.
'panic:german-lr:1;flaky:3:german-lr' (kinds: panic:<model>:<k>,
hang:<model>:<k>, flaky:<k>:<model>, abort:<model>:<k> — abort kills
the whole process at the k-th request for the model).";

fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    let Some(value) = value else {
        eprintln!("missing value for {flag}\n{USAGE}");
        exit(2);
    };
    value.parse().unwrap_or_else(|_| {
        eprintln!("bad value {value:?} for {flag}\n{USAGE}");
        exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--addr" => cfg.addr = parse_flag("--addr", value),
            "--models" => cfg.models_dir = parse_flag::<PathBuf>("--models", value),
            "--max-batch" => cfg.max_batch = parse_flag("--max-batch", value),
            "--batch-wait-ms" => {
                cfg.batch_wait = Duration::from_millis(parse_flag("--batch-wait-ms", value));
            }
            "--deadline-ms" => {
                cfg.deadline = Duration::from_millis(parse_flag("--deadline-ms", value));
            }
            "--max-loaded" => cfg.max_loaded = parse_flag("--max-loaded", value),
            "--max-queue" => cfg.max_queue = parse_flag("--max-queue", value),
            "--max-inflight" => cfg.max_inflight = parse_flag("--max-inflight", value),
            "--breaker-threshold" => {
                cfg.breaker_threshold = parse_flag("--breaker-threshold", value);
            }
            "--breaker-cooldown-ms" => {
                cfg.breaker_cooldown =
                    Duration::from_millis(parse_flag("--breaker-cooldown-ms", value));
            }
            "--read-deadline-ms" => {
                cfg.limits.read_deadline =
                    Duration::from_millis(parse_flag("--read-deadline-ms", value));
            }
            "--trace" => cfg.trace = Some(parse_flag::<PathBuf>("--trace", value)),
            "--shadow-tolerance" => {
                cfg.shadow_tolerance = Some(parse_flag("--shadow-tolerance", value));
            }
            "--record" => cfg.record = Some(parse_flag::<PathBuf>("--record", value)),
            "--monitor-window" => cfg.monitor_window = parse_flag("--monitor-window", value),
            "--monitor-pending" => {
                cfg.monitor_pending = parse_flag("--monitor-pending", value);
            }
            "--drift-threshold" => {
                let spec: String = parse_flag("--drift-threshold", value);
                let parsed = spec
                    .split_once('=')
                    .and_then(|(m, d)| d.parse::<f64>().ok().map(|d| (m.to_string(), d)));
                let Some((metric, delta)) = parsed.filter(|(_, d)| d.is_finite() && *d >= 0.0)
                else {
                    eprintln!("--drift-threshold wants METRIC=DELTA, got {spec:?}\n{USAGE}");
                    exit(2);
                };
                cfg.drift_thresholds.push((metric, delta));
            }
            "--drift-warn" => cfg.drift_warn = parse_flag("--drift-warn", value),
            "--drift-alert" => cfg.drift_alert = parse_flag("--drift-alert", value),
            "--drift-recover" => cfg.drift_recover = parse_flag("--drift-recover", value),
            "--drift-min-labeled" => {
                cfg.drift_min_labeled = parse_flag("--drift-min-labeled", value);
            }
            "--worker-id" => cfg.worker_id = Some(parse_flag("--worker-id", value)),
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                exit(2);
            }
        }
        i += 2;
    }
    // Malformed FAIRLENS_FAULT aborts here, before the listener binds.
    cfg.faults = Arc::new(ServeFaults::from_env());

    let server = match Server::bind(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[serve] cannot start on {} with models {}: {e}", cfg.addr, cfg.models_dir.display());
            exit(1);
        }
    };
    if let Err(e) = server.run() {
        eprintln!("[serve] server error: {e}");
        exit(1);
    }
}
