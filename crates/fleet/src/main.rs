//! CLI entry point for the fleet supervisor / front door.

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use fairlens_fleet::{Fleet, FleetConfig};

const USAGE: &str = "\
fairlens-fleet [--addr HOST:PORT] [--models DIR] [--workers N]
               [--replicas R] [--serve-bin PATH] [--conn-workers N]
               [--probe-interval-ms MS] [--probe-timeout-ms MS]
               [--boot-timeout-ms MS] [--forward-timeout-ms MS]
               [--forward-deadline-ms MS] [--backoff-base-ms MS]
               [--backoff-cap-ms MS] [--restart-budget N]
               [--fail-threshold N] [--ok-threshold N]
               [--reload-window N] [--reload-timeout-ms MS]
               [--drain-timeout-ms MS] [--worker-fault IDX:SPEC]...
               [--worker-arg ARG]...

Supervises --workers fairlens-serve processes (each spawned from
--serve-bin, default: the 'fairlens-serve' binary next to this one) over
the shared --models directory, and fronts them on --addr (port 0 binds
an ephemeral port, announced on stderr as '[fleet] listening on ...').

Placement and failover: each model is owned by --replicas workers chosen
by rendezvous hashing; /v1/predict and /v1/feedback route to the first
routable replica and transparently re-send on the next one when a worker
dies mid-request. Scoring is deterministic, so the answer is bit-exact
whichever replica speaks.

Supervision: workers are probed via GET /healthz every
--probe-interval-ms; --fail-threshold consecutive probe failures (or a
process exit) trigger a respawn after an exponential backoff
(--backoff-base-ms doubling to --backoff-cap-ms), and --ok-threshold
consecutive healthy probes reset the backoff. A slot that exhausts
--restart-budget attempts without stabilising is marked dead and
placement rebalances around it. A spawned worker that never announces
within --boot-timeout-ms is killed and counted as an exit.

Blue/green reload: POST /v1/reload {\"model\", \"artifact\", \"window\"?}
stages the candidate artifact as a shadow on the model's primary
(POST /v1/shadow), waits up to --reload-timeout-ms for --reload-window
(or \"window\") live comparisons or a divergence, then pauses the model
(new predicts block, none fail), drains in-flight requests (bounded by
--drain-timeout-ms), and sends the primary POST /v1/promote, which
installs the candidate in --models only on a clean window (else its
structured 409 is relayed). Every worker is then refreshed and the
model unpaused.

Chaos: --worker-fault IDX:SPEC sets FAIRLENS_FAULT=SPEC on worker IDX's
first incarnation only (respawns come back clean), e.g.
'--worker-fault 1:abort:german-lr:20'. --worker-arg ARG (repeatable)
appends ARG to every worker's command line.

Routes: GET /healthz /metrics /v1/fleet /v1/models,
POST /v1/predict /v1/feedback /v1/reload /v1/shutdown.
Stop with POST /v1/shutdown: the front door drains, then every worker is
asked to drain and reaped.";

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

fn parse_ms(flag: &str, value: Option<&String>) -> Duration {
    Duration::from_millis(parse_flag(flag, value))
}

/// Default --serve-bin: the `fairlens-serve` binary sitting next to this
/// executable (both live in target/<profile>/ under cargo).
fn sibling_serve_bin() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("fairlens-serve")))
        .unwrap_or_else(|| PathBuf::from("fairlens-serve"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = FleetConfig { serve_bin: sibling_serve_bin(), ..FleetConfig::default() };
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
            "--workers" => cfg.workers = parse_flag("--workers", value),
            "--replicas" => cfg.replicas = parse_flag("--replicas", value),
            "--serve-bin" => cfg.serve_bin = parse_flag::<PathBuf>("--serve-bin", value),
            "--conn-workers" => cfg.conn_workers = parse_flag("--conn-workers", value),
            "--probe-interval-ms" => cfg.probe_interval = parse_ms("--probe-interval-ms", value),
            "--probe-timeout-ms" => cfg.probe_timeout = parse_ms("--probe-timeout-ms", value),
            "--boot-timeout-ms" => cfg.boot_timeout = parse_ms("--boot-timeout-ms", value),
            "--forward-timeout-ms" => cfg.forward_timeout = parse_ms("--forward-timeout-ms", value),
            "--forward-deadline-ms" => {
                cfg.forward_deadline = parse_ms("--forward-deadline-ms", value);
            }
            "--backoff-base-ms" => {
                cfg.supervisor.backoff_base = parse_ms("--backoff-base-ms", value);
            }
            "--backoff-cap-ms" => cfg.supervisor.backoff_cap = parse_ms("--backoff-cap-ms", value),
            "--restart-budget" => cfg.supervisor.restart_budget = parse_flag("--restart-budget", value),
            "--fail-threshold" => cfg.supervisor.fail_threshold = parse_flag("--fail-threshold", value),
            "--ok-threshold" => cfg.supervisor.ok_threshold = parse_flag("--ok-threshold", value),
            "--reload-window" => cfg.reload_window = parse_flag("--reload-window", value),
            "--reload-timeout-ms" => cfg.reload_timeout = parse_ms("--reload-timeout-ms", value),
            "--drain-timeout-ms" => cfg.drain_timeout = parse_ms("--drain-timeout-ms", value),
            "--worker-fault" => {
                let spec: String = parse_flag("--worker-fault", value);
                let parsed = spec
                    .split_once(':')
                    .and_then(|(idx, rest)| idx.parse::<usize>().ok().map(|i| (i, rest)));
                let Some((idx, fault)) = parsed else {
                    eprintln!("--worker-fault wants IDX:SPEC, got {spec:?}\n{USAGE}");
                    exit(2);
                };
                cfg.worker_faults.push((idx, fault.to_string()));
            }
            "--worker-arg" => cfg.worker_args.push(parse_flag("--worker-arg", value)),
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                exit(2);
            }
        }
        i += 2;
    }
    if cfg.replicas > cfg.workers {
        eprintln!(
            "[fleet] note: --replicas {} exceeds --workers {}; every worker holds every model",
            cfg.replicas, cfg.workers
        );
    }

    let fleet = match Fleet::bind(cfg.clone()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "[fleet] cannot start on {} with serve binary {}: {e}",
                cfg.addr,
                cfg.serve_bin.display()
            );
            exit(1);
        }
    };
    if let Err(e) = fleet.run() {
        eprintln!("[fleet] fleet error: {e}");
        exit(1);
    }
}
