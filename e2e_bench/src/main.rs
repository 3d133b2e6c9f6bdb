//! End-to-end benchmark for fairlens.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload grid-compas|pre-credit|serve-adult|fleet-adult \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` measures the per-layer metrics and the tracing
//! overhead. Every run checks the program's outputs. The last stdout line
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--write-reference` instead rewrites the stored metrics of an offline
//! workload's correctness draw from the current code.
//!
//! See `e2e_bench/README.md` for the workloads, the metrics and which layer
//! moves which end-to-end number.

mod catalog;
mod cores;
mod offline;
mod prom;
mod serving;
mod stats;
mod traffic;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

use fairlens_json::Value;

const USAGE: &str = "usage: e2e_bench --workload grid-compas|pre-credit|serve-adult|fleet-adult \
                     --seed N --seconds S --trace 0|1 [--write-reference]";

/// SplitMix64 finaliser: one well-mixed word per (seed, index) pair. Every
/// input the benchmark generates derives from the workload seed through it.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    value: f64,
    samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: grid cells offline, HTTP requests online.
    pub attempted: u64,
    /// Operations that failed, timed out, were refused or answered wrong.
    pub failed: u64,
    /// Output deviations (wrong scores, metrics off their reference).
    deviations: Vec<String>,
    /// Context printed with the table.
    notes: Vec<String>,
    values: BTreeMap<String, Measured>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set_owned(name.to_string(), value, samples);
    }

    pub fn set_owned(&mut self, name: String, value: f64, samples: usize) {
        self.values.insert(name, Measured { value, samples });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn deviation(&mut self, deviation: String) {
        self.deviations.push(deviation);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GridCompas,
    PreCredit,
    ServeAdult,
    FleetAdult,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "grid-compas" => Some(Self::GridCompas),
            "pre-credit" => Some(Self::PreCredit),
            "serve-adult" => Some(Self::ServeAdult),
            "fleet-adult" => Some(Self::FleetAdult),
            _ => None,
        }
    }

    fn grid(self) -> Option<&'static offline::Grid> {
        match self {
            Self::GridCompas => Some(&offline::GRID_COMPAS),
            Self::PreCredit => Some(&offline::PRE_CREDIT),
            Self::ServeAdult | Self::FleetAdult => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_reference: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_reference = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if write_reference {
        return Ok(Args {
            workload,
            seed: 0,
            seconds: 0,
            trace: false,
            write_reference,
        });
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        write_reference,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2);
    });

    if args.write_reference {
        let Some(grid) = args.workload.grid() else {
            eprintln!("error: --write-reference applies to the offline workloads\n{USAGE}");
            exit(2);
        };
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("reference/{}.json", grid.name));
        match grid
            .reference_json()
            .and_then(|text| std::fs::write(&path, text).map_err(|e| e.to_string()))
        {
            Ok(()) => eprintln!("[e2e_bench] wrote {}", path.display()),
            Err(e) => {
                eprintln!("[e2e_bench] {e}");
                exit(1);
            }
        }
        return;
    }

    let mut report = Report::default();
    let result = match args.workload.grid() {
        Some(grid) => {
            grid.run(args.seed, args.seconds, args.trace, &mut report);
            serving::peak_rss_mb(std::process::id()).map(|mb| report.set("peak_rss_mb", mb, 1))
        }
        None => {
            let target = if args.workload == Workload::FleetAdult {
                serving::Target::Fleet
            } else {
                serving::Target::Serve
            };
            let dir = PathBuf::from(".bench_run").join(format!("run-{}", std::process::id()));
            let run = std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))
                .and_then(|()| {
                    serving::run(
                        target,
                        args.seed,
                        args.seconds,
                        args.trace,
                        &dir,
                        &mut report,
                    )
                });
            let _ = std::fs::remove_dir_all(&dir);
            run
        }
    };
    if let Err(e) = result {
        eprintln!("[e2e_bench] run failed: {e}");
        exit(1);
    }
    if report.attempted == 0 {
        eprintln!("[e2e_bench] run attempted no operations");
        exit(1);
    }
    let attempted = report.attempted;
    let success = 1.0 - report.failed as f64 / attempted as f64;
    report.set("success_ratio", success, attempted as usize);
    print_report(&report, args.trace);
}

/// Print the human-readable table, then the result line.
fn print_report(report: &Report, trace: bool) {
    let catalog: &[(&str, &str)] = if trace {
        &catalog::PER_LAYER
    } else {
        &catalog::END_TO_END
    };
    let mut metrics: Vec<(String, Value)> = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        let m = match report.values.get(name) {
            Some(m) => *m,
            // A layer this workload does not run.
            None if trace => Measured {
                value: 0.0,
                samples: 0,
            },
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if !m.value.is_finite() {
            eprintln!("[e2e_bench] {name} is not finite ({})", m.value);
            exit(1);
        }
        println!("{name:<32} {:>14.4} {unit:<8} n={}", m.value, m.samples);
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Number(m.value)),
                ("unit".into(), Value::String(unit.into())),
            ]),
        ));
    }
    println!(
        "error_ratio {} = {} failed / {} attempted",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for d in &report.deviations {
        println!("deviation: {d}");
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(report.deviations.is_empty())),
        ("attempted".into(), Value::Integer(report.attempted)),
        ("failed".into(), Value::Integer(report.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload fleet-adult --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::FleetAdult, 7, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload grid-compas --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload grid-compas --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload grid-compas --seconds 1 --trace 0").is_err());
        assert!(args("--workload grid-compas --seed 1 --seconds 1 --trace").is_err());
    }

    #[test]
    fn mix_is_deterministic_and_seed_sensitive() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
    }
}
