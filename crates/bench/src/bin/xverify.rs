//! Standalone cross-verification harness: paired solvers in lockstep.
//!
//! Runs the full pair suite against sampled experiment cells of one
//! dataset:
//!
//! * IRLS twice / GD twice — bit-exact per-iteration determinism;
//! * IRLS vs GD — converged coefficients within a ULP bound;
//! * GD vs Adam — shared logistic objective, converged value agreement;
//! * fused vs unfused GD — the same logistic objective, every iterate bit
//!   for bit;
//! * exact vs WalkSAT MaxSAT — reached optimum on a small instance.
//!
//! `--perturb` injects a 1-ulp perturbation into a captured solver stream
//! and exits non-zero after printing the detected divergence — the smoke
//! proof that the harness actually fires, not just stays silent.

use fairlens_bench::xverify::{fold_features, report_verdicts, sample_coords, verify_cells};
use fairlens_bench::{CommonArgs, ExperimentSpec};
use fairlens_model::LogisticOptions;
use fairlens_optim::Objective;
use fairlens_synth::{DatasetKind, ALL_DATASETS};
use fairlens_xverify::pairs::{capture_lr, gd_fusion, maxsat_agreement, optim_agreement, AGREEMENT_ULPS};
use fairlens_xverify::{bump, lockstep, Tolerance};
use fairlens_solver::{Clause, Lit, MaxSatProblem};

const USAGE: &str = "xverify [adult|compas|german|credit] [--cells K] [--perturb] \
[--seed S] [--scale quick|paper] [--tolerance ULPS]";

fn main() {
    let args = CommonArgs::from_env(USAGE);
    let mut dataset = DatasetKind::German;
    let mut cells = 2usize;
    let mut perturb = false;
    let mut rest = args.rest.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--perturb" => perturb = true,
            "--cells" => {
                cells = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --cells requires a positive count\nusage: {USAGE}");
                        std::process::exit(2);
                    });
            }
            name => {
                dataset = ALL_DATASETS
                    .into_iter()
                    .find(|k| k.name().eq_ignore_ascii_case(name))
                    .unwrap_or_else(|| {
                        eprintln!("error: unknown argument {name:?}\nusage: {USAGE}");
                        std::process::exit(2);
                    });
            }
        }
    }

    let spec = ExperimentSpec::new(args.seed).datasets([dataset]).scale(args.scale);

    if perturb {
        run_perturbed(&spec, dataset);
    }

    // The cell suite: LR determinism + agreement on K sampled folds.
    let mut ok = match verify_cells(&spec, cells, args.tolerance) {
        Ok(verdicts) => report_verdicts("xverify", &verdicts),
        Err(e) => {
            eprintln!("[xverify] {e}");
            std::process::exit(2);
        }
    };

    // The optimiser pair on the first sampled fold's logistic objective.
    let (kind, fold) = sample_coords(&spec, 1).expect("non-empty grid")[0];
    let (x, y) = fold_features(&spec, kind, fold);
    let loss = fairlens_model::LogisticLoss::new(&x, &y, 0.05);
    let x0 = vec![0.0; loss.dim()];
    let tol = Tolerance::Ulps(args.tolerance.unwrap_or(AGREEMENT_ULPS));
    let r = optim_agreement(&loss, &x0, tol);
    eprintln!("[xverify] {}/fold{fold}: {r}", kind.name());
    ok &= r.ok();
    let r = gd_fusion(&loss, &x0, &Default::default(), Tolerance::Exact);
    eprintln!("[xverify] {}/fold{fold}: {r}", kind.name());
    ok &= r.ok();

    // The MaxSAT pair on a seeded implication-chain instance (small enough
    // for the exact solver's exhaustive sweep).
    let r = maxsat_agreement(&chain_instance(args.seed), args.seed, 4_000, 8, Tolerance::Exact);
    eprintln!("[xverify] {r}");
    ok &= r.ok();

    if !ok {
        eprintln!("[xverify] FAILED: divergence detected (see above)");
        std::process::exit(1);
    }
    eprintln!("[xverify] all solver pairs agree");
}

/// Capture a real IRLS stream on the first sampled fold, bump one value by
/// one ulp, and demand the lockstep comparison names the exact spot.
fn run_perturbed(spec: &ExperimentSpec, dataset: DatasetKind) -> ! {
    let (kind, fold) = sample_coords(spec, 1).expect("non-empty grid")[0];
    let (x, y) = fold_features(spec, kind, fold);
    let opts = LogisticOptions::default();
    let clean = capture_lr(&x, &y, None, &opts).unwrap_or_else(|e| {
        eprintln!("[xverify] perturb: fit failed on {}: {e}", dataset.name());
        std::process::exit(2);
    });
    let mut tampered = clean.clone();
    let it = tampered.len() / 2;
    tampered[it].fields[0].1 = bump(tampered[it].fields[0].1, 1);
    let report = lockstep("lr/irls-vs-irls+1ulp", &clean, &tampered, Tolerance::Exact);
    eprintln!("[xverify] {}/fold{fold}: {report}", kind.name());
    match &report.divergence {
        Some(d) if d.iteration == it => {
            eprintln!("[xverify] perturbation detected at the injected iteration — harness fires");
            std::process::exit(1);
        }
        _ => {
            eprintln!("[xverify] HARNESS FAILURE: injected perturbation was not pinpointed");
            std::process::exit(3);
        }
    }
}

/// A fixed small MaxSAT instance: a hard implication chain with competing
/// soft preferences at the ends, weights jittered by the seed so repeated
/// runs still exercise distinct optima.
fn chain_instance(seed: u64) -> MaxSatProblem {
    let mut p = MaxSatProblem::new(8);
    for v in 0..7 {
        p.add(Clause::hard(vec![Lit::neg(v), Lit::pos(v + 1)])).unwrap();
    }
    let w = (seed % 7) as f64 * 0.25;
    p.add(Clause::soft(vec![Lit::pos(0)], 2.0 + w).unwrap()).unwrap();
    p.add(Clause::soft(vec![Lit::neg(7)], 3.5).unwrap()).unwrap();
    p.add(Clause::soft(vec![Lit::pos(3)], 1.0).unwrap()).unwrap();
    p
}
