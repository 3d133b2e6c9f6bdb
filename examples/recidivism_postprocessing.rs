//! Recidivism screening with post-processing: deploy fairness *without
//! retraining* (paper Sections 3 and 5).
//!
//! Post-processing is the right tool when the classifier is a fixed,
//! possibly third-party artifact (the COMPAS situation: courts consume
//! scores they cannot retrain). This example trains one fixed logistic
//! model on COMPAS-like data, then applies the three post-processors to its
//! probability outputs and compares:
//!
//! * how much each one fixes its target notion,
//! * what it costs in accuracy and individual fairness (CD), and
//! * how cheap the adjustment is next to the base training — the paper's
//!   efficiency finding for the post-processing stage.
//!
//! Run with: `cargo run --release --example recidivism_postprocessing`

use std::time::Instant;

use fairlens::metrics::{causal_discrimination, di_star, tnr_balance, tpr_balance};
use fairlens::prelude::*;
use fairlens_frame::split;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let kind = DatasetKind::Compas;
    let data = kind.generate(7_214, 42); // the paper's COMPAS size
    println!("{}", data.summary());
    println!();

    let mut rng = StdRng::seed_from_u64(7);
    let (train, test) = split::train_test_split(&data, 0.3, &mut rng);

    // The fixed base classifier (stands in for the vendor's scoring model).
    let t0 = Instant::now();
    let base = baseline_approach().fit(&train, 1).expect("LR trains");
    let base_ms = t0.elapsed().as_millis();

    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>9} {:>8} {:>10}",
        "adjuster", "acc", "DI*", "1-|TPRB|", "1-|TNRB|", "1-CD", "adjust(ms)"
    );
    report("none (LR)", &base, &test, base_ms);

    for name in ["KamKar^DP", "Hardt^EO", "Pleiss^EOP"] {
        let approach = all_approaches(kind.salimi_inadmissible())
            .into_iter()
            .find(|a| a.name == name)
            .expect("registered post-processor");
        let t0 = Instant::now();
        // `fit` re-trains the base internally; the *extra* cost over LR is
        // what the paper attributes to the post-processing stage.
        let fitted = approach.fit(&train, 1).expect("post-processing fits");
        let total_ms = t0.elapsed().as_millis();
        report(name, &fitted, &test, total_ms.saturating_sub(base_ms));
    }

    println!();
    println!(
        "Post-processing needs only Ŷ, S and (for fitting) Y — no access to the\n\
training attributes. That is why it is the cheapest stage here, and also why\n\
its individual fairness (1−CD) trails the pre-/in-processing approaches: it\n\
cannot take the similarity of individuals into account (paper, Section 4.2)."
    );
}

fn report(name: &str, fitted: &FittedPipeline, test: &fairlens::frame::Dataset, ms: u128) {
    let preds = fitted.predict(test);
    let acc = preds
        .iter()
        .zip(test.labels())
        .filter(|&(p, t)| p == t)
        .count() as f64
        / test.n_rows() as f64;
    let mut cd_rng = StdRng::seed_from_u64(3);
    let cd = causal_discrimination(test, |d| fitted.predict(d), 0.99, 0.01, &mut cd_rng);
    println!(
        "{:<12} {:>8.3} {:>8.3} {:>9.3} {:>9.3} {:>8.3} {:>10}",
        name,
        acc,
        di_star(&preds, test.sensitive()),
        1.0 - tpr_balance(test.labels(), &preds, test.sensitive()).abs(),
        1.0 - tnr_balance(test.labels(), &preds, test.sensitive()).abs(),
        1.0 - cd,
        ms
    );
}
