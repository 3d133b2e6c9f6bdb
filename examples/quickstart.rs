//! Quickstart: train the fairness-unaware baseline and every fair variant
//! on a (synthetic) benchmark dataset, and print the paper's nine metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use fairlens::prelude::*;
use fairlens_frame::split;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let kind = DatasetKind::Compas;
    let data = kind.generate(4000, 42);
    println!("{}", data.summary());

    let mut rng = StdRng::seed_from_u64(7);
    let (train, test) = split::train_test_split(&data, 0.3, &mut rng);

    let mut approaches = vec![baseline_approach()];
    approaches.extend(all_approaches(kind.salimi_inadmissible()));

    println!(
        "{:<20} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {:>7} {:>9} {:>9}",
        "approach", "Acc", "Prec", "Rec", "F1", "DI*", "1-|TPRB|", "1-|TNRB|", "1-CD", "1-|CRD|", "fit(ms)"
    );
    for approach in &approaches {
        let t0 = Instant::now();
        let fitted = match approach.fit(&train, 1) {
            Ok(f) => f,
            Err(e) => {
                println!("{:<20} failed: {e}", approach.name);
                continue;
            }
        };
        let ms = t0.elapsed().as_millis();
        let preds = fitted.predict(&test);
        let mut cd_rng = StdRng::seed_from_u64(3);
        let cd = fairlens::metrics::causal_discrimination(
            &test,
            |d| fitted.predict(d),
            0.99,
            0.01,
            &mut cd_rng,
        );
        let crd = fairlens::metrics::causal_risk_difference(
            &test,
            &preds,
            kind.resolving_attrs(),
        );
        let r = MetricReport::from_predictions(test.labels(), &preds, test.sensitive(), cd, crd);
        let v = r.values();
        println!(
            "{:<20} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>9.3} {:>9.3} {:>7.3} {:>9.3} {:>9}",
            approach.name, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], ms
        );
    }
}
