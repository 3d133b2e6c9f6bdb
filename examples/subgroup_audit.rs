//! Fairness gerrymandering audit: marginal fairness can hide subgroup
//! discrimination (Kearns et al.; paper Section 3).
//!
//! This example audits the fairness-unaware baseline and two subgroup-aware
//! learners — the paper's Kearns^PE plus this workspace's extension
//! variants (Kearns^DP, ZhaLe^DP, Thomas^EOpp/PE, Pleiss^PE, available via
//! `extended_approaches()`) — over *all* attribute-defined subgroups, not
//! just the two sensitive groups.
//!
//! Run with: `cargo run --release --example subgroup_audit`

use fairlens::metrics::{audit_subgroups, worst_weighted_gap, ConfusionMatrix};
use fairlens::prelude::*;
use fairlens::core::extended_approaches;
use fairlens_frame::split;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let kind = DatasetKind::Compas;
    let data = kind.generate(6_000, 42);
    println!("{}", data.summary());
    println!();

    let mut rng = StdRng::seed_from_u64(7);
    let (train, test) = split::train_test_split(&data, 0.3, &mut rng);

    let mut approaches = vec![baseline_approach()];
    approaches.extend(
        all_approaches(kind.salimi_inadmissible())
            .into_iter()
            .filter(|a| a.name == "Kearns^PE"),
    );
    approaches.extend(
        extended_approaches()
            .into_iter()
            .filter(|a| a.name == "Kearns^DP" || a.name == "ZhaLe^DP"),
    );

    println!(
        "{:<12} {:>9} {:>22} {:>12}  worst slice",
        "approach", "accuracy", "worst α·|FPR-gap|", "(mass)"
    );
    for approach in &approaches {
        let fitted = match approach.fit(&train, 1) {
            Ok(f) => f,
            Err(e) => {
                println!("{:<12} failed: {e}", approach.name);
                continue;
            }
        };
        let preds = fitted.predict(&test);
        let acc = preds
            .iter()
            .zip(test.labels())
            .filter(|&(p, t)| p == t)
            .count() as f64
            / test.n_rows() as f64;
        let slices = audit_subgroups(&test, &preds, true, 50);
        let overall = ConfusionMatrix::from_predictions(test.labels(), &preds);
        let (idx, gap) = worst_weighted_gap(&slices, &overall, |m| m.fpr())
            .expect("at least one auditable slice");
        println!(
            "{:<12} {:>9.3} {:>22.4} {:>12.2}  {}",
            approach.name, acc, gap, slices[idx].mass, slices[idx].description
        );
    }

    println!();
    println!(
        "Kearns^PE audits exactly this quantity (weighted subgroup FPR gaps);\n\
Kearns^DP — the demographic-parity variant the paper's AIF360 build lacked —\n\
audits positive rates instead. Both protect intersections that marginal\n\
metrics cannot see."
    );
}
