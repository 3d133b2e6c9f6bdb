//! Income-prediction audit on Adult: the paper's *confounding* finding.
//!
//! Section 4.2 of the paper observes that on Adult, DI and CRD — which
//! measure the same kind of disparity — disagree sharply for the
//! fairness-unaware classifier: women correlate with lower-wage occupations
//! and fewer weekly hours, so once CRD treats `occupation` and
//! `hours_per_week` as *resolving attributes*, most of the apparent
//! disparity is "explained" and the CRD fairness score comes out high even
//! though DI is very low. Causal approaches (Zha-Wu, Salimi) are
//! particularly good at maximising CRD.
//!
//! This example reproduces that contrast end to end.
//!
//! Run with: `cargo run --release --example income_audit`

use fairlens::prelude::*;
use fairlens::metrics::{causal_risk_difference, di_star, disparate_impact};
use fairlens_frame::split;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let kind = DatasetKind::Adult;
    let data = kind.generate(12_000, 42);
    println!("{}", data.summary());
    println!();

    let mut rng = StdRng::seed_from_u64(7);
    let (train, test) = split::train_test_split(&data, 0.3, &mut rng);

    println!(
        "{:<20} {:>8} {:>8} {:>10}   verdict",
        "approach", "DI", "DI*", "1-|CRD|"
    );

    let show = |name: &str, fitted: &FittedPipeline| {
        let preds = fitted.predict(&test);
        let di = disparate_impact(&preds, test.sensitive());
        let di_s = di_star(&preds, test.sensitive());
        let crd = causal_risk_difference(&test, &preds, kind.resolving_attrs());
        let verdict = if di_s < 0.6 && 1.0 - crd.abs() > 0.8 {
            "DI flags disparity; CRD says occupation/hours explain much of it"
        } else if di_s > 0.8 {
            "close to demographic parity"
        } else {
            ""
        };
        println!(
            "{name:<20} {di:>8.3} {di_s:>8.3} {:>10.3}   {verdict}",
            1.0 - crd.abs()
        );
    };

    // Fairness-unaware baseline: the disagreement between DI and CRD.
    let lr = baseline_approach().fit(&train, 1).expect("LR trains");
    show("LR", &lr);

    // A demographic-parity repair closes DI (and CRD follows along),
    // while the causal approaches directly optimise the causal notion.
    for name in ["KamCal^DP", "ZhaWu^PSF", "Salimi^JF(MatFac)"] {
        let approach = all_approaches(kind.salimi_inadmissible())
            .into_iter()
            .find(|a| a.name == name)
            .expect("registered approach");
        match approach.fit(&train, 1) {
            Ok(f) => show(name, &f),
            Err(e) => println!("{name:<20} failed: {e}"),
        }
    }

    println!();
    println!(
        "Note (paper, Section 4.2): neither metric is 'better' — the fact that \
women\nare associated with low-wage occupations and low work hours may itself \
be a bias\nworth measuring. CRD shows what remains after conditioning on the \
resolving\nattributes {:?}.",
        kind.resolving_attrs()
    );
}
