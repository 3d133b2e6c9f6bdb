//! Save/load determinism, checked with the cross-verification
//! tolerances.
//!
//! A saved model must reproduce the original's predictions after a full
//! save → load round trip. For deterministic
//! pipelines (baseline, pre-, in-processing, and the deterministic
//! post-processors) the restored score stream must be **bit-exact**
//! ([`Tolerance::Exact`]). The stochastic post-processors (Hardt^EO,
//! Pleiss^EOP) randomise *labels* per predict call — their score stream
//! is still deterministic, and is held to the solver-agreement bound
//! [`AGREEMENT_ULPS`]; their label stream must replay identically
//! because the artifact carries the prediction-time seed.

use fairlens_core::{all_approaches, baseline_approach, Approach, ModelArtifact};
use fairlens_synth::DatasetKind;
use fairlens_xverify::pairs::AGREEMENT_ULPS;
use fairlens_xverify::Tolerance;

fn approach(name: &str) -> Approach {
    std::iter::once(baseline_approach())
        .chain(all_approaches(DatasetKind::German.salimi_inadmissible()))
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("no approach {name:?}"))
}

/// Fit `name` on German(300), round-trip it through a `.flm` file, and
/// return (original scores, restored scores, original labels, restored
/// labels) on a held-out sample.
fn round_trip(name: &str, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<u8>, Vec<u8>) {
    let train = DatasetKind::German.generate(300, seed);
    let held_out = DatasetKind::German.generate(120, seed ^ 0x5eed);
    let approach = approach(name);
    let fitted = approach.fit(&train, seed).unwrap();

    let dir = std::env::temp_dir()
        .join(format!("flm-snap-{}-{}", seed, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.flm", name.replace(['^', '(', ')', '.'], "-")));
    let artifact = ModelArtifact::new(&approach, "German", &train, &fitted, seed, vec![]);
    artifact.save(&path).unwrap();
    let restored = ModelArtifact::load(&path).unwrap().restore();
    let _ = std::fs::remove_dir_all(&dir);

    (
        fitted.predict_proba(&held_out),
        restored.predict_proba(&held_out),
        fitted.predict(&held_out),
        restored.predict(&held_out),
    )
}

#[test]
fn deterministic_pipelines_restore_bit_exactly() {
    // One representative per stage: baseline, pre-, in-, and a
    // deterministic post-processor.
    for name in ["LR", "KamCal^DP", "Zafar^DP_Fair", "KamKar^DP"] {
        let (scores, restored_scores, labels, restored_labels) = round_trip(name, 41);
        for (row, (a, b)) in scores.iter().zip(&restored_scores).enumerate() {
            assert!(
                Tolerance::Exact.matches(*a, *b),
                "{name}: row {row} scores diverge after restore: \
                 {:#018x} ({a}) vs {:#018x} ({b})",
                a.to_bits(),
                b.to_bits(),
            );
        }
        assert_eq!(labels, restored_labels, "{name}: labels diverge after restore");
    }
}

#[test]
fn stochastic_postprocessors_restore_within_agreement_ulps() {
    for name in ["Hardt^EO", "Pleiss^EOP"] {
        let (scores, restored_scores, labels, restored_labels) = round_trip(name, 43);
        assert!(
            scores.iter().any(|s| *s > 0.0 && *s < 1.0),
            "{name}: degenerate score stream"
        );
        for (row, (a, b)) in scores.iter().zip(&restored_scores).enumerate() {
            assert!(
                Tolerance::Ulps(AGREEMENT_ULPS).matches(*a, *b),
                "{name}: row {row} scores drift past {AGREEMENT_ULPS} ulps: \
                 {:#018x} ({a}) vs {:#018x} ({b})",
                a.to_bits(),
                b.to_bits(),
            );
        }
        // The artifact carries the prediction-time seed, so even the
        // randomised label stream replays draw-for-draw.
        assert_eq!(labels, restored_labels, "{name}: label replay diverges");
    }
}
