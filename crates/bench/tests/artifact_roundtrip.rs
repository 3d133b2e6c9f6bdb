//! Artifact round-trip: save → load → predict must be byte-identical.
//!
//! For every dataset, one approach per intervention stage (plus the
//! baseline) is fitted, snapshotted into a `.flm` artifact, pushed
//! through the JSON text encoding and a real file, restored, and asked
//! to predict fresh rows. Labels and probabilities must match the
//! original fitted pipeline bit for bit — the contract `fairlens-serve`
//! relies on to serve offline-identical predictions.

use fairlens_bench::spec::cell_seed;
use fairlens_core::{approach_by_name, ModelArtifact};
use fairlens_synth::ALL_DATASETS;

/// Baseline + one pre- + one in- + one post-processor. `Kearns^PE`
/// covers the mixture-of-linear-models snapshot; `Hardt^EO` covers the
/// stochastic post rule (whose seed is part of the snapshot).
const APPROACHES: [&str; 4] = ["LR", "Feld^DP(1.0)", "Kearns^PE", "Hardt^EO"];

#[test]
fn saved_models_predict_byte_identically_across_all_datasets() {
    let dir = std::env::temp_dir().join(format!("flm-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for kind in ALL_DATASETS {
        let name = kind.name();
        let train = kind.generate(400, 11);
        let fresh = kind.generate(90, 77);
        for approach_name in APPROACHES {
            let approach = approach_by_name(approach_name).unwrap();
            let seed = cell_seed(42, approach_name, name, 0);
            let fitted = match approach.fit(&train, seed) {
                Ok(f) => f,
                Err(e) => panic!("{name}/{approach_name}: fit failed: {e}"),
            };
            let metrics = vec![("accuracy".into(), 0.5)];
            let artifact =
                ModelArtifact::new(&approach, name, &train, &fitted, seed, metrics).unwrap();

            // Through the text encoding…
            let reparsed = ModelArtifact::from_json(&artifact.to_json()).unwrap();
            // …and through an actual file.
            let path = dir.join(format!("{name}-{approach_name}.flm").replace('^', "-"));
            artifact.save(&path).unwrap();
            let loaded = ModelArtifact::load(&path).unwrap();

            let want_labels = fitted.predict(&fresh);
            let want_probas = fitted.predict_proba(&fresh);
            for (tag, restored) in
                [("json", reparsed.restore()), ("file", loaded.restore())]
            {
                assert_eq!(
                    restored.predict(&fresh),
                    want_labels,
                    "{name}/{approach_name}: {tag} round-trip changed labels"
                );
                let probas = restored.predict_proba(&fresh);
                assert_eq!(
                    probas.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    want_probas.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                    "{name}/{approach_name}: {tag} round-trip changed probabilities"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
