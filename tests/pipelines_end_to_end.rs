//! End-to-end integration: every registered approach trains and predicts on
//! (small versions of) all four benchmark datasets.

use fairlens::prelude::*;
use fairlens_frame::split;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small-but-representative benchmark instances.
fn small(kind: DatasetKind) -> (fairlens::frame::Dataset, fairlens::frame::Dataset) {
    let n = match kind {
        DatasetKind::German => 1_000,
        _ => 1_600,
    };
    let data = kind.generate(n, 42);
    let mut rng = StdRng::seed_from_u64(7);
    split::train_test_split(&data, 0.3, &mut rng)
}

#[test]
fn every_approach_runs_on_every_dataset() {
    for kind in ALL_DATASETS {
        let (train, test) = small(kind);
        let mut approaches = vec![baseline_approach()];
        approaches.extend(all_approaches(kind.salimi_inadmissible()));
        for approach in &approaches {
            // The one sanctioned failure: Calmon on Credit's 26 attributes
            // (the paper had to drop to 22 there as well) — covered by
            // `calmon_rejects_credit_at_full_width_but_accepts_22`.
            if approach.name == "Calmon^DP" && kind == DatasetKind::Credit {
                continue;
            }
            let fitted = approach
                .fit(&train, 1)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", approach.name, kind.name()));
            let preds = fitted.predict(&test);
            assert_eq!(preds.len(), test.n_rows(), "{}", approach.name);
            assert!(
                preds.iter().all(|&p| p <= 1),
                "{} produced non-binary predictions",
                approach.name
            );
            // Degenerate constant predictors are allowed for some
            // post-processing solutions, but accuracy must beat the
            // worst-constant bound minus slack.
            let acc = preds
                .iter()
                .zip(test.labels())
                .filter(|&(p, t)| p == t)
                .count() as f64
                / test.n_rows() as f64;
            let majority = test.pos_rate().max(1.0 - test.pos_rate());
            assert!(
                acc >= (1.0 - majority) - 0.15,
                "{} on {}: accuracy {acc} below sanity floor",
                approach.name,
                kind.name()
            );
        }
    }
}

#[test]
fn pipelines_are_deterministic_per_seed() {
    let kind = DatasetKind::German;
    let (train, test) = small(kind);
    for approach in all_approaches(kind.salimi_inadmissible()) {
        let a = approach.fit(&train, 11).unwrap().predict(&test);
        let b = approach.fit(&train, 11).unwrap().predict(&test);
        assert_eq!(a, b, "{} is not deterministic", approach.name);
    }
}

#[test]
fn predictions_respond_to_training_seed_or_match() {
    // Different seeds may legitimately coincide for deterministic
    // approaches; the pipeline must at minimum stay valid.
    let kind = DatasetKind::Compas;
    let (train, test) = small(kind);
    for approach in all_approaches(kind.salimi_inadmissible()) {
        let a = approach.fit(&train, 1).unwrap().predict(&test);
        let b = approach.fit(&train, 2).unwrap().predict(&test);
        assert_eq!(a.len(), b.len());
    }
}

#[test]
fn pre_processing_keeps_test_schema_usable() {
    // Repairs change the training data but the fitted pipeline must still
    // accept the *raw* test schema (same columns/levels).
    let kind = DatasetKind::Adult;
    let (train, test) = small(kind);
    for approach in all_approaches(kind.salimi_inadmissible()) {
        if approach.stage != fairlens::core::Stage::Pre {
            continue;
        }
        let fitted = approach.fit(&train, 3).unwrap();
        let preds = fitted.predict(&test);
        assert_eq!(preds.len(), test.n_rows(), "{}", approach.name);
        // and on the interventional twin (the CD metric's access pattern)
        let flipped = fitted.predict(&test.flip_sensitive());
        assert_eq!(flipped.len(), test.n_rows());
    }
}

#[test]
fn calmon_rejects_credit_at_full_width_but_accepts_22() {
    // The paper: Calmon fails on Credit's 26 attributes; 22 is the most it
    // could handle.
    let kind = DatasetKind::Credit;
    let data = kind.generate(1_200, 5);
    let calmon = all_approaches(kind.salimi_inadmissible())
        .into_iter()
        .find(|a| a.name == "Calmon^DP")
        .unwrap();
    assert!(calmon.fit(&data, 1).is_err(), "26 attributes must be rejected");
    let idx: Vec<usize> = (0..22).collect();
    let narrowed = data.select_attrs(&idx);
    assert!(calmon.fit(&narrowed, 1).is_ok(), "22 attributes must work");
}

/// Credit projected to its first 14 attributes, the Fig. 11(d) width at
/// which the pre-processors' stratifications are finest.
fn credit_14(seed: u64) -> fairlens::frame::Dataset {
    let idx: Vec<usize> = (0..14).collect();
    DatasetKind::Credit.generate(4_000, seed).select_attrs(&idx)
}

#[test]
fn salimi_repair_is_deterministic_per_seed() {
    // Credit 4 000×14 has enough admissible strata that the order in which
    // Salimi repairs them decides what each stratum draws from the shared
    // rng.
    use fairlens::core::pipeline::Preprocessor;
    use fairlens::core::pre::{Salimi, SalimiEngine};
    let train = credit_14(7);
    let inadmissible: Vec<String> = DatasetKind::Credit
        .salimi_inadmissible()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for engine in [SalimiEngine::MaxSat, SalimiEngine::MatFac] {
        let salimi = Salimi::new(engine, inadmissible.clone());
        let repair = || salimi.repair(&train, &mut StdRng::seed_from_u64(42)).unwrap();
        assert!(repair() == repair(), "{engine:?}: two repairs with one seed differ");
    }
}

#[test]
fn zhawu_discovery_on_credit_is_pinned() {
    // ZhaWu's discovery step (3 bins, default options) on one fixed draw:
    // every χ² test has one fixed result, so the edge list, in each node's
    // parent-ranking order, is a constant.
    use fairlens::causal::{discover_dag, CausalData, DiscoveryOptions};
    let data = credit_14(1_000);
    let view = fairlens::frame::Discretizer::fit(&data, 3).transform(&data);
    let causal = CausalData::from_view(&view);
    let dag = discover_dag(&causal, &causal.default_order(), &DiscoveryOptions::default());
    let edges: Vec<(usize, usize)> = (0..causal.n_vars())
        .flat_map(|v| dag.parents(v).iter().map(move |&p| (p, v)))
        .collect();
    let pinned = [
        (0, 1), (0, 2), (1, 4), (14, 6), (6, 7), (6, 8), (7, 8), (14, 8), (6, 9), (8, 9),
        (6, 10), (8, 10), (9, 10), (6, 11), (8, 11), (9, 11), (10, 11), (8, 12), (9, 12),
        (10, 12), (11, 12), (8, 13), (9, 13), (11, 13), (12, 13), (9, 15), (10, 15), (12, 15),
        (13, 15),
    ];
    assert_eq!(edges, pinned);
}
