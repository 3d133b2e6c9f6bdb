//! The `.flm` format, pinned byte for byte.
//!
//! `testdata/` holds one artifact per fitted-state family, each fitted on
//! the same fixed COMPAS draw: a linear model (LR, KamCal^DP,
//! Zafar^DP_Fair), a mixture (Kearns^PE) and a linear base under each
//! post-processing rule (Hardt^EO, Pleiss^EOP, KamKar^DP). Refitting must
//! serialize to exactly those bytes, and parsing a file and writing it back
//! must be the identity.

use std::path::PathBuf;

use fairlens_core::{approach_by_name, ModelArtifact};
use fairlens_synth::DatasetKind;

/// `(approach, file stem, pipeline/model/adjuster kind tag in the file)`.
const CASES: [(&str, &str, &str); 7] = [
    ("LR", "lr", "\"kind\":\"linear\""),
    ("KamCal^DP", "kamcal-dp", "\"kind\":\"linear\""),
    ("Zafar^DP_Fair", "zafar-dp-fair", "\"kind\":\"linear\""),
    ("Kearns^PE", "kearns-pe", "\"kind\":\"mixture\""),
    ("Hardt^EO", "hardt-eo", "\"kind\":\"hardt\""),
    ("Pleiss^EOP", "pleiss-eop", "\"kind\":\"pleiss\""),
    ("KamKar^DP", "kamkar-dp", "\"kind\":\"kamkar\""),
];

fn golden(stem: &str) -> String {
    let path: PathBuf =
        [env!("CARGO_MANIFEST_DIR"), "testdata", &format!("{stem}.flm")].iter().collect();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn refits_serialize_to_the_committed_bytes() {
    let data = DatasetKind::Compas.generate(400, 7);
    for (name, stem, tag) in CASES {
        let approach = approach_by_name(name).unwrap();
        let fitted = approach.fit(&data, 7).unwrap();
        // 0.1 + 0.2 is not a short decimal: it pins the float formatter.
        let metrics = vec![("accuracy".to_string(), 0.6875), ("di".to_string(), 0.1 + 0.2)];
        let artifact = ModelArtifact::new(&approach, "COMPAS", &data, &fitted, 7, metrics);
        let want = golden(stem);
        assert!(want.contains(tag), "{stem}.flm lacks {tag}");
        // `save` writes the document plus one newline.
        assert_eq!(format!("{}\n", artifact.to_json()), want, "{name}: .flm bytes changed");
    }
}

#[test]
fn parse_then_serialize_is_the_identity() {
    for (name, stem, _) in CASES {
        let text = golden(stem);
        let doc = text.strip_suffix('\n').unwrap();
        let artifact = ModelArtifact::from_json(doc).unwrap();
        assert_eq!(artifact.to_json(), doc, "{name}: from_json∘to_json is not the identity");
    }
}

/// `text` with the value right after the first `prefix` replaced by
/// `null`, which the JSON layer reads as NaN.
fn null_after(text: &str, prefix: &str) -> String {
    let start = text.find(prefix).unwrap_or_else(|| panic!("{prefix} not found")) + prefix.len();
    let len = text[start..].find([',', '}', ']']).unwrap();
    format!("{}null{}", &text[..start], &text[start + len..])
}

#[test]
fn non_finite_fitted_parameters_are_rejected() {
    let cases = [
        ("hardt-eo", "\"p\":[["),
        ("pleiss-eop", "\"alpha\":"),
        ("pleiss-eop", "\"mu\":"),
        ("kamkar-dp", "\"theta\":"),
        ("lr", "\"mean\":"),
        ("lr", "\"std\":"),
    ];
    for (stem, prefix) in cases {
        let good = golden(stem);
        assert!(ModelArtifact::from_json(&good).is_ok(), "{stem}: golden file must parse");
        let bad = null_after(&good, prefix);
        assert!(ModelArtifact::from_json(&bad).is_err(), "{stem}: null after {prefix} loaded");
    }
}
