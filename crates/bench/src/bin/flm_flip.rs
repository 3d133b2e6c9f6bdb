//! Flip one coefficient bit in a `.flm` model artifact.
//!
//! The shadow-deployment smoke needs a candidate artifact that is almost —
//! but not quite — the incumbent: identical schema and shape, one weight
//! nudged below anything a statistical check could see. This tool
//! produces it:
//!
//! ```text
//! flm_flip <in.flm> <out.flm> [bit]
//! ```
//!
//! Bit `bit` (default 8) of the first linear weight is XOR-flipped (on a
//! mixture, the first member's first weight; on an adjusted pipeline, the
//! base model's). Everything else round-trips bit-exactly. The default is
//! bit 8 rather than the last place because a 1-ulp weight change is
//! absorbed by output rounding on most rows — bit 8 is still a ~1e-14
//! relative nudge, but it survives into the score bits of nearly every
//! prediction, so divergence smokes are deterministic.

use std::path::Path;
use std::process::exit;

use fairlens_core::artifact::ModelArtifact;
use fairlens_core::{FittedPipeline, ModelParams};
use fairlens_model::LogisticRegression;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (input, output, bit) = match args.as_slice() {
        [input, output] => (input, output, 8u32),
        [input, output, bit] => match bit.parse() {
            Ok(b @ 0..=63) => (input, output, b),
            _ => {
                eprintln!("flm_flip: bit must be 0..=63, got {bit:?}");
                exit(2);
            }
        },
        _ => {
            eprintln!("usage: flm_flip <in.flm> <out.flm> [bit]");
            exit(2);
        }
    };
    let mut artifact = ModelArtifact::load(Path::new(input)).unwrap_or_else(|e| {
        eprintln!("flm_flip: cannot load {input}: {e}");
        exit(1);
    });

    let base = match &mut artifact.pipeline {
        FittedPipeline::Model(m) => m,
        FittedPipeline::Adjusted { base, .. } => base,
    };
    let model = match &mut base.params {
        ModelParams::Linear(m) => Some(m),
        ModelParams::Mixture(ms) => ms.first_mut(),
    };
    let Some(model) = model.filter(|m| !m.weights().is_empty()) else {
        eprintln!("flm_flip: {input} has no weights to flip");
        exit(1);
    };
    let mut weights = model.weights().to_vec();
    let before = weights[0];
    weights[0] = f64::from_bits(before.to_bits() ^ (1 << bit));
    eprintln!(
        "flm_flip: weights[0] {:#018x} -> {:#018x} ({} -> {})",
        before.to_bits(),
        weights[0].to_bits(),
        before,
        weights[0]
    );
    *model = LogisticRegression::from_params(weights, model.intercept());

    if let Err(e) = artifact.save(Path::new(output)) {
        eprintln!("flm_flip: cannot save {output}: {e}");
        exit(1);
    }
    eprintln!("flm_flip: wrote {output}");
}
