//! # fairlens-causal
//!
//! Causal-inference substrate for the FairLens workspace, standing in for
//! the TETRAD toolkit the paper's Zha-Wu pre-processing approach depends on.
//!
//! The pipeline mirrors constraint-based causal discovery over discrete
//! data:
//!
//! 1. [`CausalData`] packages a discretised dataset (attributes + `S` + `Y`)
//!    as integer-coded variables;
//! 2. [`independence::chi2_ci_test`] runs χ² conditional-independence tests
//!    as a column-at-a-time group-by into a dense `(Z-stratum, a, b)` count
//!    cube, summed in ascending stratum order so that every test has one
//!    fixed result (p-values from a from-scratch regularised incomplete
//!    gamma in [`gamma`]);
//! 3. [`discovery::discover_dag`] prunes a parent set per variable under a
//!    causal order (the standard "knowledge tiers" assumption used when the
//!    paper runs TETRAD: `S` first, attributes next, `Y` last);
//! 4. [`graph::Dag`] holds the result, and [`effect`] estimates
//!    interventional quantities (`E[Y | do(S = s)]`, total/path-specific
//!    effects) by fitting CPTs with Laplace smoothing and forward sampling.

pub mod data;
pub mod discovery;
pub mod effect;
pub mod gamma;
pub mod graph;
pub mod independence;

pub use data::CausalData;
pub use discovery::{discover_dag, DiscoveryOptions};
pub use effect::{average_causal_effect, average_direct_effect, CptModel};
pub use graph::Dag;
pub use independence::{chi2_ci_test, Chi2Result};
