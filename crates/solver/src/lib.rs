//! # fairlens-solver
//!
//! Combinatorial and numerical solver substrate for the FairLens workspace.
//!
//! Salimi et al.'s justifiable-fairness repair reduces database repair to two
//! NP-hard problems — weighted maximum satisfiability and matrix
//! factorisation — and Hardt et al.'s equalized-odds post-processor is a
//! small linear program. The paper consumed off-the-shelf solvers; this crate
//! implements all three from scratch:
//!
//! * [`maxsat`] — weighted partial MaxSAT: exhaustive exact search for small
//!   instances, WalkSAT-style stochastic local search for large ones;
//! * [`nmf`] — non-negative matrix factorisation via Lee–Seung
//!   multiplicative updates;
//! * [`simplex`] — a two-phase dense simplex LP solver with Bland's rule.

pub mod maxsat;
pub mod nmf;
pub mod simplex;

pub use maxsat::{Clause, Lit, MaxSatError, MaxSatProblem, MaxSatSolution};
pub use nmf::{nmf, NmfOptions, NmfResult};
pub use simplex::{LinearProgram, LpError, LpSolution};
