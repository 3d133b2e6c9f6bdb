//! Salimi^JF — Salimi et al.'s justifiable-fairness database repair
//! (paper A.1.5).
//!
//! Justifiable fairness prohibits any causal dependence of the prediction on
//! the sensitive attribute except through *admissible* attributes. Salimi et
//! al. show that (under a uniformity assumption) it suffices to enforce the
//! multi-valued dependency
//!
//! ```text
//! D = Π_{A,Y}(D) ⋈ Π_{Y,I}(D)
//! ```
//!
//! i.e. `Y ⊥ I | A`, where `A` are the admissible attributes and
//! `I = {S} ∪ inadmissible attributes`. They reduce the minimal
//! insert/delete repair to weighted MaxSAT and to matrix factorisation —
//! both NP-hard. This module implements both reductions against this
//! workspace's own solvers.
//!
//! Granularity note: repairs are decided at the *cell* level (a cell is a
//! distinct `(A-stratum, Y, I-value)` combination of the discretised data) —
//! the natural quotient of Salimi's tuple-level encoding, with soft-clause
//! weights equal to cell populations. Within a chosen cell, concrete tuples
//! to delete/duplicate are picked deterministically at random.
//!
//! The repair is decided first (a delete mask and a list of tuples to
//! insert) and materialised once: one row selection over the kept rows and
//! the insertions' donors, then one write of the inserted tuples' `S` and
//! `Y`. Its cost is linear in the repaired table, so the timings measure
//! the reductions, not the copy.
//!
//! The runtime profile the paper reports emerges naturally: with *few*
//! attributes the `A`-strata are coarse, so each stratum holds a large
//! `Y × I` table and the MaxSAT instances are big (slow); with *many*
//! attributes strata shrink towards singletons and instances become trivial
//! (fast) — the inverse scaling the paper highlights in Fig. 11(d).

use std::collections::BTreeMap;

use fairlens_frame::{Dataset, DiscreteView, Discretizer};
use fairlens_linalg::Matrix;
use fairlens_solver::{nmf, Clause, Lit, MaxSatProblem, NmfOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::CoreError;
use crate::pipeline::Preprocessor;

/// Which NP-hard reduction performs the repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalimiEngine {
    /// Weighted MaxSAT over cell keep/insert variables.
    MaxSat,
    /// Rank-1 non-negative matrix factorisation of each stratum table.
    MatFac,
}

/// The Salimi justifiable-fairness repairer.
#[derive(Debug, Clone)]
pub struct Salimi {
    /// The reduction to use.
    pub engine: SalimiEngine,
    /// Names of inadmissible attributes (the sensitive attribute is always
    /// inadmissible); everything else is admissible, per the paper's setup.
    pub inadmissible: Vec<String>,
    /// Discretisation bins for numeric attributes.
    pub bins: usize,
}

impl Salimi {
    /// Construct with the paper's defaults (2 bins).
    pub fn new(engine: SalimiEngine, inadmissible: Vec<String>) -> Self {
        Self { engine, inadmissible, bins: 2 }
    }

    /// Binarise each inadmissible attribute (split levels at the median
    /// code) so the joint `I` domain stays tractable even when a dataset
    /// marks several multi-level attributes inadmissible (Adult marks
    /// three 5-level ones). The constraint semantics are preserved at bin
    /// granularity, the same resolution every other discrete computation
    /// in this module uses.
    fn i_bins(view: &DiscreteView, inadm_idx: &[usize]) -> Vec<Vec<u8>> {
        inadm_idx
            .iter()
            .map(|&a| {
                let half = view.cards[a] / 2;
                view.columns[a].iter().map(|&c| u8::from(c >= half)).collect()
            })
            .collect()
    }

    /// Joint `I`-code of a row: sensitive attribute ⊗ binarised
    /// inadmissible attributes.
    fn i_code(sensitive: &[u8], i_bins: &[Vec<u8>], row: usize) -> u32 {
        let mut code = sensitive[row] as u32;
        for bins in i_bins {
            code = code * 2 + bins[row] as u32;
        }
        code
    }

    /// Cardinality of the joint `I` domain: `2^(1 + #inadmissible)`.
    fn i_card(inadm_count: usize) -> u32 {
        1u32 << (1 + inadm_count.min(20))
    }
}

/// A per-stratum contingency summary.
struct Stratum {
    /// rows[y][i] = indices of tuples in cell (y, i)
    cells: Vec<Vec<Vec<usize>>>,
    /// Sensitive component of each `I` column code.
    s_of_col: Vec<u8>,
}

impl Stratum {
    fn counts(&self) -> Matrix {
        let mut m = Matrix::zeros(2, self.cells[0].len());
        for y in 0..2 {
            for i in 0..self.cells[y].len() {
                m.set(y, i, self.cells[y][i].len() as f64);
            }
        }
        m
    }

    /// Pearson χ² p-value of the stratum's `Y × I` table against
    /// independence. An aggregate test (rather than a per-cell check) so
    /// that dependence diluted across many `I` cells is still detected,
    /// while pure sampling noise in large strata is not.
    fn independence_p_value(&self) -> f64 {
        let n = self.counts();
        let t = fairlens_solver::nmf::independent_table(&n);
        let mut stat = 0.0f64;
        let mut live_cols = 0usize;
        for i in 0..n.cols() {
            if n.get(0, i) + n.get(1, i) > 0.0 {
                live_cols += 1;
            }
            for y in 0..2 {
                let expect = t.get(y, i);
                if expect > 0.0 {
                    let d = n.get(y, i) - expect;
                    stat += d * d / expect;
                }
            }
        }
        let p_full = if live_cols < 2 {
            1.0
        } else {
            fairlens_causal::gamma::chi2_sf(stat, (live_cols - 1) as f64)
        };

        // Focused 2×2 sub-test on Y × S (the sensitive component of I):
        // a real S–Y dependence spread across many I cells inflates the
        // full table's degrees of freedom faster than its statistic, so the
        // aggregate test alone under-detects exactly the violation
        // justifiable fairness is about.
        let mut ys = [[0.0f64; 2]; 2];
        for i in 0..n.cols() {
            let s_comp = self.s_of_col[i] as usize;
            for (y, row) in ys.iter_mut().enumerate() {
                row[s_comp] += n.get(y, i);
            }
        }
        let total: f64 = ys.iter().flatten().sum();
        let p_ys = if total > 0.0 {
            let row: [f64; 2] = [ys[0][0] + ys[0][1], ys[1][0] + ys[1][1]];
            let col: [f64; 2] = [ys[0][0] + ys[1][0], ys[0][1] + ys[1][1]];
            let mut stat2 = 0.0;
            for y in 0..2 {
                for c in 0..2 {
                    let e = row[y] * col[c] / total;
                    if e > 0.0 {
                        let d = ys[y][c] - e;
                        stat2 += d * d / e;
                    }
                }
            }
            fairlens_causal::gamma::chi2_sf(stat2, 1.0)
        } else {
            1.0
        };
        p_full.min(p_ys)
    }
}

/// A tuple to append: `(donor row, new S, new Y)`.
type Insertion = (usize, u8, u8);

impl Salimi {
    /// Decide the repair: which training rows to delete and which tuples
    /// to insert, in the order they are appended.
    fn plan(
        &self,
        train: &Dataset,
        rng: &mut StdRng,
    ) -> Result<(Vec<bool>, Vec<Insertion>), CoreError> {
        let disc = Discretizer::fit(train, self.bins);
        let view = disc.transform(train);

        let inadm_idx: Vec<usize> = self
            .inadmissible
            .iter()
            .filter_map(|n| train.column_index(n).ok())
            .collect();
        let adm_all: Vec<usize> = (0..train.n_attrs())
            .filter(|a| !inadm_idx.contains(a))
            .collect();
        // Stratify on the admissible attributes most informative about Y,
        // bounded so the expected stratum holds enough tuples for the
        // independence statistics to be meaningful (Salimi et al. likewise
        // operate on the active domain, where empty contexts impose no
        // constraints). More attributes → finer strata → smaller, easier
        // repair instances — the source of the inverse attribute scaling.
        let max_strat = ((train.n_rows() as f64 / 400.0).log2().floor().max(0.0) as usize)
            .min(adm_all.len());
        let adm_idx = rank_by_label_dependence(&view, &adm_all, max_strat);
        let i_bins = Self::i_bins(&view, &inadm_idx);
        let i_card = Self::i_card(inadm_idx.len()) as usize;
        if i_card > 64 {
            return Err(CoreError::Unsupported(format!(
                "inadmissible domain too large ({i_card} cells)"
            )));
        }

        // Group rows into A-strata, kept in ascending key order: every
        // stratum's repair draws from the one `rng`, so the order in which
        // they are visited decides which rows are deleted or donated.
        let mut strata: BTreeMap<u64, Stratum> = BTreeMap::new();
        for r in 0..train.n_rows() {
            let key = view.stratum_key(r, &adm_idx);
            let st = strata.entry(key).or_insert_with(|| Stratum {
                cells: vec![vec![Vec::new(); i_card]; 2],
                s_of_col: (0..i_card as u32)
                    .map(|c| s_of_i_code(c, inadm_idx.len()))
                    .collect(),
            });
            let y = view.labels[r] as usize;
            let i = Self::i_code(train.sensitive(), &i_bins, r) as usize;
            st.cells[y][i].push(r);
        }

        // Decide deletions/insertions per stratum.
        let mut delete = vec![false; train.n_rows()];
        let mut insertions: Vec<Insertion> = Vec::new();

        for st in strata.values() {
            if st.independence_p_value() > 0.01 {
                continue; // within sampling noise of independence
            }
            match self.engine {
                SalimiEngine::MaxSat => {
                    repair_stratum_maxsat(st, i_card, rng, &mut delete, &mut insertions, inadm_idx.len())?;
                }
                SalimiEngine::MatFac => {
                    repair_stratum_matfac(st, i_card, rng, &mut delete, &mut insertions, inadm_idx.len());
                }
            }
        }

        Ok((delete, insertions))
    }
}

impl Preprocessor for Salimi {
    fn repair(&self, train: &Dataset, rng: &mut StdRng) -> Result<Dataset, CoreError> {
        let (delete, insertions) = self.plan(train, rng)?;
        materialise(train, &delete, &insertions)
    }
}

/// Build the repaired dataset in one pass: the kept rows in their order,
/// then one copy of each insertion's donor row, whose `S` and `Y` take the
/// inserted tuple's values.
fn materialise(
    train: &Dataset,
    delete: &[bool],
    insertions: &[Insertion],
) -> Result<Dataset, CoreError> {
    let mut rows: Vec<usize> = (0..train.n_rows()).filter(|&r| !delete[r]).collect();
    if rows.is_empty() {
        return Err(CoreError::Infeasible("repair deleted every tuple".into()));
    }
    let kept = rows.len();
    rows.extend(insertions.iter().map(|&(donor, _, _)| donor));
    let out = train.select_rows(&rows);
    let mut s = out.sensitive().to_vec();
    let mut y = out.labels().to_vec();
    for (k, &(_, new_s, new_y)) in insertions.iter().enumerate() {
        s[kept + k] = new_s;
        y[kept + k] = new_y;
    }
    Ok(out.with_sensitive(s).with_labels(y))
}

/// Rank admissible attributes by their (binned) dependence on the label
/// and keep the strongest `k` for stratification.
fn rank_by_label_dependence(view: &DiscreteView, adm: &[usize], k: usize) -> Vec<usize> {
    let n = view.n_rows() as f64;
    let base_rate = view.labels.iter().map(|&y| y as f64).sum::<f64>() / n.max(1.0);
    let mut scored: Vec<(usize, f64)> = adm
        .iter()
        .map(|&a| {
            let card = view.cards[a] as usize;
            let mut pos = vec![0.0f64; card];
            let mut tot = vec![0.0f64; card];
            for r in 0..view.n_rows() {
                let c = view.columns[a][r] as usize;
                tot[c] += 1.0;
                pos[c] += view.labels[r] as f64;
            }
            // weighted absolute deviation of per-level rates from the base
            let dev: f64 = (0..card)
                .filter(|&c| tot[c] > 0.0)
                .map(|c| (tot[c] / n) * (pos[c] / tot[c] - base_rate).abs())
                .sum();
            (a, dev)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let mut keep: Vec<usize> = scored.into_iter().take(k).map(|(a, _)| a).collect();
    keep.sort_unstable();
    keep
}

/// Decode the sensitive component of a joint `I` code (the top bit).
fn s_of_i_code(code: u32, inadm_count: usize) -> u8 {
    ((code >> inadm_count) & 1) as u8
}

/// MaxSAT reduction: one variable per (y, i) cell; hard clauses enforce the
/// MVD closure (`x(y1,i1) ∧ x(y2,i2) → x(y1,i2)`); soft clauses prefer
/// keeping populated cells (weight = population) and leaving empty cells
/// empty (weight 0.5).
#[allow(clippy::too_many_arguments)]
fn repair_stratum_maxsat(
    st: &Stratum,
    i_card: usize,
    rng: &mut StdRng,
    delete: &mut [bool],
    insertions: &mut Vec<Insertion>,
    inadm_count: usize,
) -> Result<(), CoreError> {
    // Variable layout: [cell vars (2 × i_card)] ++ [one var per tuple].
    // Tuple variables make the instance size proportional to the stratum
    // population — exactly Salimi et al.'s tuple-level encoding, and the
    // reason coarse strata (few attributes) produce hard instances.
    let var = |y: usize, i: usize| y * i_card + i;
    let mut tuple_rows: Vec<usize> = Vec::new();
    let mut tuple_cell: Vec<(usize, usize)> = Vec::new();
    for y in 0..2 {
        for i in 0..i_card {
            for &r in &st.cells[y][i] {
                tuple_rows.push(r);
                tuple_cell.push((y, i));
            }
        }
    }
    let n_cell_vars = 2 * i_card;
    let tvar = |t: usize| n_cell_vars + t;
    let mut problem = MaxSatProblem::new(n_cell_vars + tuple_rows.len());

    // Hard MVD closure clauses over the active I-domain.
    let active: Vec<usize> = (0..i_card)
        .filter(|&i| !st.cells[0][i].is_empty() || !st.cells[1][i].is_empty())
        .collect();
    for &i1 in &active {
        for &i2 in &active {
            if i1 == i2 {
                continue;
            }
            for y in 0..2 {
                // x(y, i1) ∧ x(1−y, i2) → x(y, i2)
                problem.add(Clause::hard(vec![
                    Lit::neg(var(y, i1)),
                    Lit::neg(var(1 - y, i2)),
                    Lit::pos(var(y, i2)),
                ]))?;
            }
        }
    }
    // Tuple–cell coupling: a kept tuple forces its cell on; an on cell must
    // retain at least one tuple (when it has any).
    for (t, &(y, i)) in tuple_cell.iter().enumerate() {
        problem.add(Clause::hard(vec![Lit::neg(tvar(t)), Lit::pos(var(y, i))]))?;
    }
    for y in 0..2 {
        for i in 0..i_card {
            if st.cells[y][i].is_empty() {
                continue;
            }
            let mut lits = vec![Lit::neg(var(y, i))];
            for (t, &(ty, ti)) in tuple_cell.iter().enumerate() {
                if (ty, ti) == (y, i) {
                    lits.push(Lit::pos(tvar(t)));
                }
            }
            problem.add(Clause::hard(lits))?;
        }
    }
    // Soft preferences: keep every tuple; leave empty cells empty.
    for t in 0..tuple_rows.len() {
        problem.add(Clause::soft(vec![Lit::pos(tvar(t))], 1.0)?)?;
    }
    for i in 0..i_card {
        for y in 0..2 {
            if st.cells[y][i].is_empty() {
                problem.add(Clause::soft(vec![Lit::neg(var(y, i))], 0.5)?)?;
            }
        }
    }

    let solution = problem.solve(rng.gen());
    if !solution.hard_ok {
        // Fall back to wholesale deletion of the minority label per i-cell
        // (always MVD-consistent within the stratum).
        fallback_delete(st, i_card, delete);
        return Ok(());
    }

    // Phase 1 (the MaxSAT decision): which cells and tuples survive.
    // Phase 2: within the retained pattern, level counts to the independent
    // table so Y ⊥ I | A holds under bag semantics too (set-level MVD
    // presence alone does not constrain multiplicities).
    let mut retained = Matrix::zeros(2, i_card);
    for (t, &(y, i)) in tuple_cell.iter().enumerate() {
        if !solution.assignment[var(y, i)] || !solution.assignment[tvar(t)] {
            delete[tuple_rows[t]] = true;
        } else {
            retained.add_to(y, i, 1.0);
        }
    }
    let target = fairlens_solver::nmf::independent_table(&retained);
    level_to_target(st, &target, i_card, rng, delete, insertions, inadm_count);
    Ok(())
}

/// Delete or duplicate tuples cell-by-cell until counts match `target`.
#[allow(clippy::too_many_arguments)]
fn level_to_target(
    st: &Stratum,
    target: &Matrix,
    i_card: usize,
    rng: &mut StdRng,
    delete: &mut [bool],
    insertions: &mut Vec<Insertion>,
    inadm_count: usize,
) {
    for i in 0..i_card {
        for y in 0..2 {
            let live: Vec<usize> = st.cells[y][i]
                .iter()
                .copied()
                .filter(|&r| !delete[r])
                .collect();
            let have = live.len();
            let want = target.get(y, i).round().max(0.0) as usize;
            if want < have {
                let mut rows = live;
                rows.shuffle(rng);
                for &r in rows.iter().take(have - want) {
                    delete[r] = true;
                }
            } else if want > have {
                let extra = want - have;
                let new_s = s_of_i_code(i as u32, inadm_count);
                if have > 0 {
                    for _ in 0..extra {
                        insertions.push((live[rng.gen_range(0..have)], new_s, y as u8));
                    }
                } else if let Some(&donor) =
                    st.cells[1 - y].get(i).and_then(|v| v.first())
                {
                    for _ in 0..extra.min(3) {
                        insertions.push((donor, new_s, y as u8));
                    }
                }
            }
        }
    }
}

/// MatFac reduction: round the rank-1 NMF reconstruction of the stratum
/// table to integer target counts and repair each cell towards its target.
#[allow(clippy::too_many_arguments)]
fn repair_stratum_matfac(
    st: &Stratum,
    i_card: usize,
    rng: &mut StdRng,
    delete: &mut [bool],
    insertions: &mut Vec<Insertion>,
    inadm_count: usize,
) {
    let counts = st.counts();
    let result = nmf::nmf(
        &counts,
        &NmfOptions { rank: 1, max_iter: 400, seed: rng.gen(), ..Default::default() },
    );
    let target = result.reconstruct();

    for i in 0..i_card {
        for y in 0..2 {
            let have = st.cells[y][i].len();
            let want = target.get(y, i).round().max(0.0) as usize;
            if want < have {
                // delete the excess, chosen uniformly
                let mut rows = st.cells[y][i].clone();
                rows.shuffle(rng);
                for &r in rows.iter().take(have - want) {
                    delete[r] = true;
                }
            } else if want > have {
                let extra = want - have;
                if have > 0 {
                    for _ in 0..extra {
                        let donor = st.cells[y][i][rng.gen_range(0..have)];
                        insertions.push((
                            donor,
                            s_of_i_code(i as u32, inadm_count),
                            y as u8,
                        ));
                    }
                } else if let Some(&donor) = st.cells[1 - y].get(i).and_then(|v| v.first()) {
                    // borrow the other label's tuple and flip the label
                    for _ in 0..extra.min(2) {
                        insertions.push((
                            donor,
                            s_of_i_code(i as u32, inadm_count),
                            y as u8,
                        ));
                    }
                }
            }
        }
    }
}

/// Deletion-only fallback: within each i-cell keep only the stratum's
/// majority label (trivially independent).
fn fallback_delete(st: &Stratum, i_card: usize, delete: &mut [bool]) {
    let n1: usize = st.cells[1].iter().map(Vec::len).sum();
    let n0: usize = st.cells[0].iter().map(Vec::len).sum();
    let minority = usize::from(n1 < n0);
    for i in 0..i_card {
        for &r in &st.cells[minority][i] {
            delete[r] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The materialisation [`materialise`] replaced: append each inserted
    /// tuple on its own, copying the whole dataset twice per tuple.
    fn materialise_per_tuple(
        train: &Dataset,
        delete: &[bool],
        insertions: &[Insertion],
    ) -> Result<Dataset, CoreError> {
        let keep: Vec<usize> = (0..train.n_rows()).filter(|&r| !delete[r]).collect();
        if keep.is_empty() {
            return Err(CoreError::Infeasible("repair deleted every tuple".into()));
        }
        let mut out = train.select_rows(&keep);
        for &(donor, new_s, new_y) in insertions {
            out.push_row_from(train, donor);
            let n = out.n_rows();
            let mut s = out.sensitive().to_vec();
            let mut y = out.labels().to_vec();
            s[n - 1] = new_s;
            y[n - 1] = new_y;
            out = out.with_sensitive(s).with_labels(y);
        }
        Ok(out)
    }

    /// A mixed-type dataset: one numeric column (with `-0.0`) and one
    /// categorical column, both varying row by row.
    fn mixed(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = (0..n).map(|r| if r % 7 == 3 { -0.0 } else { rng.gen::<f64>() - 0.5 }).collect();
        Dataset::builder("mixed")
            .numeric("x", x)
            .categorical(
                "c",
                (0..n).map(|_| rng.gen_range(0..3)).collect(),
                vec!["a".into(), "b".into(), "c".into()],
            )
            .sensitive("s", (0..n).map(|_| rng.gen_range(0..2)).collect())
            .labels("y", (0..n).map(|_| rng.gen_range(0..2)).collect())
            .build()
            .unwrap()
    }

    proptest! {
        /// The one-pass build equals the per-tuple appends: the same rows
        /// in the same order, the same bits, the same error when every
        /// tuple is deleted.
        #[test]
        fn bulk_materialise_matches_per_tuple(
            n in 1usize..40,
            seed in any::<u64>(),
            delete_rate in 0.0f64..=1.0,
            raw in prop::collection::vec((any::<u64>(), 0u8..2, 0u8..2), 0..30),
        ) {
            let train = mixed(n, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            let delete: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < delete_rate).collect();
            let insertions: Vec<Insertion> =
                raw.into_iter().map(|(d, s, y)| (d as usize % n, s, y)).collect();
            let bulk = materialise(&train, &delete, &insertions);
            let oracle = materialise_per_tuple(&train, &delete, &insertions);
            match (bulk, oracle) {
                (Ok(b), Ok(o)) => prop_assert_eq!(format!("{b:?}"), format!("{o:?}")),
                (Err(b), Err(o)) => prop_assert_eq!(b.to_string(), o.to_string()),
                (b, o) => prop_assert!(false, "bulk {:?} vs per-tuple {:?}", b.is_ok(), o.is_ok()),
            }
        }
    }

    /// Both engines on strata that need insertions: the one-pass build is
    /// the dataset the per-tuple appends would have built.
    #[test]
    fn repairs_with_insertions_match_per_tuple() {
        for engine in [SalimiEngine::MaxSat, SalimiEngine::MatFac] {
            for seed in 1..=4 {
                let d = unjust(3000, seed);
                let salimi = Salimi::new(engine, vec![]);
                let (delete, insertions) =
                    salimi.plan(&d, &mut StdRng::seed_from_u64(seed)).unwrap();
                assert!(!insertions.is_empty(), "{engine:?}/{seed}: setup needs insertions");
                let bulk = materialise(&d, &delete, &insertions).unwrap();
                assert_eq!(bulk, materialise_per_tuple(&d, &delete, &insertions).unwrap());
                assert_eq!(bulk, salimi.repair(&d, &mut StdRng::seed_from_u64(seed)).unwrap());
            }
        }
    }

    /// Y depends on S even given the admissible attribute `a`.
    fn unjust(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let ai = u32::from(rng.gen::<f64>() < 0.5);
            let si = u8::from(rng.gen::<f64>() < 0.5);
            let p = 0.15 + 0.3 * ai as f64 + 0.4 * si as f64;
            a.push(ai);
            s.push(si);
            y.push(u8::from(rng.gen::<f64>() < p));
        }
        Dataset::builder("uj")
            .categorical("a", a, vec!["lo".into(), "hi".into()])
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    /// Conditional dependence of Y on S given the (discretised) admissible
    /// attribute: max over a-strata of |P(Y=1|S=1,a) − P(Y=1|S=0,a)|.
    fn conditional_gap(d: &Dataset) -> f64 {
        let codes = d.column(0).as_codes().unwrap();
        let mut worst = 0.0f64;
        for a in 0..2u32 {
            let mut pos = [0usize; 2];
            let mut tot = [0usize; 2];
            for (r, &code) in codes.iter().enumerate() {
                if code != a {
                    continue;
                }
                let s = d.sensitive()[r] as usize;
                tot[s] += 1;
                pos[s] += d.labels()[r] as usize;
            }
            if tot[0] > 0 && tot[1] > 0 {
                let gap =
                    (pos[1] as f64 / tot[1] as f64 - pos[0] as f64 / tot[0] as f64).abs();
                worst = worst.max(gap);
            }
        }
        worst
    }

    #[test]
    fn maxsat_repair_reduces_conditional_dependence() {
        let d = unjust(4000, 1);
        let before = conditional_gap(&d);
        assert!(before > 0.3, "setup: gap {before}");
        let mut rng = StdRng::seed_from_u64(2);
        let r = Salimi::new(SalimiEngine::MaxSat, vec![])
            .repair(&d, &mut rng)
            .unwrap();
        let after = conditional_gap(&r);
        assert!(after < before * 0.7, "gap {before} → {after}");
    }

    #[test]
    fn matfac_repair_reduces_conditional_dependence() {
        let d = unjust(4000, 3);
        let before = conditional_gap(&d);
        let mut rng = StdRng::seed_from_u64(4);
        let r = Salimi::new(SalimiEngine::MatFac, vec![])
            .repair(&d, &mut rng)
            .unwrap();
        let after = conditional_gap(&r);
        assert!(after < before * 0.5, "gap {before} → {after}");
        // MatFac's targets preserve totals approximately.
        let ratio = r.n_rows() as f64 / d.n_rows() as f64;
        assert!((0.6..=1.4).contains(&ratio), "size ratio {ratio}");
    }

    #[test]
    fn independent_data_unchanged() {
        // Y ⊥ S | a already holds → no repair.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 3000;
        let mut a = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let ai = u32::from(rng.gen::<f64>() < 0.5);
            s.push(u8::from(rng.gen::<f64>() < 0.5));
            y.push(u8::from(rng.gen::<f64>() < 0.2 + 0.5 * ai as f64));
            a.push(ai);
        }
        let d = Dataset::builder("ind")
            .categorical("a", a, vec!["lo".into(), "hi".into()])
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap();
        for engine in [SalimiEngine::MaxSat, SalimiEngine::MatFac] {
            let mut rng2 = StdRng::seed_from_u64(6);
            let r = Salimi::new(engine, vec![]).repair(&d, &mut rng2).unwrap();
            let ratio = r.n_rows() as f64 / d.n_rows() as f64;
            assert!(
                (0.85..=1.15).contains(&ratio),
                "{engine:?}: near-independent data lost {ratio}"
            );
        }
    }

    #[test]
    fn inadmissible_attributes_join_the_constraint() {
        let d = unjust(1000, 7);
        let mut rng = StdRng::seed_from_u64(8);
        // marking `a` inadmissible leaves no admissible attributes: one big
        // stratum with a 2 × 4 table — still repairable
        let r = Salimi {
            engine: SalimiEngine::MaxSat,
            inadmissible: vec!["a".to_string()],
            bins: 2,
        }
        .repair(&d, &mut rng)
        .unwrap();
        assert!(r.n_rows() > 0);
    }
}
