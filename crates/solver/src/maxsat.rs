//! Weighted partial MaxSAT.
//!
//! A problem is a set of clauses over boolean variables; each clause is
//! either *hard* (must be satisfied) or *soft* with a positive weight. A
//! solution maximises the total weight of satisfied soft clauses subject to
//! all hard clauses holding.
//!
//! Two engines:
//! * exact exhaustive enumeration of all 2^n assignments, used when the
//!   variable count is small (`solve` dispatches at or below
//!   [`EXACT_VAR_LIMIT`]);
//! * WalkSAT-style weighted stochastic local search with restarts for
//!   larger instances — the classic incomplete approach for repair-style
//!   encodings like Salimi's. Each flip updates per-clause satisfied-literal
//!   counts, the set of unsatisfied clauses and the soft total
//!   incrementally, touching only the flipped variable's occurrences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A malformed clause or problem, reported at construction time so that
/// bad encodings surface as recoverable training errors instead of panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaxSatError {
    /// A soft clause was given a weight ≤ 0 (or NaN).
    NonPositiveWeight,
    /// A clause with no literals was added.
    EmptyClause,
    /// A literal referenced a variable ≥ the problem's variable count.
    VarOutOfRange {
        /// The offending variable index.
        var: usize,
        /// The problem's variable count.
        n_vars: usize,
    },
}

impl std::fmt::Display for MaxSatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPositiveWeight => write!(f, "soft clause weight must be positive"),
            Self::EmptyClause => write!(f, "empty clause"),
            Self::VarOutOfRange { var, n_vars } => {
                write!(f, "literal variable {var} out of range (n_vars = {n_vars})")
            }
        }
    }
}

impl std::error::Error for MaxSatError {}

/// A literal: variable index plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lit {
    /// Zero-based variable index.
    pub var: usize,
    /// `true` for the positive literal `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Lit {
    /// Positive literal of `var`.
    pub fn pos(var: usize) -> Self {
        Self { var, positive: true }
    }

    /// Negative literal of `var`.
    pub fn neg(var: usize) -> Self {
        Self { var, positive: false }
    }

    #[inline]
    fn satisfied_by(self, assignment: &[bool]) -> bool {
        assignment[self.var] == self.positive
    }
}

/// A clause: a disjunction of literals with a hard/soft weight.
#[derive(Debug, Clone)]
pub struct Clause {
    /// The disjuncts.
    pub lits: Vec<Lit>,
    /// `None` = hard clause; `Some(w)` = soft clause of weight `w > 0`.
    pub weight: Option<f64>,
}

impl Clause {
    /// A hard clause.
    pub fn hard(lits: Vec<Lit>) -> Self {
        Self { lits, weight: None }
    }

    /// A soft clause with weight `w`; rejects `w <= 0` (and NaN).
    pub fn soft(lits: Vec<Lit>, w: f64) -> Result<Self, MaxSatError> {
        if w.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(MaxSatError::NonPositiveWeight);
        }
        Ok(Self { lits, weight: Some(w) })
    }

    #[inline]
    fn satisfied_by(&self, assignment: &[bool]) -> bool {
        self.lits.iter().any(|l| l.satisfied_by(assignment))
    }
}

/// A weighted partial MaxSAT instance.
#[derive(Debug, Clone, Default)]
pub struct MaxSatProblem {
    n_vars: usize,
    clauses: Vec<Clause>,
}

/// Result of a MaxSAT solve.
#[derive(Debug, Clone)]
pub struct MaxSatSolution {
    /// Truth assignment per variable.
    pub assignment: Vec<bool>,
    /// Total satisfied soft weight.
    pub soft_weight: f64,
    /// Whether all hard clauses are satisfied.
    pub hard_ok: bool,
}

/// Instances at or below this variable count are solved exactly.
pub const EXACT_VAR_LIMIT: usize = 18;

impl MaxSatProblem {
    /// Empty problem with `n_vars` variables.
    pub fn new(n_vars: usize) -> Self {
        Self { n_vars, clauses: Vec::new() }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of clauses.
    pub fn n_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Add a clause; rejects empty clauses and out-of-range variables.
    pub fn add(&mut self, clause: Clause) -> Result<(), MaxSatError> {
        if clause.lits.is_empty() {
            return Err(MaxSatError::EmptyClause);
        }
        for l in &clause.lits {
            if l.var >= self.n_vars {
                return Err(MaxSatError::VarOutOfRange { var: l.var, n_vars: self.n_vars });
            }
        }
        self.clauses.push(clause);
        Ok(())
    }

    /// Total weight of all soft clauses.
    pub fn total_soft_weight(&self) -> f64 {
        self.clauses.iter().filter_map(|c| c.weight).sum()
    }

    fn evaluate(&self, assignment: &[bool]) -> (f64, bool) {
        let mut soft = 0.0;
        let mut hard_ok = true;
        for c in &self.clauses {
            let sat = c.satisfied_by(assignment);
            match c.weight {
                Some(w) if sat => soft += w,
                Some(_) => {}
                None if !sat => hard_ok = false,
                None => {}
            }
        }
        (soft, hard_ok)
    }

    /// Solve: exact when small, local search otherwise. `seed` controls the
    /// local-search randomness (exact solves ignore it).
    pub fn solve(&self, seed: u64) -> MaxSatSolution {
        if self.n_vars <= EXACT_VAR_LIMIT {
            self.solve_exact()
        } else {
            self.solve_local_search(seed, 40 * self.n_vars.max(250), 6)
        }
    }

    /// Exhaustive exact solve (≤ [`EXACT_VAR_LIMIT`] variables).
    pub fn solve_exact(&self) -> MaxSatSolution {
        assert!(
            self.n_vars <= EXACT_VAR_LIMIT,
            "exact solve limited to {EXACT_VAR_LIMIT} variables"
        );
        let mut best: Option<MaxSatSolution> = None;
        let mut assignment = vec![false; self.n_vars];
        let combos = 1u64 << self.n_vars;
        for mask in 0..combos {
            fairlens_budget::checkpoint();
            fairlens_trace::incr("maxsat.nodes", 1);
            for (v, a) in assignment.iter_mut().enumerate() {
                *a = (mask >> v) & 1 == 1;
            }
            let (soft, hard_ok) = self.evaluate(&assignment);
            let better = match &best {
                None => true,
                Some(b) => {
                    (hard_ok && !b.hard_ok) || (hard_ok == b.hard_ok && soft > b.soft_weight)
                }
            };
            if better {
                best = Some(MaxSatSolution {
                    assignment: assignment.clone(),
                    soft_weight: soft,
                    hard_ok,
                });
            }
        }
        best.unwrap_or(MaxSatSolution { assignment, soft_weight: 0.0, hard_ok: true })
    }

    /// Weighted WalkSAT with restarts.
    ///
    /// Hard clauses get an effective weight larger than the total soft
    /// weight, so the search always prefers restoring hard feasibility.
    pub fn solve_local_search(&self, seed: u64, flips: usize, restarts: usize) -> MaxSatSolution {
        self.solve_local_search_observed(seed, flips, restarts, &mut |_, _, _| {})
    }

    /// [`solve_local_search`] with a per-restart observer called as
    /// `observe(restart, best_soft_weight, best_hard_ok)` on the incumbent
    /// after each restart finishes — the checkpoint stream the
    /// cross-verification harness compares against the exact solver.
    ///
    /// Each flip updates the satisfied-literal counts of the flipped
    /// variable's clauses by ±1, and the unsatisfied set and the soft total
    /// only where a count crosses zero. The unsatisfied clauses are walked
    /// in ascending clause order, and the greedy step scores a literal from
    /// the first literal on its variable in each clause, so the random
    /// draws, the clause picked and the variable flipped follow one fixed
    /// trajectory per seed. The soft total is kept as a running sum of ±w
    /// instead of a clause-order sum: the result is bit-identical to summing
    /// the satisfied soft weights in clause order whenever every weight is a
    /// multiple of one power of two and the total stays below 2^53 of that
    /// unit (then every partial sum is exact). For other weights, near-ties
    /// between incumbents may resolve differently.
    ///
    /// [`solve_local_search`]: Self::solve_local_search
    pub fn solve_local_search_observed(
        &self,
        seed: u64,
        flips: usize,
        restarts: usize,
        observe: &mut dyn FnMut(usize, f64, bool),
    ) -> MaxSatSolution {
        let mut rng = StdRng::seed_from_u64(seed);
        let hard_w = self.total_soft_weight() + 1.0;
        let eff: Vec<f64> = self.clauses.iter().map(|c| c.weight.unwrap_or(hard_w)).collect();
        let occurs = Occurrences::build(self);

        let mut best: Option<MaxSatSolution> = None;
        for restart in 0..restarts.max(1) {
            let assignment: Vec<bool> = (0..self.n_vars).map(|_| rng.gen()).collect();
            let mut walk = Walk::new(self, assignment);
            walk.offer(&mut best);

            for _ in 0..flips {
                fairlens_budget::checkpoint();
                fairlens_trace::incr("maxsat.flips", 1);
                // Pick a random unsatisfied clause, weighted toward heavy ones.
                let Some(first) = walk.unsat.iter().next() else {
                    break;
                };
                let total_w: f64 = walk.unsat.iter().map(|ci| eff[ci]).sum();
                let mut pick = rng.gen::<f64>() * total_w;
                let mut chosen = first;
                for ci in walk.unsat.iter() {
                    pick -= eff[ci];
                    if pick <= 0.0 {
                        chosen = ci;
                        break;
                    }
                }

                // Either a noisy random flip or the greedy best flip.
                let lits = &self.clauses[chosen].lits;
                let flip_var = if rng.gen::<f64>() < 0.2 {
                    lits[rng.gen_range(0..lits.len())].var
                } else {
                    // Greedy: pick the literal whose flip loses the least.
                    let mut best_var = lits[0].var;
                    let mut best_delta = f64::NEG_INFINITY;
                    for l in lits {
                        let delta = walk.flip_gain(l.var, occurs.of(l.var), &eff);
                        if delta > best_delta {
                            best_delta = delta;
                            best_var = l.var;
                        }
                    }
                    best_var
                };

                walk.flip(flip_var, occurs.of(flip_var), &self.clauses);
                walk.offer(&mut best);
            }
            if let Some(b) = &best {
                observe(restart, b.soft_weight, b.hard_ok);
            }
        }
        best.expect("at least one restart ran")
    }
}

/// One literal occurrence of a variable.
#[derive(Debug, Clone, Copy)]
struct Occ {
    clause: usize,
    /// This literal's polarity.
    positive: bool,
    /// The polarity of the clause's first literal on the same variable,
    /// which the greedy score reads for every occurrence in that clause.
    first_positive: bool,
}

/// Every variable's literal occurrences, stored flat: variable `v`'s are
/// `occs[start[v]..start[v + 1]]`, in ascending clause order and, within a
/// clause, in literal order (a variable repeated in a clause occurs once
/// per literal).
struct Occurrences {
    start: Vec<usize>,
    occs: Vec<Occ>,
}

impl Occurrences {
    /// O(literals): the first literal of each variable in a clause is found
    /// with a per-variable stamp of the last clause it was seen in.
    fn build(p: &MaxSatProblem) -> Self {
        let mut start = vec![0usize; p.n_vars + 1];
        for l in p.clauses.iter().flat_map(|c| &c.lits) {
            start[l.var + 1] += 1;
        }
        for v in 0..p.n_vars {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let blank = Occ { clause: 0, positive: false, first_positive: false };
        let mut occs = vec![blank; start[p.n_vars]];
        let mut seen_in = vec![usize::MAX; p.n_vars];
        let mut first_positive = vec![false; p.n_vars];
        for (ci, c) in p.clauses.iter().enumerate() {
            for l in &c.lits {
                if seen_in[l.var] != ci {
                    seen_in[l.var] = ci;
                    first_positive[l.var] = l.positive;
                }
                occs[next[l.var]] =
                    Occ { clause: ci, positive: l.positive, first_positive: first_positive[l.var] };
                next[l.var] += 1;
            }
        }
        Self { start, occs }
    }

    fn of(&self, var: usize) -> &[Occ] {
        &self.occs[self.start[var]..self.start[var + 1]]
    }
}

/// A set of clause indices as a bitset, iterated in ascending order.
struct ClauseSet {
    words: Vec<u64>,
}

impl ClauseSet {
    fn new(n: usize) -> Self {
        Self { words: vec![0; n.div_ceil(64)] }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + i
                })
            })
        })
    }
}

/// The state of one WalkSAT restart.
struct Walk {
    assignment: Vec<bool>,
    /// Satisfied literals per clause, a repeated literal counted each time.
    sat_count: Vec<usize>,
    unsat: ClauseSet,
    hard_unsat: usize,
    soft: f64,
}

impl Walk {
    fn new(p: &MaxSatProblem, assignment: Vec<bool>) -> Self {
        let mut unsat = ClauseSet::new(p.clauses.len());
        let mut hard_unsat = 0;
        let sat_count: Vec<usize> = p
            .clauses
            .iter()
            .map(|c| c.lits.iter().filter(|l| l.satisfied_by(&assignment)).count())
            .collect();
        for (ci, c) in p.clauses.iter().enumerate() {
            if sat_count[ci] == 0 {
                unsat.insert(ci);
                hard_unsat += usize::from(c.weight.is_none());
            }
        }
        let (soft, _) = p.evaluate(&assignment);
        Self { assignment, sat_count, unsat, hard_unsat, soft }
    }

    /// The change in satisfied effective weight if `var` flipped, scored
    /// over its occurrences in order.
    fn flip_gain(&self, var: usize, occs: &[Occ], eff: &[f64]) -> f64 {
        let mut delta = 0.0;
        for o in occs {
            let count = self.sat_count[o.clause];
            let was_sat = count > 0;
            let new_sat = if self.assignment[var] == o.first_positive { count > 1 } else { true };
            if was_sat && !new_sat {
                delta -= eff[o.clause];
            } else if !was_sat && new_sat {
                delta += eff[o.clause];
            }
        }
        delta
    }

    /// Flip `var` and update every count its occurrences touch. Literals
    /// that become true are counted before those that become false, so a
    /// clause holding both polarities never passes through zero and
    /// changes state at most once.
    fn flip(&mut self, var: usize, occs: &[Occ], clauses: &[Clause]) {
        let now = !self.assignment[var];
        self.assignment[var] = now;
        for o in occs.iter().filter(|o| o.positive == now) {
            self.sat_count[o.clause] += 1;
            if self.sat_count[o.clause] == 1 {
                self.unsat.remove(o.clause);
                match clauses[o.clause].weight {
                    Some(w) => self.soft += w,
                    None => self.hard_unsat -= 1,
                }
            }
        }
        for o in occs.iter().filter(|o| o.positive != now) {
            self.sat_count[o.clause] -= 1;
            if self.sat_count[o.clause] == 0 {
                self.unsat.insert(o.clause);
                match clauses[o.clause].weight {
                    Some(w) => self.soft -= w,
                    None => self.hard_unsat += 1,
                }
            }
        }
    }

    /// Replace the incumbent when this assignment is better: hard
    /// feasibility first, then soft weight.
    fn offer(&self, best: &mut Option<MaxSatSolution>) {
        let hard_ok = self.hard_unsat == 0;
        let better = match best.as_ref() {
            None => true,
            Some(b) => {
                (hard_ok && !b.hard_ok) || (hard_ok == b.hard_ok && self.soft > b.soft_weight)
            }
        };
        if better {
            *best = Some(MaxSatSolution {
                assignment: self.assignment.clone(),
                soft_weight: self.soft,
                hard_ok,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference flip loop the incremental one replaced: every flip
    /// rebuilds the unsatisfied list from all clauses, finds each
    /// occurrence's first literal on the variable with `find`, recounts
    /// every clause of the flipped variable and re-evaluates the whole
    /// problem.
    fn naive_local_search(
        p: &MaxSatProblem,
        seed: u64,
        flips: usize,
        restarts: usize,
        observe: &mut dyn FnMut(usize, f64, bool),
    ) -> MaxSatSolution {
        let mut rng = StdRng::seed_from_u64(seed);
        let hard_w = p.total_soft_weight() + 1.0;
        let eff = |c: &Clause| c.weight.unwrap_or(hard_w);

        let mut occurs: Vec<Vec<usize>> = vec![Vec::new(); p.n_vars];
        for (ci, c) in p.clauses.iter().enumerate() {
            for l in &c.lits {
                occurs[l.var].push(ci);
            }
        }

        let mut best: Option<MaxSatSolution> = None;
        let consider = |best: &mut Option<MaxSatSolution>,
                        assignment: &[bool],
                        soft: f64,
                        hard_ok: bool| {
            let better = match best.as_ref() {
                None => true,
                Some(b) => {
                    (hard_ok && !b.hard_ok) || (hard_ok == b.hard_ok && soft > b.soft_weight)
                }
            };
            if better {
                *best = Some(MaxSatSolution {
                    assignment: assignment.to_vec(),
                    soft_weight: soft,
                    hard_ok,
                });
            }
        };
        for restart in 0..restarts.max(1) {
            let mut assignment: Vec<bool> = (0..p.n_vars).map(|_| rng.gen()).collect();
            let mut sat_count: Vec<usize> = p
                .clauses
                .iter()
                .map(|c| c.lits.iter().filter(|l| l.satisfied_by(&assignment)).count())
                .collect();
            let (s0, h0) = p.evaluate(&assignment);
            consider(&mut best, &assignment, s0, h0);

            for _ in 0..flips {
                let unsat: Vec<usize> =
                    (0..p.clauses.len()).filter(|&ci| sat_count[ci] == 0).collect();
                if unsat.is_empty() {
                    break;
                }
                let total_w: f64 = unsat.iter().map(|&ci| eff(&p.clauses[ci])).sum();
                let mut pick = rng.gen::<f64>() * total_w;
                let mut chosen = unsat[0];
                for &ci in &unsat {
                    pick -= eff(&p.clauses[ci]);
                    if pick <= 0.0 {
                        chosen = ci;
                        break;
                    }
                }

                let flip_var = if rng.gen::<f64>() < 0.2 {
                    p.clauses[chosen].lits[rng.gen_range(0..p.clauses[chosen].lits.len())].var
                } else {
                    let mut best_var = p.clauses[chosen].lits[0].var;
                    let mut best_delta = f64::NEG_INFINITY;
                    for l in &p.clauses[chosen].lits {
                        let mut delta = 0.0;
                        for &ci in &occurs[l.var] {
                            let c = &p.clauses[ci];
                            let was_sat = sat_count[ci] > 0;
                            let lit_in_c = c.lits.iter().find(|x| x.var == l.var).unwrap();
                            let lit_now = lit_in_c.satisfied_by(&assignment);
                            let new_sat = if lit_now { sat_count[ci] - 1 > 0 } else { true };
                            if was_sat && !new_sat {
                                delta -= eff(c);
                            } else if !was_sat && new_sat {
                                delta += eff(c);
                            }
                        }
                        if delta > best_delta {
                            best_delta = delta;
                            best_var = l.var;
                        }
                    }
                    best_var
                };

                assignment[flip_var] = !assignment[flip_var];
                for &ci in &occurs[flip_var] {
                    sat_count[ci] = p.clauses[ci]
                        .lits
                        .iter()
                        .filter(|l| l.satisfied_by(&assignment))
                        .count();
                }
                let (soft, hard_ok) = p.evaluate(&assignment);
                consider(&mut best, &assignment, soft, hard_ok);
            }
            if let Some(b) = &best {
                observe(restart, b.soft_weight, b.hard_ok);
            }
        }
        best.expect("at least one restart ran")
    }

    /// Random instances of 20–300 variables. About three quarters of the
    /// variables get a soft unit clause of each polarity, so some clause
    /// stays unsatisfied and every walk runs all its flips. The other
    /// clauses hold 1–40 literals, half of them at most 3, and a literal
    /// repeats the previous variable of its clause a quarter of the time,
    /// with either polarity: short clauses like `x ∨ ¬x ∨ y` are where the
    /// greedy score's first-literal rule matters. Soft weights are k/4 for
    /// k in 1..=20.
    fn walk_instance() -> impl Strategy<Value = MaxSatProblem> {
        let weight = || (1u32..21).prop_map(|k| f64::from(k) / 4.0);
        (20usize..301).prop_flat_map(move |n_vars| {
            let units = prop::collection::vec(prop::option::of((weight(), weight())), n_vars);
            let clauses = prop::collection::vec(
                (
                    prop::collection::vec((0..n_vars, any::<bool>(), 0u32..4), 1..41),
                    any::<bool>(),
                    prop::option::of(weight()),
                ),
                1..120,
            );
            (units, clauses).prop_map(move |(units, clauses)| {
                let mut p = MaxSatProblem::new(n_vars);
                for (v, pair) in units.into_iter().enumerate() {
                    if let Some((w_pos, w_neg)) = pair {
                        p.add(Clause::soft(vec![Lit::pos(v)], w_pos).unwrap()).unwrap();
                        p.add(Clause::soft(vec![Lit::neg(v)], w_neg).unwrap()).unwrap();
                    }
                }
                for (draws, short, weight) in clauses {
                    let len = if short { draws.len().min(3) } else { draws.len() };
                    let mut lits: Vec<Lit> = Vec::with_capacity(len);
                    for (v, positive, repeat) in draws.into_iter().take(len) {
                        let var = match lits.last() {
                            Some(prev) if repeat == 0 => prev.var,
                            _ => v,
                        };
                        lits.push(Lit { var, positive });
                    }
                    let clause = match weight {
                        Some(w) => Clause::soft(lits, w).unwrap(),
                        None => Clause::hard(lits),
                    };
                    p.add(clause).unwrap();
                }
                p
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn walk_matches_naive_oracle_bit_for_bit(
            p in walk_instance(),
            seed in 0u64..1_000_000,
            flips in 0usize..1500,
            restarts in 1usize..4,
        ) {
            let mut seen = Vec::new();
            let got = p.solve_local_search_observed(seed, flips, restarts, &mut |r, w, ok| {
                seen.push((r, w.to_bits(), ok));
            });
            let mut want_seen = Vec::new();
            let want = naive_local_search(&p, seed, flips, restarts, &mut |r, w, ok| {
                want_seen.push((r, w.to_bits(), ok));
            });
            prop_assert_eq!(&got.assignment, &want.assignment);
            prop_assert_eq!(got.soft_weight.to_bits(), want.soft_weight.to_bits());
            prop_assert_eq!(got.hard_ok, want.hard_ok);
            prop_assert_eq!(seen, want_seen);
        }
    }

    #[test]
    fn exact_simple_instance() {
        // hard: x0 ∨ x1; soft: ¬x0 (w=2), ¬x1 (w=1) → best: x1 true, x0 false
        let mut p = MaxSatProblem::new(2);
        p.add(Clause::hard(vec![Lit::pos(0), Lit::pos(1)])).unwrap();
        p.add(Clause::soft(vec![Lit::neg(0)], 2.0).unwrap()).unwrap();
        p.add(Clause::soft(vec![Lit::neg(1)], 1.0).unwrap()).unwrap();
        let s = p.solve_exact();
        assert!(s.hard_ok);
        assert_eq!(s.assignment, vec![false, true]);
        assert_eq!(s.soft_weight, 2.0);
    }

    #[test]
    fn exact_prefers_hard_feasibility() {
        // hard: x0; soft: ¬x0 with giant weight — hard must still win.
        let mut p = MaxSatProblem::new(1);
        p.add(Clause::hard(vec![Lit::pos(0)])).unwrap();
        p.add(Clause::soft(vec![Lit::neg(0)], 1e9).unwrap()).unwrap();
        let s = p.solve_exact();
        assert!(s.hard_ok);
        assert!(s.assignment[0]);
        assert_eq!(s.soft_weight, 0.0);
    }

    #[test]
    fn local_search_matches_exact_on_small() {
        let mut p = MaxSatProblem::new(6);
        // chain of implications as hard clauses + soft preferences
        for v in 0..5 {
            p.add(Clause::hard(vec![Lit::neg(v), Lit::pos(v + 1)])).unwrap(); // v → v+1
        }
        p.add(Clause::soft(vec![Lit::pos(0)], 3.0).unwrap()).unwrap();
        p.add(Clause::soft(vec![Lit::neg(5)], 1.0).unwrap()).unwrap();
        let exact = p.solve_exact();
        let ls = p.solve_local_search(1, 2000, 8);
        assert!(ls.hard_ok);
        assert!((ls.soft_weight - exact.soft_weight).abs() < 1e-9);
    }

    #[test]
    fn solve_dispatches_to_local_search_for_large() {
        let n = 40;
        let mut p = MaxSatProblem::new(n);
        for v in 0..n {
            p.add(Clause::soft(vec![Lit::pos(v)], 1.0).unwrap()).unwrap();
        }
        let s = p.solve(123);
        // all-soft instance: everything satisfiable
        assert!(s.hard_ok);
        assert!((s.soft_weight - n as f64).abs() < 1e-9);
    }

    #[test]
    fn unsatisfiable_hard_reported() {
        let mut p = MaxSatProblem::new(1);
        p.add(Clause::hard(vec![Lit::pos(0)])).unwrap();
        p.add(Clause::hard(vec![Lit::neg(0)])).unwrap();
        let s = p.solve_exact();
        assert!(!s.hard_ok);
    }

    #[test]
    fn malformed_clauses_rejected_as_errors() {
        let mut p = MaxSatProblem::new(1);
        assert_eq!(p.add(Clause::hard(vec![])), Err(MaxSatError::EmptyClause));
        assert_eq!(
            p.add(Clause::hard(vec![Lit::pos(3)])),
            Err(MaxSatError::VarOutOfRange { var: 3, n_vars: 1 })
        );
        assert_eq!(
            Clause::soft(vec![Lit::pos(0)], 0.0).unwrap_err(),
            MaxSatError::NonPositiveWeight
        );
        assert_eq!(
            Clause::soft(vec![Lit::pos(0)], f64::NAN).unwrap_err(),
            MaxSatError::NonPositiveWeight
        );
        // rejected clauses must not have been recorded
        assert_eq!(p.n_clauses(), 0);
    }

    #[test]
    fn weights_bias_solution() {
        // x0 in conflict between soft(+x0, 5) and soft(-x0, 1)
        let mut p = MaxSatProblem::new(1);
        p.add(Clause::soft(vec![Lit::pos(0)], 5.0).unwrap()).unwrap();
        p.add(Clause::soft(vec![Lit::neg(0)], 1.0).unwrap()).unwrap();
        let s = p.solve_exact();
        assert!(s.assignment[0]);
        assert_eq!(s.soft_weight, 5.0);
    }
}
