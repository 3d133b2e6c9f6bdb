//! Order-based constraint (PC-lite) structure discovery.
//!
//! Given a causal order over the variables (the "knowledge tiers" fed to
//! TETRAD in the paper: `S` before the attributes before `Y`), each node's
//! parent set is found by backward elimination: start from all preceding
//! variables that show marginal dependence, then drop, in one pass over
//! them, each candidate that is conditionally independent of the node
//! given the remaining candidates. This is the order-restricted variant of
//! the PC algorithm's skeleton phase, and is sound under the ordering
//! assumption.

use crate::data::CausalData;
use crate::graph::Dag;
use crate::independence::chi2_ci_test;

/// Options for [`discover_dag`].
#[derive(Debug, Clone)]
pub struct DiscoveryOptions {
    /// Significance level for the χ² tests (paper-aligned default 0.05).
    pub alpha: f64,
    /// Cap on the parent set size per node (keeps CPTs estimable).
    pub max_parents: usize,
    /// Cap on the conditioning-set size per test (keeps strata populated).
    pub max_condition: usize,
}

impl Default for DiscoveryOptions {
    fn default() -> Self {
        Self { alpha: 0.05, max_parents: 4, max_condition: 3 }
    }
}

/// Discover a DAG over `data` consistent with `order`.
///
/// # Panics
/// Panics if `order` is not a permutation of the variables.
pub fn discover_dag(data: &CausalData, order: &[usize], opts: &DiscoveryOptions) -> Dag {
    let n = data.n_vars();
    assert_eq!(order.len(), n, "order must cover every variable");
    {
        let mut seen = vec![false; n];
        for &v in order {
            assert!(!seen[v], "order must be a permutation");
            seen[v] = true;
        }
    }

    let mut dag = Dag::new(n);
    for (k, &v) in order.iter().enumerate() {
        let preceding = &order[..k];
        if preceding.is_empty() {
            continue;
        }
        let ranked = marginal_screen(data, preceding, v, opts.alpha);
        let mut independent =
            |p: usize, z: &[usize]| chi2_ci_test(data, p, v, z).independent(opts.alpha);
        let mut parents = prune_parents(ranked, opts.max_condition, &mut independent);

        // Cap the parent count, keeping the strongest (earliest-ranked).
        parents.truncate(opts.max_parents);
        for p in parents {
            dag.add_edge(p, v);
        }
    }
    dag
}

/// Marginal screen: the preceding variables that are dependent on `v`,
/// ranked by evidence strength (ascending p-value).
fn marginal_screen(data: &CausalData, preceding: &[usize], v: usize, alpha: f64) -> Vec<usize> {
    let mut candidates: Vec<(usize, f64)> = preceding
        .iter()
        .filter_map(|&p| {
            let r = chi2_ci_test(data, p, v, &[]);
            (!r.independent(alpha)).then_some((p, r.p_value))
        })
        .collect();
    candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    candidates.into_iter().map(|(p, _)| p).collect()
}

/// PC-style edge removal: a candidate parent `p` is dropped as soon as
/// *any* conditioning subset of the remaining candidates (size
/// ≤ `max_condition`) renders it independent of the node — the IC/PC
/// separating-set criterion. `independent(p, z)` runs one test.
///
/// One pass in ranking order suffices. The remaining candidates only
/// shrink and `retain` keeps their order, so every subset a second pass
/// could test for a surviving `p` was already tested for it, and found
/// dependent, in this pass.
///
/// The subset enumeration sets the number of tests (900–1 500 conditional
/// tests per Credit 2 800×14 training split); each test counts the rows one
/// column at a time, so discovery costs about tests × rows × (|z| + 2).
fn prune_parents(
    mut parents: Vec<usize>,
    max_condition: usize,
    independent: &mut impl FnMut(usize, &[usize]) -> bool,
) -> Vec<usize> {
    for p in parents.clone() {
        if separated(p, &parents, max_condition, independent) {
            parents.retain(|&q| q != p);
        }
    }
    parents
}

/// Whether some subset of `parents \ {p}` of size 1..=`max_condition`
/// separates `p` from the node; subsets are tried smallest first, each size
/// in lexicographic order, stopping at the first separating one.
fn separated(
    p: usize,
    parents: &[usize],
    max_condition: usize,
    independent: &mut impl FnMut(usize, &[usize]) -> bool,
) -> bool {
    let others: Vec<usize> = parents.iter().copied().filter(|&q| q != p).collect();
    (1..=max_condition.min(others.len()))
        .any(|size| subsets(&others, size).iter().any(|z| independent(p, z)))
}

/// All `size`-element subsets of `items` (lexicographic).
fn subsets(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..size).collect();
    if size > items.len() {
        return out;
    }
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // advance the combination
        let mut k = size;
        loop {
            if k == 0 {
                return out;
            }
            k -= 1;
            if idx[k] < items.len() - (size - k) {
                idx[k] += 1;
                for j in (k + 1)..size {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The elimination loop [`prune_parents`] replaced: repeat passes until
    /// one removes nothing.
    fn prune_parents_fixpoint(
        mut parents: Vec<usize>,
        max_condition: usize,
        independent: &mut impl FnMut(usize, &[usize]) -> bool,
    ) -> Vec<usize> {
        let mut changed = true;
        while changed {
            changed = false;
            for p in parents.clone() {
                if separated(p, &parents, max_condition, independent) {
                    parents.retain(|&q| q != p);
                    changed = true;
                }
            }
        }
        parents
    }

    /// Random discrete data: each variable copies an earlier one with
    /// probability `link`, else draws uniformly from its cardinality.
    fn random_data(vars: usize, rows: usize, link: f64, seed: u64) -> CausalData {
        let mut rng = StdRng::seed_from_u64(seed);
        let cards: Vec<u32> = (0..vars).map(|_| rng.gen_range(2..4)).collect();
        let mut columns: Vec<Vec<u32>> = Vec::with_capacity(vars);
        for v in 0..vars {
            let col = (0..rows)
                .map(|r| {
                    if v > 0 && rng.gen::<f64>() < link {
                        columns[rng.gen_range(0..v)][r] % cards[v]
                    } else {
                        rng.gen_range(0..cards[v])
                    }
                })
                .collect();
            columns.push(col);
        }
        let names = (0..vars).map(|v| format!("x{v}")).collect();
        CausalData::from_columns(columns, cards, names)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random discrete data the single pass keeps, for every node,
        /// the parents the fixpoint loop kept, in the same order (so the
        /// same DAG), and never runs more CI tests.
        #[test]
        fn single_pass_matches_the_fixpoint_loop(
            vars in 3usize..8,
            rows in 60usize..400,
            link in 0.0f64..0.9,
            max_condition in 1usize..4,
            seed in any::<u64>(),
        ) {
            let data = random_data(vars, rows, link, seed);
            let order = data.default_order();
            for k in 1..order.len() {
                let v = order[k];
                let ranked = marginal_screen(&data, &order[..k], v, 0.05);
                let (mut once, mut fix) = (0usize, 0usize);
                let single = prune_parents(ranked.clone(), max_condition, &mut |p, z: &[usize]| {
                    once += 1;
                    chi2_ci_test(&data, p, v, z).independent(0.05)
                });
                let looped = prune_parents_fixpoint(ranked, max_condition, &mut |p, z: &[usize]| {
                    fix += 1;
                    chi2_ci_test(&data, p, v, z).independent(0.05)
                });
                prop_assert_eq!(single, looped);
                prop_assert!(once <= fix, "{} tests vs {}", once, fix);
            }
        }

        /// The argument does not depend on the χ² test: any fixed verdict
        /// per `(p, z)` gives the same survivors.
        #[test]
        fn single_pass_matches_for_any_fixed_test(
            n in 0usize..9,
            max_condition in 1usize..4,
            salt in any::<u64>(),
        ) {
            let verdict = |p: usize, z: &[usize]| {
                let h = z.iter().fold(salt ^ p as u64, |h, &q| {
                    (h ^ q as u64).wrapping_mul(0x0100_0000_01b3)
                });
                h % 5 == 0
            };
            let ranked: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % 11).collect();
            prop_assert_eq!(
                prune_parents(ranked.clone(), max_condition, &mut { verdict }),
                prune_parents_fixpoint(ranked, max_condition, &mut { verdict })
            );
        }
    }

    /// Simulate the chain S → A → Y with strong links plus an independent
    /// noise variable N.
    fn chain_data(n: usize, seed: u64) -> CausalData {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Vec::with_capacity(n);
        let mut a = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut noise = Vec::with_capacity(n);
        for _ in 0..n {
            let sv: u32 = rng.gen_range(0..2);
            let av = if rng.gen::<f64>() < 0.85 { sv } else { 1 - sv };
            let yv = if rng.gen::<f64>() < 0.85 { av } else { 1 - av };
            s.push(sv);
            a.push(av);
            y.push(yv);
            noise.push(rng.gen_range(0..2));
        }
        // layout: [a, noise, S, Y]
        CausalData::from_columns(
            vec![a, noise, s, y],
            vec![2, 2, 2, 2],
            vec!["a".into(), "noise".into(), "S".into(), "Y".into()],
        )
    }

    #[test]
    fn recovers_chain_structure() {
        let data = chain_data(4000, 1);
        let dag = discover_dag(&data, &data.default_order(), &DiscoveryOptions::default());
        // order = [S, a, noise, Y] = [2, 0, 1, 3]
        assert!(dag.has_edge(2, 0), "S → a missing");
        assert!(dag.has_edge(0, 3), "a → Y missing");
        // conditioned on a, S ⊥ Y → no direct S → Y edge
        assert!(!dag.has_edge(2, 3), "spurious direct S → Y edge");
        // the noise variable stays isolated
        assert!(dag.parents(1).is_empty());
        assert!(!dag.has_edge(1, 3));
    }

    #[test]
    fn independent_data_yields_sparse_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 2000;
        let cols: Vec<Vec<u32>> = (0..4)
            .map(|_| (0..n).map(|_| rng.gen_range(0..2)).collect())
            .collect();
        let data = CausalData::from_columns(
            cols,
            vec![2, 2, 2, 2],
            vec!["a".into(), "b".into(), "S".into(), "Y".into()],
        );
        let dag = discover_dag(&data, &data.default_order(), &DiscoveryOptions::default());
        // With alpha = 0.05 a few false edges are possible but the graph
        // must be nearly empty.
        assert!(dag.n_edges() <= 1, "edges = {}", dag.n_edges());
    }

    #[test]
    fn subset_enumeration_is_complete() {
        let items = [10, 20, 30, 40];
        let s2 = subsets(&items, 2);
        assert_eq!(s2.len(), 6);
        assert!(s2.contains(&vec![10, 40]));
        assert_eq!(subsets(&items, 5).len(), 0);
        assert_eq!(subsets(&items, 1).len(), 4);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_rejected() {
        let data = chain_data(100, 5);
        let _ = discover_dag(&data, &[0, 0, 1, 2], &DiscoveryOptions::default());
    }
}
