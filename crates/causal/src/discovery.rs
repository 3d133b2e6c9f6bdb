//! Order-based constraint (PC-lite) structure discovery.
//!
//! Given a causal order over the variables (the "knowledge tiers" fed to
//! TETRAD in the paper: `S` before the attributes before `Y`), each node's
//! parent set is found by backward elimination: start from all preceding
//! variables that show marginal dependence, then repeatedly drop any
//! candidate that is conditionally independent of the node given the
//! remaining candidates. This is the order-restricted variant of the PC
//! algorithm's skeleton phase, and is sound under the ordering assumption.

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

        // Marginal screen: keep candidates that are dependent on v, ranked
        // by evidence strength (ascending p-value).
        let mut candidates: Vec<(usize, f64)> = preceding
            .iter()
            .filter_map(|&p| {
                let r = chi2_ci_test(data, p, v, &[]);
                (!r.independent(opts.alpha)).then_some((p, r.p_value))
            })
            .collect();
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let mut parents: Vec<usize> = candidates.iter().map(|&(p, _)| p).collect();

        // PC-style edge removal: a candidate parent p is dropped as soon
        // as *any* conditioning subset of the remaining candidates (size
        // ≤ max_condition) renders it independent of v — the IC/PC
        // separating-set criterion. The subset enumeration sets the number
        // of tests (about 1 900–2 700 per Credit 4 000×14 draw); each test
        // counts the rows one column at a time, so discovery costs about
        // tests × rows × (|z| + 2).
        let mut changed = true;
        while changed {
            changed = false;
            let snapshot = parents.clone();
            for &p in &snapshot {
                let others: Vec<usize> =
                    parents.iter().copied().filter(|&q| q != p).collect();
                let mut separated = false;
                'subsets: for size in 1..=opts.max_condition.min(others.len()) {
                    for z in subsets(&others, size) {
                        let r = chi2_ci_test(data, p, v, &z);
                        if r.independent(opts.alpha) {
                            separated = true;
                            break 'subsets;
                        }
                    }
                }
                if separated {
                    parents.retain(|&q| q != p);
                    changed = true;
                }
            }
        }

        // Cap the parent count, keeping the strongest (earliest-ranked).
        parents.truncate(opts.max_parents);
        for p in parents {
            dag.add_edge(p, v);
        }
    }
    dag
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
