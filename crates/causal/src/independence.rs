//! χ² conditional-independence testing on discrete data.

use crate::data::CausalData;
use crate::gamma::chi2_sf;

/// Result of a conditional-independence test.
#[derive(Debug, Clone, Copy)]
pub struct Chi2Result {
    /// The χ² statistic summed over conditioning strata.
    pub statistic: f64,
    /// Total degrees of freedom.
    pub dof: f64,
    /// Tail probability `Pr(χ²(dof) > statistic)`.
    pub p_value: f64,
}

impl Chi2Result {
    /// Whether the test *fails to reject* independence at level `alpha`
    /// (i.e. the variables look conditionally independent).
    pub fn independent(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Test `X_a ⊥ X_b | Z` on `data` with Pearson's χ² over each `Z`-stratum.
///
/// Strata with fewer than `2` rows are skipped; zero-margin rows/columns
/// within a stratum do not contribute degrees of freedom. When no stratum is
/// testable the result reports `p_value = 1` (no evidence of dependence).
///
/// The rows are counted column-at-a-time into a dense cube over
/// `(Z-stratum, a, b)`, and the strata are summed in ascending key order,
/// so a test has one fixed result. When the cube over every possible
/// stratum would exceed `max(4n, 2^16)` cells, the conditioning key is
/// first compacted to the ranks of the keys present (at most `n` strata).
pub fn chi2_ci_test(data: &CausalData, a: usize, b: usize, z: &[usize]) -> Chi2Result {
    chi2_ci_test_capped(data, a, b, z, (4 * data.n_rows()).max(1 << 16))
}

/// [`chi2_ci_test`] with the cube cap as a parameter, so that tests can
/// drive the rank-compaction path on small tables.
fn chi2_ci_test_capped(
    data: &CausalData,
    a: usize,
    b: usize,
    z: &[usize],
    cap: usize,
) -> Chi2Result {
    assert_ne!(a, b, "chi2_ci_test: identical variables");
    let ca = data.cards[a] as usize;
    let cb = data.cards[b] as usize;
    let cells = ca * cb;
    let cap = cap.min(u32::MAX as usize);

    // Cell index of every row: (a, b) first, then the stratum, one
    // conditioning column at a time (the mixed-radix key of `z`), or its
    // rank among the keys present when every possible key would not fit.
    let mut idx = ab_index(data, a, b);
    let all_strata = z
        .iter()
        .try_fold(cells, |size, &zv| size.checked_mul(data.cards[zv] as usize))
        .filter(|&size| size <= cap);
    let n_strata = match all_strata {
        Some(size) => {
            let mut stride = cells as u32;
            for &zv in z.iter().rev() {
                for (i, &code) in idx.iter_mut().zip(&data.columns[zv]) {
                    *i += code * stride;
                }
                stride *= data.cards[zv];
            }
            size / cells.max(1)
        }
        None => {
            let (ranks, n_strata) = stratum_ranks(data, z);
            let fits = n_strata
                .checked_mul(cells)
                .is_some_and(|s| s <= u32::MAX as usize);
            assert!(fits, "chi2_ci_test: {n_strata} strata × {cells} cells overflow u32");
            for (i, rank) in idx.iter_mut().zip(ranks) {
                *i += rank * cells as u32;
            }
            n_strata
        }
    };
    let mut counts = vec![0u32; n_strata * cells];
    for &i in &idx {
        counts[i as usize] += 1;
    }

    let mut statistic = 0.0;
    let mut dof = 0.0;
    let mut table = vec![0.0f64; cells];
    for stratum in counts.chunks_exact(cells.max(1)) {
        let rows: u32 = stratum.iter().sum();
        if rows < 2 {
            continue;
        }
        // contingency table of (a, b) within the stratum
        for (t, &c) in table.iter_mut().zip(stratum) {
            *t = c as f64;
        }
        let total: f64 = rows as f64;
        let row_sums: Vec<f64> = (0..ca)
            .map(|i| (0..cb).map(|j| table[i * cb + j]).sum())
            .collect();
        let col_sums: Vec<f64> = (0..cb)
            .map(|j| (0..ca).map(|i| table[i * cb + j]).sum())
            .collect();
        let live_rows = row_sums.iter().filter(|&&v| v > 0.0).count();
        let live_cols = col_sums.iter().filter(|&&v| v > 0.0).count();
        if live_rows < 2 || live_cols < 2 {
            continue;
        }
        for i in 0..ca {
            if row_sums[i] == 0.0 {
                continue;
            }
            for j in 0..cb {
                if col_sums[j] == 0.0 {
                    continue;
                }
                let expect = row_sums[i] * col_sums[j] / total;
                let diff = table[i * cb + j] - expect;
                statistic += diff * diff / expect;
            }
        }
        dof += ((live_rows - 1) * (live_cols - 1)) as f64;
    }

    if dof <= 0.0 {
        return Chi2Result { statistic: 0.0, dof: 0.0, p_value: 1.0 };
    }
    Chi2Result { statistic, dof, p_value: chi2_sf(statistic, dof) }
}

/// `a · cb + b` for every row: the cell of `(a, b)` within its stratum.
fn ab_index(data: &CausalData, a: usize, b: usize) -> Vec<u32> {
    let cb = data.cards[b];
    data.columns[a]
        .iter()
        .zip(&data.columns[b])
        .map(|(&va, &vb)| va * cb + vb)
        .collect()
}

/// Every row's conditioning key replaced by its rank among the keys
/// present, ascending (so the strata keep their key order), with the number
/// of distinct keys. The key grows one column at a time and is re-ranked
/// after each, which keeps it below `n · card` and the memory in O(n).
fn stratum_ranks(data: &CausalData, z: &[usize]) -> (Vec<u32>, usize) {
    let mut keys = vec![0u64; data.n_rows()];
    let mut present = vec![0u64];
    for &zv in z {
        let card = u64::from(data.cards[zv]);
        for (k, &code) in keys.iter_mut().zip(&data.columns[zv]) {
            *k = *k * card + u64::from(code);
        }
        present.clone_from(&keys);
        present.sort_unstable();
        present.dedup();
        for k in keys.iter_mut() {
            *k = present.partition_point(|&p| p < *k) as u64;
        }
    }
    (keys.into_iter().map(|k| k as u32).collect(), present.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::HashMap;

    fn make(columns: Vec<Vec<u32>>, cards: Vec<u32>) -> CausalData {
        let names = (0..columns.len()).map(|i| format!("v{i}")).collect();
        CausalData::from_columns(columns, cards, names)
    }

    /// The naive reference: rows grouped per stratum through a `HashMap`,
    /// one `push` per row, then the strata summed in ascending key order.
    fn chi2_ci_test_naive(data: &CausalData, a: usize, b: usize, z: &[usize]) -> Chi2Result {
        let n = data.n_rows();
        let ca = data.cards[a] as usize;
        let cb = data.cards[b] as usize;

        let mut strata: HashMap<u64, Vec<usize>> = HashMap::new();
        for r in 0..n {
            let mut key = 0u64;
            for &zv in z {
                key = key * data.cards[zv] as u64 + data.columns[zv][r] as u64;
            }
            strata.entry(key).or_default().push(r);
        }
        let mut keys: Vec<u64> = strata.keys().copied().collect();
        keys.sort_unstable();

        let mut statistic = 0.0;
        let mut dof = 0.0;
        for rows in keys.iter().map(|k| &strata[k]) {
            if rows.len() < 2 {
                continue;
            }
            let mut table = vec![0.0f64; ca * cb];
            for &r in rows {
                let ia = data.columns[a][r] as usize;
                let ib = data.columns[b][r] as usize;
                table[ia * cb + ib] += 1.0;
            }
            let total: f64 = rows.len() as f64;
            let row_sums: Vec<f64> = (0..ca)
                .map(|i| (0..cb).map(|j| table[i * cb + j]).sum())
                .collect();
            let col_sums: Vec<f64> = (0..cb)
                .map(|j| (0..ca).map(|i| table[i * cb + j]).sum())
                .collect();
            let live_rows = row_sums.iter().filter(|&&v| v > 0.0).count();
            let live_cols = col_sums.iter().filter(|&&v| v > 0.0).count();
            if live_rows < 2 || live_cols < 2 {
                continue;
            }
            for i in 0..ca {
                if row_sums[i] == 0.0 {
                    continue;
                }
                for j in 0..cb {
                    if col_sums[j] == 0.0 {
                        continue;
                    }
                    let expect = row_sums[i] * col_sums[j] / total;
                    let diff = table[i * cb + j] - expect;
                    statistic += diff * diff / expect;
                }
            }
            dof += ((live_rows - 1) * (live_cols - 1)) as f64;
        }

        if dof <= 0.0 {
            return Chi2Result { statistic: 0.0, dof: 0.0, p_value: 1.0 };
        }
        Chi2Result { statistic, dof, p_value: chi2_sf(statistic, dof) }
    }

    fn bits(r: Chi2Result) -> [u64; 3] {
        [r.statistic.to_bits(), r.dof.to_bits(), r.p_value.to_bits()]
    }

    /// A random table: `a`, `b`, then the conditioning columns. Each
    /// column draws its codes from a prefix of its domain, so codes that
    /// never occur (zero margins) are common.
    fn random_table(cards: &[u32], n: usize, seed: u64) -> CausalData {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns = cards
            .iter()
            .map(|&card| {
                let live = rng.gen_range(1..=card);
                (0..n).map(|_| rng.gen_range(0..live)).collect()
            })
            .collect();
        make(columns, cards.to_vec())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cube_matches_naive_oracle_bit_for_bit(
            cards in prop::collection::vec(2u32..9, 2..6),
            n in 0usize..301,
            seed in 0u64..1_000_000,
        ) {
            let data = random_table(&cards, n, seed);
            let z: Vec<usize> = (2..cards.len()).collect();
            let want = bits(chi2_ci_test_naive(&data, 0, 1, &z));
            prop_assert_eq!(bits(chi2_ci_test(&data, 0, 1, &z)), want, "dense cube");
            // A zero cap sends every test through the rank compaction.
            prop_assert_eq!(bits(chi2_ci_test_capped(&data, 0, 1, &z, 0)), want, "ranked");
        }
    }

    thread_local! {
        static LIVE: Cell<isize> = const { Cell::new(0) };
        static PEAK: Cell<isize> = const { Cell::new(0) };
    }

    /// The system allocator, tracking the bytes the current thread holds
    /// and their peak, so that a test can bound what one call allocates.
    struct CountingAlloc;

    fn track(delta: isize) {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + delta);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }

    // SAFETY: every call is forwarded unchanged to the system allocator,
    // which upholds the `GlobalAlloc` contract; the bookkeeping only
    // touches const-initialised thread-local cells, which never allocate.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: the caller's layout is passed through as received.
            let ptr = unsafe { System.alloc(layout) };
            if !ptr.is_null() {
                track(layout.size() as isize);
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `alloc` above with this `layout`.
            unsafe { System.dealloc(ptr, layout) };
            track(-(layout.size() as isize));
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Peak bytes the current thread allocates beyond what it held before
    /// running `f`.
    fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let base = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(base));
        let out = f();
        (out, (PEAK.with(Cell::get) - base) as usize)
    }

    #[test]
    fn huge_conditioning_domains_are_rank_compacted() {
        // Three conditioning columns of ~10⁶ codes: 8 · 8 · 10¹⁸ cells
        // overflow `usize`, so only the rank compaction can count them.
        let n = 3000;
        let mut rng = StdRng::seed_from_u64(11);
        let mut cards = vec![8, 8];
        let mut columns: Vec<Vec<u32>> = (0..2)
            .map(|_| (0..n).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        for card in [1_000_000, 999_983, 1_048_576] {
            // few distinct codes per column, so that strata hold rows
            let used: Vec<u32> = (0..6).map(|_| rng.gen_range(0..card)).collect();
            columns.push((0..n).map(|_| used[rng.gen_range(0..used.len())]).collect());
            cards.push(card);
        }
        let data = make(columns, cards);
        let z = [2, 3, 4];
        let (got, bytes) = peak_bytes(|| chi2_ci_test(&data, 0, 1, &z));
        let want = chi2_ci_test_naive(&data, 0, 1, &z);
        assert!(want.dof > 0.0, "the table must have testable strata");
        assert_eq!(bits(got), bits(want));
        // keys, present keys, ranks and cell indices, plus a cube of at
        // most n strata of 64 cells
        assert!(bytes <= 32 * n + 4 * 64 * n, "{bytes} bytes for {n} rows");
    }

    #[test]
    fn strongly_dependent_pair_rejected() {
        // b == a, 200 rows
        let a: Vec<u32> = (0..200).map(|i| (i % 2) as u32).collect();
        let b = a.clone();
        let data = make(vec![a, b], vec![2, 2]);
        let r = chi2_ci_test(&data, 0, 1, &[]);
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(!r.independent(0.05));
    }

    #[test]
    fn independent_pair_not_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let a: Vec<u32> = (0..500).map(|_| rng.gen_range(0..2)).collect();
        let b: Vec<u32> = (0..500).map(|_| rng.gen_range(0..3)).collect();
        let data = make(vec![a, b], vec![2, 3]);
        let r = chi2_ci_test(&data, 0, 1, &[]);
        assert!(r.independent(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn conditioning_explains_dependence() {
        // chain a → z → b: a and b are dependent marginally but independent
        // given z.
        let mut rng = StdRng::seed_from_u64(4);
        let n = 3000;
        let mut a = Vec::with_capacity(n);
        let mut zc = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for _ in 0..n {
            let av: u32 = rng.gen_range(0..2);
            // z strongly follows a
            let zv = if rng.gen::<f64>() < 0.9 { av } else { 1 - av };
            // b strongly follows z
            let bv = if rng.gen::<f64>() < 0.9 { zv } else { 1 - zv };
            a.push(av);
            zc.push(zv);
            b.push(bv);
        }
        let data = make(vec![a, zc, b], vec![2, 2, 2]);
        let marginal = chi2_ci_test(&data, 0, 2, &[]);
        assert!(!marginal.independent(0.01), "marginal p = {}", marginal.p_value);
        let conditional = chi2_ci_test(&data, 0, 2, &[1]);
        assert!(
            conditional.independent(0.01),
            "conditional p = {}",
            conditional.p_value
        );
    }

    #[test]
    fn degenerate_stratum_yields_p_one() {
        // constant b: no testable variation
        let a = vec![0, 1, 0, 1];
        let b = vec![0, 0, 0, 0];
        let data = make(vec![a, b], vec![2, 2]);
        let r = chi2_ci_test(&data, 0, 1, &[]);
        assert_eq!(r.p_value, 1.0);
        assert!(r.independent(0.05));
    }
}
