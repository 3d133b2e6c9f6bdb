//! Property tests: blocked kernels vs their naive references (vendored
//! proptest stub: randomized case generation, no shrinking).
//!
//! The contracts under test, from `fairlens_linalg::kernels`:
//!
//! * `gemm`, `gram_weighted`, `gemv_t`, `axpy`, `transpose` are
//!   **bit-exact** against their `*_naive` references for any shape —
//!   including empty, 1×N, N×1, non-square, and zero-heavy inputs;
//! * `dot` (and therefore `gemv`, which is per-row `dot`) is
//!   **ulp-bounded**: the 8-accumulator reassociation stays within
//!   `1e-12 · Σ|xᵢyᵢ|` of the sequential sum (a handful of ulps of the
//!   condition-scaled magnitude);
//! * `gemv` output rows are **bit-identical** to single-row `dot` calls —
//!   the property that makes batched prediction agree row-for-row with
//!   single-row `predict_proba`, checked here end-to-end through
//!   `Matrix::matvec`.

use fairlens_linalg::{kernels, Matrix};
use proptest::prelude::*;

/// Random dimension including the empty and degenerate cases.
fn dims() -> impl Strategy<Value = usize> {
    0usize..35
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn dot_bound(x: &[f64], y: &[f64]) -> f64 {
    let scale: f64 = x.iter().zip(y).map(|(a, b)| (a * b).abs()).sum();
    1e-12 * scale + 1e-300
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_is_ulp_bounded_vs_naive(
        n in dims(),
        seed in 0u64..1_000_000,
    ) {
        let x: Vec<f64> = (0..n).map(|i| ((seed + i as u64) as f64).sin() * 50.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((seed * 3 + i as u64) as f64).cos() * 50.0).collect();
        let fast = kernels::dot(&x, &y);
        let naive = kernels::dot_naive(&x, &y);
        prop_assert!(
            (fast - naive).abs() <= dot_bound(&x, &y),
            "n={}: fast {} vs naive {}", n, fast, naive
        );
    }

    #[test]
    fn dot_is_ulp_bounded_on_zero_heavy_input(
        n in dims(),
        x in prop::collection::vec(prop::option::of(-10.0f64..10.0), 0..70),
    ) {
        let _ = n;
        let x: Vec<f64> = x.into_iter().map(|o| o.unwrap_or(0.0)).collect();
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        let fast = kernels::dot(&x, &y);
        let naive = kernels::dot_naive(&x, &y);
        prop_assert!((fast - naive).abs() <= dot_bound(&x, &y));
    }

    #[test]
    fn axpy_is_bit_exact(
        n in dims(),
        alpha in -5.0f64..5.0,
    ) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 3.0).collect();
        let mut fast: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut naive = fast.clone();
        kernels::axpy(alpha, &x, &mut fast);
        kernels::axpy_naive(alpha, &x, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    #[test]
    fn gemv_rows_are_bit_identical_to_single_dots(
        rows in dims(),
        cols in dims(),
    ) {
        let a: Vec<f64> = (0..rows * cols).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
        let x: Vec<f64> = (0..cols).map(|i| ((i * 5 % 13) as f64) * 0.25 - 1.0).collect();
        let mut out = vec![0.0; rows];
        kernels::gemv(rows, cols, &a, &x, &mut out);
        for r in 0..rows {
            prop_assert_eq!(
                out[r].to_bits(),
                kernels::dot(&a[r * cols..(r + 1) * cols], &x).to_bits(),
                "row {} of {}x{}", r, rows, cols
            );
        }
        // And ulp-bounded vs the naive reference as a whole.
        let mut naive = vec![0.0; rows];
        kernels::gemv_naive(rows, cols, &a, &x, &mut naive);
        for r in 0..rows {
            let bound = dot_bound(&a[r * cols..(r + 1) * cols], &x);
            prop_assert!((out[r] - naive[r]).abs() <= bound);
        }
    }

    #[test]
    fn gemv_t_is_bit_exact(
        rows in dims(),
        cols in dims(),
    ) {
        let a: Vec<f64> = (0..rows * cols).map(|i| ((i % 17) as f64) * 0.5 - 4.0).collect();
        let x: Vec<f64> = (0..rows).map(|i| if i % 3 == 0 { 0.0 } else { (i as f64).sin() }).collect();
        let mut fast = vec![0.0; cols];
        let mut naive = vec![0.0; cols];
        kernels::gemv_t(rows, cols, &a, &x, &mut fast);
        kernels::gemv_t_naive(rows, cols, &a, &x, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    #[test]
    fn gemm_is_bit_exact(
        m in dims(),
        k in 0usize..40,
        n in dims(),
    ) {
        let a: Vec<f64> = (0..m * k).map(|i| ((i % 19) as f64) * 0.3 - 2.0).collect();
        let b: Vec<f64> = (0..k * n).map(|i| if i % 4 == 0 { 0.0 } else { ((i % 11) as f64) - 5.0 }).collect();
        let mut fast = vec![0.0; m * n];
        let mut naive = vec![0.0; m * n];
        kernels::gemm(m, k, n, &a, &b, &mut fast);
        kernels::gemm_naive(m, k, n, &a, &b, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive), "{}x{}x{}", m, k, n);
    }

    #[test]
    fn gemm_is_bit_exact_across_panel_boundaries(
        k_extra in 0usize..70,
        n_extra in 0usize..10,
    ) {
        // Straddle the KC (256) and NC (128) blocking edges explicitly.
        let (m, k, n) = (5, 250 + k_extra, 125 + n_extra);
        let a: Vec<f64> = (0..m * k).map(|i| ((i % 29) as f64) * 0.11 - 1.5).collect();
        let b: Vec<f64> = (0..k * n).map(|i| ((i % 31) as f64) * 0.07 - 1.0).collect();
        let mut fast = vec![0.0; m * n];
        let mut naive = vec![0.0; m * n];
        kernels::gemm(m, k, n, &a, &b, &mut fast);
        kernels::gemm_naive(m, k, n, &a, &b, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive), "{}x{}x{}", m, k, n);
    }

    #[test]
    fn gram_weighted_is_bit_exact(
        rows in 0usize..300,
        cols in dims(),
        zero_stride in 2usize..6,
    ) {
        let a: Vec<f64> = (0..rows * cols)
            .map(|i| if i % zero_stride == 0 { 0.0 } else { ((i % 13) as f64) * 0.4 - 2.0 })
            .collect();
        // Include exact-zero weights (the historical kernel skipped them;
        // the references must agree without the skip).
        let w: Vec<f64> = (0..rows)
            .map(|i| if i % zero_stride == 1 { 0.0 } else { 0.01 + ((i % 7) as f64) * 0.3 })
            .collect();
        let mut fast = vec![0.0; cols * cols];
        let mut naive = vec![0.0; cols * cols];
        kernels::gram_weighted(rows, cols, &a, &w, &mut fast);
        kernels::gram_weighted_naive(rows, cols, &a, &w, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive), "{}x{}", rows, cols);
    }

    #[test]
    fn transpose_is_bit_exact_and_involutive(
        rows in dims(),
        cols in dims(),
    ) {
        let a: Vec<f64> = (0..rows * cols).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let mut fast = vec![0.0; rows * cols];
        let mut naive = vec![0.0; rows * cols];
        kernels::transpose(rows, cols, &a, &mut fast);
        kernels::transpose_naive(rows, cols, &a, &mut naive);
        prop_assert_eq!(bits(&fast), bits(&naive));
        let mut back = vec![0.0; rows * cols];
        kernels::transpose(cols, rows, &fast, &mut back);
        prop_assert_eq!(bits(&back), bits(&a));
    }

    #[test]
    fn batch_matvec_agrees_row_for_row_with_single_row(
        rows in 1usize..30,
        cols in 1usize..20,
        data in prop::collection::vec(prop::option::of(-50.0f64..50.0), 0..600),
    ) {
        // Build a rows×cols matrix from the (possibly short, zero-heavy)
        // pool, plus a weight vector — the model-scoring shape.
        let at = |i: usize| data.get(i % data.len().max(1)).copied().flatten().unwrap_or(0.0);
        let m = Matrix::from_vec(rows, cols, (0..rows * cols).map(at).collect());
        let w: Vec<f64> = (0..cols).map(|j| at(j * 31 + 7)).collect();
        // Batch scoring: one blocked GEMV over the whole matrix.
        let batch = m.matvec(&w);
        // Single-row scoring: a 1×cols matrix per row, as the per-request
        // serve path would do it.
        for (r, want) in batch.iter().enumerate() {
            let single = Matrix::from_vec(1, cols, m.row(r).to_vec());
            let one = single.matvec(&w);
            prop_assert_eq!(
                one[0].to_bits(), want.to_bits(),
                "row {} of {}x{}", r, rows, cols
            );
        }
    }
}

// The force-naive switch is process-global, so flipping it here could
// race the bit-equality cases above (a `gemv` call routed naive while its
// paired `dot` call routes fast). Its test lives in its own binary:
// `tests/force_naive.rs`.
