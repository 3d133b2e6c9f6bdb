//! BLAS-1 style kernels over `&[f64]` slices.
//!
//! All functions assert matching lengths in debug builds; in release builds
//! the zip-based iteration truncates to the shorter slice, so callers must
//! uphold the length contract (every call site in this workspace does — the
//! lengths come from a shared [`crate::Matrix`] shape).
//!
//! [`dot`] and [`axpy`] route through the blocked implementations in
//! [`crate::kernels`]; their numerical contracts vs the `*_naive`
//! references are documented there.

/// Dot product `xᵀy` (unrolled multi-accumulator; see
/// [`crate::kernels::dot`] for the summation-order contract).
///
/// # Panics
/// Debug-asserts `x.len() == y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    crate::kernels::dot(x, y)
}

/// `y ← y + alpha * x` (the classic AXPY update; element-wise, bit-exact
/// under unrolling — see [`crate::kernels::axpy`]).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    crate::kernels::axpy(alpha, x, y)
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise sum `x + y` into a fresh vector.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `x - y` into a fresh vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a - b).collect()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// ℓ∞ norm `max |xᵢ|`; returns `0.0` for the empty slice.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Arithmetic mean; returns `0.0` for the empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (divides by `n`); returns `0.0` for slices of length < 2.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn stddev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Index of the maximum element (first occurrence); `None` if empty or all-NaN.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, b)) if v <= b => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the minimum element (first occurrence); `None` if empty or all-NaN.
pub fn argmin(x: &[f64]) -> Option<usize> {
    let neg: Vec<f64> = x.iter().map(|v| -v).collect();
    argmax(&neg)
}

/// Numerically-stable logistic sigmoid `1 / (1 + e^{-z})`.
///
/// Uses the two-branch formulation so that large `|z|` never evaluates
/// `exp` of a large positive argument (which would overflow to `inf`).
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// `log(1 + e^z)` computed without overflow (a.k.a. softplus).
#[inline]
pub fn log1p_exp(z: f64) -> f64 {
    if z > 0.0 {
        z + (-z).exp().ln_1p()
    } else {
        z.exp().ln_1p()
    }
}

/// `(sigmoid(z), log1p_exp(z))` from one `exp(−|z|)`: the same branches
/// and the same operations as the two separate calls, so both halves are
/// bit-identical to them for every input (±0, ±∞ and NaN included).
#[inline]
pub fn sigmoid_softplus(z: f64) -> (f64, f64) {
    if z > 0.0 {
        let e = (-z).exp();
        (1.0 / (1.0 + e), z + e.ln_1p())
    } else {
        // At z = ±0, `sigmoid` takes its `z >= 0` branch on exp(−z) = 1,
        // which is exp(z) here.
        let e = z.exp();
        let s = if z >= 0.0 { 1.0 / (1.0 + e) } else { e / (1.0 + e) };
        (s, e.ln_1p())
    }
}

/// Clamp a probability into the open interval `(eps, 1 - eps)` so that
/// downstream `ln` calls stay finite.
#[inline]
pub fn clamp_prob(p: f64, eps: f64) -> f64 {
    p.max(eps).min(1.0 - eps)
}

/// Pearson correlation between two slices; `0.0` when either side is constant.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    let (mx, my) = (mean(x), mean(y));
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        let (da, db) = (a - mx, b - my);
        sxy += da * db;
        sxx += da * da;
        syy += db * db;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        0.0
    } else {
        sxy / (sxx.sqrt() * syy.sqrt())
    }
}

/// Weighted mean with weights `w`; returns `0.0` when the total weight is 0.
pub fn weighted_mean(x: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), w.len(), "weighted_mean: length mismatch");
    let tw: f64 = w.iter().sum();
    if tw <= 0.0 {
        return 0.0;
    }
    dot(x, w) / tw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = [1.0, 2.0];
        let y = [0.5, -0.5];
        assert_eq!(sub(&add(&x, &y), &y), x.to_vec());
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn mean_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn argmax_argmin() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmin(&[1.0, 3.0, 2.0]), Some(0));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(800.0) <= 1.0 && sigmoid(800.0) > 0.999);
        assert!(sigmoid(-800.0) >= 0.0 && sigmoid(-800.0) < 1e-6);
        assert!(sigmoid(800.0).is_finite());
        assert!(sigmoid(-800.0).is_finite());
    }

    #[test]
    fn log1p_exp_matches_naive_in_safe_range() {
        for &z in &[-5.0_f64, -1.0, 0.0, 1.0, 5.0] {
            let naive = (1.0_f64 + z.exp()).ln();
            assert!((log1p_exp(z) - naive).abs() < 1e-12);
        }
        assert!(log1p_exp(1000.0).is_finite());
        assert!((log1p_exp(1000.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn sigmoid_softplus_is_bit_identical_to_the_separate_calls() {
        let mut zs = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            36.7,
            -36.7,
            709.8,
            -709.8,
            745.2,
            -745.2,
            1e300,
            -1e300,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bits = state;
            zs.push(f64::from_bits(bits));
            zs.push(((bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 80.0);
        }
        for z in zs {
            let (s, sp) = sigmoid_softplus(z);
            assert_eq!(s.to_bits(), sigmoid(z).to_bits(), "sigmoid({z:e})");
            assert_eq!(sp.to_bits(), log1p_exp(z).to_bits(), "log1p_exp({z:e})");
        }
    }

    #[test]
    fn pearson_perfect_and_constant() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let yn: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &yn) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0; 4]), 0.0);
    }

    #[test]
    fn weighted_mean_basic() {
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1.0, 1.0]), 2.0);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[0.0, 2.0]), 3.0);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn clamp_prob_bounds() {
        assert_eq!(clamp_prob(-0.2, 1e-9), 1e-9);
        assert_eq!(clamp_prob(1.5, 1e-9), 1.0 - 1e-9);
        assert_eq!(clamp_prob(0.25, 1e-9), 0.25);
    }
}
