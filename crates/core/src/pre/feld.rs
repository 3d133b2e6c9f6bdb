//! Feld^DP — Feldman et al.'s disparate-impact removal (paper A.1.2).
//!
//! Repairs each numeric attribute independently so its marginal
//! distribution becomes indistinguishable across the sensitive groups: the
//! value at quantile `q` within group `s` is moved towards the *median
//! distribution* — the per-quantile median of the group-conditional
//! distributions (for two groups, their midpoint). A repair level
//! `λ ∈ [0, 1]` interpolates between the original value (`λ = 0`) and the
//! fully repaired one (`λ = 1`); the paper evaluates `λ = 1.0` and
//! `λ = 0.6`.
//!
//! Categorical attributes are repaired probabilistically: each group's
//! level distribution is moved towards the pooled distribution, and tuples
//! are re-assigned levels with exactly the transport probabilities that
//! realise the target marginal (Feldman et al.'s combinatorial repair, in
//! its randomised form).
//!
//! A numeric column's quantiles come from one sort of each group's rows and
//! one sweep over that order, and the repaired columns replace the
//! originals in one step, so a repair costs `O(n log n)` per column and one
//! dataset copy.

use fairlens_frame::{Column, Dataset};
use rand::rngs::StdRng;
use rand::Rng;

use crate::error::CoreError;
use crate::pipeline::Preprocessor;

/// The Feldman et al. disparate-impact remover.
#[derive(Debug, Clone)]
pub struct Feld {
    /// Repair amount `λ ∈ [0, 1]`.
    pub lambda: f64,
}

impl Feld {
    /// Create a repairer with the given `λ`.
    ///
    /// # Panics
    /// Panics if `λ ∉ [0, 1]`.
    pub fn new(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "λ must be in [0, 1]");
        Self { lambda }
    }

    /// Repair one numeric column against the group labels.
    ///
    /// Each group's rows are sorted by value once; one sweep over that
    /// order then gives every tie block its mid-rank `(lo + hi) / 2`, and
    /// with it the quantile `q = rank / |group|` of each of its values.
    /// The sort is stable and `==` ties `-0.0` with `0.0`, so the sorted
    /// values and the tie blocks are bit for bit those of sorting the
    /// values themselves.
    fn repair_column(&self, values: &[f64], sensitive: &[u8]) -> Vec<f64> {
        let mut order: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (r, &s) in sensitive.iter().enumerate() {
            order[s as usize].push(r);
        }
        if order[0].is_empty() || order[1].is_empty() {
            return values.to_vec(); // single-group data: nothing to equalise
        }
        for rows in order.iter_mut() {
            rows.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
        }
        // Per-group sorted values for the quantile lookups.
        let groups: [Vec<f64>; 2] =
            order.each_ref().map(|rows| rows.iter().map(|&r| values[r]).collect());

        // Target = midpoint of the two group-conditional quantile values.
        let mut out = vec![0.0; values.len()];
        for (rows, own) in order.iter().zip(&groups) {
            let mut lo = 0;
            while lo < own.len() {
                let hi = lo + own[lo..].iter().take_while(|&&x| x == own[lo]).count();
                let rank = (lo + hi) as f64 / 2.0;
                let q = rank / own.len() as f64;
                let target = 0.5 * (quantile(&groups[0], q) + quantile(&groups[1], q));
                for &r in &rows[lo..hi] {
                    out[r] = (1.0 - self.lambda) * values[r] + self.lambda * target;
                }
                lo = hi;
            }
        }
        out
    }
}

/// The per-row mid-rank [`Feld::repair_column`] replaced: two binary
/// searches of the row's value in its own sorted group.
#[cfg(test)]
fn repair_column_by_search(lambda: f64, values: &[f64], sensitive: &[u8]) -> Vec<f64> {
    let mut groups: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (&v, &s) in values.iter().zip(sensitive.iter()) {
        groups[s as usize].push(v);
    }
    for g in groups.iter_mut() {
        g.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    if groups[0].is_empty() || groups[1].is_empty() {
        return values.to_vec();
    }
    values
        .iter()
        .zip(sensitive.iter())
        .map(|(&v, &s)| {
            let own = &groups[s as usize];
            let lo = own.partition_point(|&x| x < v);
            let hi = own.partition_point(|&x| x <= v);
            let rank = (lo + hi) as f64 / 2.0;
            let q = rank / own.len() as f64;
            let target = 0.5 * (quantile(&groups[0], q) + quantile(&groups[1], q));
            (1.0 - lambda) * v + lambda * target
        })
        .collect()
}

/// Value at quantile `q ∈ [0, 1]` of an ascending-sorted slice (nearest
/// rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).floor() as usize).min(sorted.len() - 1);
    sorted[idx]
}

impl Feld {
    /// Repair one categorical column: move each group's level marginal
    /// towards the pooled marginal. A tuple keeps its level with probability
    /// `min(1, target_p / group_p)`; otherwise it is re-assigned among the
    /// under-represented levels proportionally to their deficits.
    fn repair_categorical(
        &self,
        codes: &[u32],
        n_levels: usize,
        sensitive: &[u8],
        rng: &mut StdRng,
    ) -> Vec<u32> {
        let n = codes.len();
        // group-conditional and pooled level distributions
        let mut group_counts = [vec![0.0f64; n_levels], vec![0.0f64; n_levels]];
        let mut group_n = [0.0f64; 2];
        for (&c, &s) in codes.iter().zip(sensitive.iter()) {
            group_counts[s as usize][c as usize] += 1.0;
            group_n[s as usize] += 1.0;
        }
        if group_n[0] == 0.0 || group_n[1] == 0.0 {
            return codes.to_vec();
        }
        let pooled: Vec<f64> = (0..n_levels)
            .map(|l| (group_counts[0][l] + group_counts[1][l]) / n as f64)
            .collect();

        // per-group keep probability and deficit distribution
        let mut keep = [vec![1.0f64; n_levels], vec![1.0f64; n_levels]];
        let mut deficit = [vec![0.0f64; n_levels], vec![0.0f64; n_levels]];
        for s in 0..2 {
            for l in 0..n_levels {
                let p_group = group_counts[s][l] / group_n[s];
                let target = (1.0 - self.lambda) * p_group + self.lambda * pooled[l];
                if p_group > target {
                    keep[s][l] = if p_group > 0.0 { target / p_group } else { 1.0 };
                } else {
                    deficit[s][l] = target - p_group;
                }
            }
        }

        codes
            .iter()
            .zip(sensitive.iter())
            .map(|(&c, &s)| {
                let s = s as usize;
                if rng.gen::<f64>() < keep[s][c as usize] {
                    return c;
                }
                // re-assign proportionally to the deficits
                let total: f64 = deficit[s].iter().sum();
                if total <= 0.0 {
                    return c;
                }
                let mut u = rng.gen::<f64>() * total;
                for (l, &d) in deficit[s].iter().enumerate() {
                    u -= d;
                    if u <= 0.0 {
                        return l as u32;
                    }
                }
                c
            })
            .collect()
    }
}

impl Preprocessor for Feld {
    /// The classifier is trained without `S`: Feldman et al.'s doctrine is
    /// that after repair the model must not see the protected attribute.
    fn include_sensitive_in_model(&self) -> bool {
        false
    }

    fn repair(&self, train: &Dataset, rng: &mut StdRng) -> Result<Dataset, CoreError> {
        let columns = train
            .columns()
            .iter()
            .map(|column| match column {
                Column::Numeric(values) => {
                    Column::Numeric(self.repair_column(values, train.sensitive()))
                }
                Column::Categorical { codes, levels } => Column::Categorical {
                    codes: self.repair_categorical(codes, levels.len(), train.sensitive(), rng),
                    levels: levels.clone(),
                },
            })
            .collect();
        Ok(train.with_all_columns(columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A value with many ties: both zeros, small integers or anything.
    fn tied_value() -> impl Strategy<Value = f64> {
        (0u8..4, -3i32..4, -5.0f64..5.0).prop_map(|(kind, i, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from(i),
            _ => x,
        })
    }

    proptest! {
        /// The sort sweep gives every row the bits the per-row binary
        /// searches gave, ties and `±0.0` included.
        #[test]
        fn sweep_matches_search(
            rows in prop::collection::vec((tied_value(), 0u8..2), 1..80),
            lambda in (0usize..3, 0.0f64..=1.0).prop_map(|(k, x)| [1.0, 0.6, x][k]),
        ) {
            let (values, sensitive): (Vec<f64>, Vec<u8>) = rows.into_iter().unzip();
            let feld = Feld::new(lambda);
            prop_assert_eq!(
                bits(&feld.repair_column(&values, &sensitive)),
                bits(&repair_column_by_search(lambda, &values, &sensitive))
            );
        }

        /// All-equal columns and one-group data, where every row shares
        /// one tie block or nothing is equalised.
        #[test]
        fn sweep_matches_search_on_degenerate_columns(
            n in 1usize..50,
            v in tied_value(),
            group in 0u8..2,
            mixed in any::<bool>(),
        ) {
            let values = vec![v; n];
            let sensitive: Vec<u8> =
                (0..n).map(|i| if mixed { (i % 2) as u8 } else { group }).collect();
            for lambda in [1.0, 0.6] {
                prop_assert_eq!(
                    bits(&Feld::new(lambda).repair_column(&values, &sensitive)),
                    bits(&repair_column_by_search(lambda, &values, &sensitive))
                );
            }
        }
    }

    /// Groups with strongly shifted marginals on x.
    fn shifted(n: usize) -> Dataset {
        let mut x = Vec::new();
        let mut s = Vec::new();
        let mut y = Vec::new();
        let mut state = 77u64;
        let mut unif = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..n {
            let si = (i % 2) as u8;
            // group 1 shifted by +10
            x.push(unif() * 4.0 + if si == 1 { 10.0 } else { 0.0 });
            s.push(si);
            y.push(u8::from(unif() < 0.5));
        }
        Dataset::builder("sh")
            .numeric("x", x)
            .sensitive("s", s)
            .labels("y", y)
            .build()
            .unwrap()
    }

    fn group_mean(d: &Dataset, col: usize, g: u8) -> f64 {
        let v = d.column(col).as_numeric().unwrap();
        let (sum, cnt) = v
            .iter()
            .zip(d.sensitive().iter())
            .filter(|&(_, &s)| s == g)
            .fold((0.0, 0usize), |(a, c), (&x, _)| (a + x, c + 1));
        sum / cnt as f64
    }

    #[test]
    fn full_repair_equalises_marginals() {
        let d = shifted(2000);
        assert!(group_mean(&d, 0, 1) - group_mean(&d, 0, 0) > 9.0);
        let mut rng = StdRng::seed_from_u64(1);
        let r = Feld::new(1.0).repair(&d, &mut rng).unwrap();
        let gap = (group_mean(&r, 0, 1) - group_mean(&r, 0, 0)).abs();
        assert!(gap < 0.1, "gap after full repair: {gap}");
    }

    #[test]
    fn partial_repair_interpolates() {
        let d = shifted(2000);
        let mut rng = StdRng::seed_from_u64(1);
        let full_gap = group_mean(&d, 0, 1) - group_mean(&d, 0, 0);
        let r = Feld::new(0.6).repair(&d, &mut rng).unwrap();
        let gap = group_mean(&r, 0, 1) - group_mean(&r, 0, 0);
        // λ = 0.6 leaves 40 % of the gap
        assert!((gap - 0.4 * full_gap).abs() < 0.5, "gap {gap} vs {}", 0.4 * full_gap);
    }

    #[test]
    fn lambda_zero_is_identity() {
        let d = shifted(500);
        let mut rng = StdRng::seed_from_u64(1);
        let r = Feld::new(0.0).repair(&d, &mut rng).unwrap();
        assert_eq!(&r, &d);
    }

    #[test]
    fn repair_preserves_within_group_order() {
        // Rank-preservation is the key property of quantile repair.
        let d = shifted(400);
        let mut rng = StdRng::seed_from_u64(2);
        let r = Feld::new(1.0).repair(&d, &mut rng).unwrap();
        let orig = d.column(0).as_numeric().unwrap();
        let rep = r.column(0).as_numeric().unwrap();
        for g in 0..2u8 {
            let pairs: Vec<(f64, f64)> = orig
                .iter()
                .zip(rep.iter())
                .zip(d.sensitive().iter())
                .filter(|&(_, &s)| s == g)
                .map(|((&o, &r), _)| (o, r))
                .collect();
            for w in 0..pairs.len() {
                for v in (w + 1)..pairs.len() {
                    if pairs[w].0 < pairs[v].0 {
                        assert!(
                            pairs[w].1 <= pairs[v].1 + 1e-9,
                            "order violated within group {g}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn categorical_marginals_equalised() {
        // Group 0 concentrated in level 0, group 1 in level 1.
        let n = 4000;
        let codes: Vec<u32> = (0..n).map(|i| ((i % 2) == 1) as u32).collect();
        let s: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let d = Dataset::builder("c")
            .categorical("c", codes, vec!["a".into(), "b".into()])
            .sensitive("s", s)
            .labels("y", (0..n).map(|i| ((i / 2) % 2) as u8).collect())
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let r = Feld::new(1.0).repair(&d, &mut rng).unwrap();
        let rc = r.column(0).as_codes().unwrap();
        let rate = |g: u8| {
            let (hits, tot) = rc
                .iter()
                .zip(r.sensitive().iter())
                .filter(|&(_, &sv)| sv == g)
                .fold((0usize, 0usize), |(h, t), (&c, _)| (h + c as usize, t + 1));
            hits as f64 / tot as f64
        };
        // both groups should land near the pooled 50/50 marginal
        assert!((rate(0) - 0.5).abs() < 0.06, "group0 rate {}", rate(0));
        assert!((rate(1) - 0.5).abs() < 0.06, "group1 rate {}", rate(1));
    }

    #[test]
    fn already_balanced_categorical_untouched_mostly() {
        let n = 2000;
        let codes: Vec<u32> = (0..n).map(|i| ((i / 2) % 2) as u32).collect();
        let s: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let d = Dataset::builder("c")
            .categorical("c", codes.clone(), vec!["a".into(), "b".into()])
            .sensitive("s", s)
            .labels("y", vec![0; n])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let r = Feld::new(1.0).repair(&d, &mut rng).unwrap();
        let changed = r
            .column(0)
            .as_codes()
            .unwrap()
            .iter()
            .zip(codes.iter())
            .filter(|&(a, b)| a != b)
            .count();
        assert!((changed as f64 / n as f64) < 0.05, "changed {changed}");
    }

    #[test]
    #[should_panic(expected = "λ must be in")]
    fn invalid_lambda_rejected() {
        let _ = Feld::new(1.5);
    }
}
