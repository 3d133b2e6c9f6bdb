//! Hardt^EO — equalized odds post-processing (Hardt, Price & Srebro;
//! paper A.3.2).
//!
//! Learns a randomised *derived predictor* `Ỹ` from `(Ŷ, S)`: four mixing
//! probabilities `p_{s,ŷ} = Pr(Ỹ = 1 | Ŷ = ŷ, S = s)`. The derived rates
//! are linear in `p`,
//!
//! ```text
//! TPR̃_s = p_{s,1}·TPR_s + p_{s,0}·(1 − TPR_s)
//! FPR̃_s = p_{s,1}·FPR_s + p_{s,0}·(1 − FPR_s)
//! ```
//!
//! so equalizing them across groups while minimising expected loss is a
//! linear program — solved here with the workspace's own two-phase simplex.

use fairlens_solver::{LinearProgram, LpError};
use rand::rngs::StdRng;
use rand::Rng;

use crate::error::CoreError;
use crate::pipeline::Postprocessor;
use crate::snapshot::Adjuster;

/// The Hardt et al. equalized-odds post-processor.
#[derive(Debug, Clone, Default)]
pub struct Hardt;

/// The fitted derived predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct HardtRule {
    /// `p[s][ŷ] = Pr(Ỹ = 1 | Ŷ = ŷ, S = s)`.
    pub p: [[f64; 2]; 2],
}

impl HardtRule {
    /// Draw `Ỹ` per row from the mixing probability of its `(S, Ŷ)` cell.
    pub fn adjust(&self, probs: &[f64], sensitive: &[u8], rng: &mut StdRng) -> Vec<u8> {
        probs
            .iter()
            .zip(sensitive.iter())
            .map(|(&prob, &s)| {
                let yhat = usize::from(prob >= 0.5);
                let flip_to_one = self.p[s as usize][yhat];
                u8::from(rng.gen::<f64>() < flip_to_one)
            })
            .collect()
    }

    /// `Pr(Ỹ = 1)` per row.
    pub fn scores(&self, probs: &[f64], sensitive: &[u8]) -> Vec<f64> {
        // Pr(Ỹ = 1) is exactly the mixing probability of the (s, ŷ) cell.
        probs
            .iter()
            .zip(sensitive.iter())
            .map(|(&prob, &s)| self.p[s as usize][usize::from(prob >= 0.5)])
            .collect()
    }
}

impl Hardt {
    /// Solve the equalized-odds LP and return the concrete rule.
    pub fn solve_rule(
        probs: &[f64],
        y: &[u8],
        sensitive: &[u8],
    ) -> Result<HardtRule, CoreError> {
        // Group statistics of the base classifier.
        let mut tp = [0.0f64; 2];
        let mut fp = [0.0f64; 2];
        let mut pos = [0.0f64; 2]; // #(Y=1)
        let mut neg = [0.0f64; 2];
        for i in 0..probs.len() {
            let s = sensitive[i] as usize;
            let pred = u8::from(probs[i] >= 0.5);
            if y[i] == 1 {
                pos[s] += 1.0;
                tp[s] += pred as f64;
            } else {
                neg[s] += 1.0;
                fp[s] += pred as f64;
            }
        }
        if pos.iter().chain(neg.iter()).any(|&c| c == 0.0) {
            return Err(CoreError::BadInput(
                "Hardt needs positives and negatives in both groups".into(),
            ));
        }
        let tpr = [tp[0] / pos[0], tp[1] / pos[1]];
        let fpr = [fp[0] / neg[0], fp[1] / neg[1]];
        let n = probs.len() as f64;

        // Variables x = [p_{0,0}, p_{0,1}, p_{1,0}, p_{1,1}] ∈ [0,1]⁴.
        let var = |s: usize, yhat: usize| s * 2 + yhat;
        // Expected 0/1 loss:
        //   Σ_s [ P(Y=1, s)·(1 − TPR̃_s) + P(Y=0, s)·FPR̃_s ]
        // linear coefficients on x (constant terms dropped).
        let mut c = vec![0.0f64; 4];
        for s in 0..2 {
            let w_pos = pos[s] / n;
            let w_neg = neg[s] / n;
            // TPR̃_s = x[s,1]·tpr + x[s,0]·(1−tpr); loss −w_pos·TPR̃_s
            c[var(s, 1)] += -w_pos * tpr[s] + w_neg * fpr[s];
            c[var(s, 0)] += -w_pos * (1.0 - tpr[s]) + w_neg * (1.0 - fpr[s]);
        }

        // Equalized-odds equalities: TPR̃_0 = TPR̃_1, FPR̃_0 = FPR̃_1.
        let mut tpr_row = vec![0.0; 4];
        tpr_row[var(0, 1)] = tpr[0];
        tpr_row[var(0, 0)] = 1.0 - tpr[0];
        tpr_row[var(1, 1)] = -tpr[1];
        tpr_row[var(1, 0)] = -(1.0 - tpr[1]);
        let mut fpr_row = vec![0.0; 4];
        fpr_row[var(0, 1)] = fpr[0];
        fpr_row[var(0, 0)] = 1.0 - fpr[0];
        fpr_row[var(1, 1)] = -fpr[1];
        fpr_row[var(1, 0)] = -(1.0 - fpr[1]);

        let mut lp = LinearProgram::minimize(c)
            .eq(tpr_row, 0.0)
            .eq(fpr_row, 0.0);
        for v in 0..4 {
            let mut row = vec![0.0; 4];
            row[v] = 1.0;
            lp = lp.le(row, 1.0);
        }
        let sol = lp.solve().map_err(|e: LpError| {
            CoreError::Infeasible(format!("Hardt equalized-odds LP: {e}"))
        })?;

        Ok(HardtRule {
            p: [[sol.x[0], sol.x[1]], [sol.x[2], sol.x[3]]],
        })
    }
}

impl Postprocessor for Hardt {
    fn fit(
        &self,
        probs: &[f64],
        y: &[u8],
        sensitive: &[u8],
        _rng: &mut StdRng,
    ) -> Result<Adjuster, CoreError> {
        Ok(Adjuster::Hardt(Self::solve_rule(probs, y, sensitive)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_metrics::{tnr_balance, tpr_balance};
    use rand::SeedableRng;

    /// Base probabilities with very different group error profiles.
    fn odds_gap(n: usize) -> (Vec<f64>, Vec<u8>, Vec<u8>) {
        let mut probs = Vec::new();
        let mut y = Vec::new();
        let mut s = Vec::new();
        let mut state = 3u64;
        let mut unif = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..n {
            let si = u8::from(unif() < 0.5);
            let yi = u8::from(unif() < 0.5);
            // privileged: accurate probs; unprivileged: compressed towards 0
            let p = match (si, yi) {
                (1, 1) => 0.8,
                (1, 0) => 0.2,
                (0, 1) => 0.55, // barely over threshold
                _ => 0.35,
            } + 0.05 * (unif() - 0.5);
            probs.push(p.clamp(0.01, 0.99));
            y.push(yi);
            s.push(si);
        }
        (probs, y, s)
    }

    #[test]
    fn derived_predictor_equalizes_odds() {
        let (probs, y, s) = odds_gap(20_000);
        let mut rng = StdRng::seed_from_u64(1);
        let base: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let base_tprb = tpr_balance(&y, &base, &s).abs();

        let rule = Hardt.fit(&probs, &y, &s, &mut rng).unwrap();
        let adjusted = rule.adjust(&probs, &s, &mut rng);
        let tprb = tpr_balance(&y, &adjusted, &s).abs();
        let tnrb = tnr_balance(&y, &adjusted, &s).abs();
        assert!(tprb < base_tprb.max(0.05), "TPRB {base_tprb} → {tprb}");
        assert!(tprb < 0.06, "TPRB after Hardt: {tprb}");
        assert!(tnrb < 0.06, "TNRB after Hardt: {tnrb}");
    }

    #[test]
    fn mixing_probabilities_are_valid() {
        let (probs, y, s) = odds_gap(5000);
        let rule = Hardt::solve_rule(&probs, &y, &s).unwrap();
        for s_idx in 0..2 {
            for yhat in 0..2 {
                let p = rule.p[s_idx][yhat];
                assert!((0.0..=1.0 + 1e-9).contains(&p), "p[{s_idx}][{yhat}] = {p}");
            }
        }
        // keeping a positive prediction should be likelier than promoting a
        // negative one
        assert!(rule.p[1][1] >= rule.p[1][0] - 1e-9);
    }

    #[test]
    fn already_fair_base_passes_through_mostly() {
        // Identical error profiles per group → optimal LP keeps predictions.
        let mut probs = Vec::new();
        let mut y = Vec::new();
        let mut s = Vec::new();
        for i in 0..4000 {
            let si = (i % 2) as u8;
            let yi = ((i / 2) % 2) as u8;
            probs.push(if yi == 1 { 0.85 } else { 0.15 });
            y.push(yi);
            s.push(si);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let rule = Hardt.fit(&probs, &y, &s, &mut rng).unwrap();
        let adjusted = rule.adjust(&probs, &s, &mut rng);
        let agree = adjusted
            .iter()
            .zip(probs.iter())
            .filter(|&(&a, &p)| a == u8::from(p >= 0.5))
            .count() as f64
            / probs.len() as f64;
        assert!(agree > 0.95, "agreement {agree}");
    }

    #[test]
    fn degenerate_groups_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        // group 1 has no negative examples
        let probs = [0.9, 0.8, 0.1];
        let y = [1, 1, 0];
        let s = [1, 1, 0];
        assert!(Hardt.fit(&probs, &y, &s, &mut rng).is_err());
    }
}
