//! Dataset registry: one handle per benchmark dataset with its
//! paper-documented configuration (resolving attributes for CRD,
//! inadmissible attributes for Salimi, default sizes).

use fairlens_frame::Dataset;

/// The four benchmark datasets of the paper (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// UCI Adult: income prediction, sensitive = sex.
    Adult,
    /// ProPublica COMPAS: recidivism, sensitive = race.
    Compas,
    /// UCI German credit: credit risk, sensitive = sex.
    German,
    /// UCI Taiwan credit default, sensitive = sex.
    Credit,
}

/// All four datasets, in the paper's presentation order.
pub const ALL_DATASETS: [DatasetKind; 4] = [
    DatasetKind::Adult,
    DatasetKind::Compas,
    DatasetKind::German,
    DatasetKind::Credit,
];

impl DatasetKind {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Adult => "Adult",
            DatasetKind::Compas => "COMPAS",
            DatasetKind::German => "German",
            DatasetKind::Credit => "Credit",
        }
    }

    /// The paper's documented row count (Fig. 9).
    pub fn default_rows(self) -> usize {
        match self {
            DatasetKind::Adult => crate::adult::DEFAULT_ROWS,
            DatasetKind::Compas => crate::compas::DEFAULT_ROWS,
            DatasetKind::German => crate::german::DEFAULT_ROWS,
            DatasetKind::Credit => crate::credit::DEFAULT_ROWS,
        }
    }

    /// Generate `n` rows with the given seed.
    pub fn generate(self, n: usize, seed: u64) -> Dataset {
        match self {
            DatasetKind::Adult => crate::adult::adult(n, seed),
            DatasetKind::Compas => crate::compas::compas(n, seed),
            DatasetKind::German => crate::german::german(n, seed),
            DatasetKind::Credit => crate::credit::credit(n, seed),
        }
    }

    /// Generate at the paper's documented size.
    pub fn generate_default(self, seed: u64) -> Dataset {
        self.generate(self.default_rows(), seed)
    }

    /// Resolving attributes `R` for the CRD metric — attributes that depend
    /// on `S` in non-discriminatory ways. For Adult the paper names
    /// occupation and working hours explicitly (Section 4.2).
    pub fn resolving_attrs(self) -> &'static [&'static str] {
        match self {
            DatasetKind::Adult => &["occupation", "hours_per_week"],
            DatasetKind::Compas => &["priors_count", "charge_degree"],
            DatasetKind::German => &["employment_since", "job"],
            DatasetKind::Credit => &["utilization", "delinq_history"],
        }
    }

    /// Inadmissible attributes `I` for Salimi's justifiable fairness — the
    /// paper uses race / gender / marital-relationship status whenever
    /// applicable; everything else is admissible.
    ///
    /// This is the per-dataset configuration the experiment runner applies
    /// when instantiating the two Salimi variants, so callers no longer
    /// thread an `&[&str]` through every registry call.
    pub fn salimi_inadmissible(self) -> &'static [&'static str] {
        match self {
            DatasetKind::Adult => &["race", "marital_status", "relationship"],
            DatasetKind::Compas => &["sex", "marital_status"],
            DatasetKind::German => &["housing"],
            DatasetKind::Credit => &["marriage"],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rows_match_paper() {
        assert_eq!(DatasetKind::Adult.default_rows(), 45_222);
        assert_eq!(DatasetKind::Compas.default_rows(), 7_214);
        assert_eq!(DatasetKind::German.default_rows(), 1_000);
        assert_eq!(DatasetKind::Credit.default_rows(), 20_651);
    }

    #[test]
    fn generate_respects_n() {
        for kind in ALL_DATASETS {
            let d = kind.generate(250, 1);
            assert_eq!(d.n_rows(), 250, "{}", kind.name());
        }
    }

    #[test]
    fn resolving_attrs_exist_in_schema() {
        for kind in ALL_DATASETS {
            let d = kind.generate(50, 1);
            for attr in kind.resolving_attrs() {
                assert!(
                    d.column_by_name(attr).is_ok(),
                    "{}: missing resolving attr {attr}",
                    kind.name()
                );
            }
            for attr in kind.salimi_inadmissible() {
                assert!(
                    d.column_by_name(attr).is_ok(),
                    "{}: missing inadmissible attr {attr}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn attr_counts_match_paper() {
        assert_eq!(DatasetKind::Adult.generate(50, 1).n_attrs(), 14);
        assert_eq!(DatasetKind::Compas.generate(50, 1).n_attrs(), 11);
        assert_eq!(DatasetKind::German.generate(50, 1).n_attrs(), 9);
        assert_eq!(DatasetKind::Credit.generate(50, 1).n_attrs(), 26);
    }
}
