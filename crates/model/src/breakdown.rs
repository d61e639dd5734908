//! Parameter / operation breakdown (paper Fig. 4).
//!
//! Fig. 4 splits each workload's parameters and per-query operations into
//! *classification* (the final `l × d` layer) and *non-classification*
//! (input embedding + hidden layers). The figure's message: classifiers
//! consume a significant share for NLP tasks and become the bottleneck as
//! categories scale to millions.

use crate::workloads::{Workload, WorkloadId};

/// One row of the Fig. 4 breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Workload abbreviation.
    pub workload: &'static str,
    /// Classifier parameters.
    pub classifier_params: u64,
    /// Front-end (non-classification) parameters.
    pub front_end_params: u64,
    /// Classifier share of parameters in `[0, 1]`.
    pub param_fraction: f64,
    /// Classifier share of per-query operations in `[0, 1]`.
    pub ops_fraction: f64,
}

impl BreakdownRow {
    /// Computes the breakdown for one workload.
    pub fn for_workload(w: &Workload) -> Self {
        BreakdownRow {
            workload: w.abbr,
            classifier_params: w.classifier_params(),
            front_end_params: w.front_end.params(),
            param_fraction: w.classifier_param_fraction(),
            ops_fraction: w.classifier_ops_fraction(),
        }
    }
}

/// The full Fig. 4 table: the four Table 2 workloads plus the synthetic
/// scaling points that show classification becoming the bottleneck.
pub fn figure4_breakdown() -> Vec<BreakdownRow> {
    WorkloadId::table2()
        .iter()
        .chain(WorkloadId::scaling().iter())
        .map(|id| BreakdownRow::for_workload(&id.workload()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_seven_rows() {
        assert_eq!(figure4_breakdown().len(), 7);
    }

    #[test]
    fn fractions_in_unit_interval() {
        for row in figure4_breakdown() {
            assert!((0.0..=1.0).contains(&row.param_fraction), "{row:?}");
            assert!((0.0..=1.0).contains(&row.ops_fraction), "{row:?}");
        }
    }

    #[test]
    fn classification_share_grows_with_categories() {
        let rows = figure4_breakdown();
        let s1m = rows.iter().find(|r| r.workload == "S1M").unwrap();
        let s100m = rows.iter().find(|r| r.workload == "S100M").unwrap();
        assert!(s100m.param_fraction > s1m.param_fraction);
        assert!(s100m.param_fraction > 0.99);
    }

    #[test]
    fn nlp_workloads_have_significant_share() {
        let rows = figure4_breakdown();
        for abbr in ["LSTM-W33K", "Transformer-W268K", "GNMT-E32K"] {
            let r = rows.iter().find(|r| r.workload == abbr).unwrap();
            assert!(r.param_fraction > 0.15, "{abbr}: {}", r.param_fraction);
        }
    }
}
