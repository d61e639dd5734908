//! The evaluated workloads (paper Table 2 + the synthetic scaling set).
//!
//! | Application     | Dataset      | Categories | Model       | Hidden | Abbr.             |
//! |-----------------|--------------|-----------:|-------------|-------:|-------------------|
//! | NLP             | Wikitext-2   |     33,278 | LSTM        |   1500 | LSTM-W33K         |
//! | NLP             | Wikitext-103 |    267,744 | Transformer |    512 | Transformer-W268K |
//! | NMT             | WMT16 en-de  |     32,317 | GNMT        |   1024 | GNMT-E32K         |
//! | Recommendation  | Amazon-670k  |    670,091 | XMLCNN      |    512 | XMLCNN-670K       |
//!
//! plus S1M / S10M / S100M with 1e6 / 1e7 / 1e8 categories (d = 512,
//! XMLCNN front-end) used for the scalability study (paper Fig. 15).

/// Task family of a workload, which determines the output normalization and the
/// quality metric: LM and NMT use softmax + perplexity/BLEU, recommendation
/// uses sigmoid + precision@k.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Language modeling (perplexity).
    LanguageModeling,
    /// Neural machine translation (BLEU proxy = top-1 agreement).
    Translation,
    /// Multi-label recommendation (precision@k).
    Recommendation,
}

/// Front-end (non-classification) model descriptor, used for the Fig. 4
/// breakdown and the end-to-end model of Fig. 15.
///
/// Parameter/operation counts are analytic estimates of the standard
/// architectures (documented per variant) — they only need to have the right
/// order of magnitude relative to the classifier, which is what Fig. 4 shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrontEnd {
    /// 2-layer LSTM language model (Merity et al.): per layer
    /// `4·(d·d + d·d)` weights, ×2 ops per weight per token.
    Lstm {
        /// Hidden width.
        hidden: usize,
        /// Number of stacked LSTM layers.
        layers: usize,
    },
    /// Transformer decoder stack (Vaswani et al.): per layer `12·d²`
    /// weights (QKVO + 2 FFN matrices at 4× width).
    Transformer {
        /// Model width `d`.
        hidden: usize,
        /// Number of decoder layers.
        layers: usize,
    },
    /// GNMT: 8-layer encoder + 8-layer decoder LSTM with attention.
    Gnmt {
        /// Hidden width.
        hidden: usize,
    },
    /// XML-CNN (Liu et al.): convolutional feature extractor + bottleneck.
    XmlCnn {
        /// Bottleneck (feature) width.
        hidden: usize,
    },
}

impl FrontEnd {
    /// Approximate trainable parameter count of the front-end (excluding
    /// the classification layer and input embeddings).
    pub fn params(&self) -> u64 {
        match *self {
            FrontEnd::Lstm { hidden, layers } => {
                // 4 gates, each with input + recurrent weight matrices.
                (8 * hidden * hidden * layers) as u64
            }
            FrontEnd::Transformer { hidden, layers } => (12 * hidden * hidden * layers) as u64,
            FrontEnd::Gnmt { hidden } => {
                // 8 encoder + 8 decoder LSTM layers + attention.
                (8 * hidden * hidden * 16 + 2 * hidden * hidden) as u64
            }
            FrontEnd::XmlCnn { hidden } => {
                // Convolutional filters + pooling + bottleneck; dominated by
                // the bottleneck projection in the original paper's config.
                (32 * hidden * hidden) as u64
            }
        }
    }

    /// Approximate multiply-accumulate operations to produce one hidden
    /// vector (one token / one query).
    pub fn ops_per_query(&self) -> u64 {
        // Dense layers: 1 MAC per weight per token.
        self.params()
    }
}

/// Identifier for each evaluated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// LSTM on Wikitext-2 (33K categories, d=1500).
    LstmW33K,
    /// Transformer on Wikitext-103 (268K categories, d=512).
    TransformerW268K,
    /// GNMT on WMT16 en-de (32K categories, d=1024).
    GnmtE32K,
    /// XMLCNN on Amazon-670k (670K categories, d=512).
    Xmlcnn670K,
    /// Synthetic 1M-category recommendation workload (Fig. 15).
    S1M,
    /// Synthetic 10M-category recommendation workload (Fig. 15).
    S10M,
    /// Synthetic 100M-category recommendation workload (Fig. 15).
    S100M,
}

impl WorkloadId {
    /// The four real workloads of Table 2, in the paper's order.
    pub fn table2() -> [WorkloadId; 4] {
        [
            WorkloadId::LstmW33K,
            WorkloadId::TransformerW268K,
            WorkloadId::GnmtE32K,
            WorkloadId::Xmlcnn670K,
        ]
    }

    /// The synthetic scaling workloads of Fig. 15.
    pub fn scaling() -> [WorkloadId; 3] {
        [WorkloadId::S1M, WorkloadId::S10M, WorkloadId::S100M]
    }
}

impl core::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.workload().abbr)
    }
}

/// A fully described workload: shapes, task type and front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Which workload this is.
    pub id: WorkloadId,
    /// Paper abbreviation, e.g. `"Transformer-W268K"`.
    pub abbr: &'static str,
    /// Number of classification categories `l`.
    pub categories: usize,
    /// Hidden dimension `d`.
    pub hidden: usize,
    /// Task family.
    pub task: TaskKind,
    /// Front-end model descriptor.
    pub front_end: FrontEnd,
}

impl Workload {
    /// Classifier weight parameter count (`l × d`, excluding bias).
    pub fn classifier_params(&self) -> u64 {
        self.categories as u64 * self.hidden as u64
    }

    /// Classifier FP32 weight bytes — the quantity plotted in Fig. 5(a).
    pub fn classifier_bytes(&self) -> u64 {
        self.classifier_params() * 4
    }

    /// MACs for one full classification (`l·d`).
    pub fn classifier_ops_per_query(&self) -> u64 {
        self.classifier_params()
    }

    /// Fraction of total parameters consumed by the classifier (Fig. 4).
    pub fn classifier_param_fraction(&self) -> f64 {
        let c = self.classifier_params() as f64;
        c / (c + self.front_end.params() as f64)
    }

    /// Fraction of per-query operations consumed by the classifier (Fig. 4).
    pub fn classifier_ops_fraction(&self) -> f64 {
        let c = self.classifier_ops_per_query() as f64;
        c / (c + self.front_end.ops_per_query() as f64)
    }
}

impl WorkloadId {
    /// Returns the full workload description (Table 2 constants).
    pub fn workload(self) -> Workload {
        match self {
            WorkloadId::LstmW33K => Workload {
                id: self,
                abbr: "LSTM-W33K",
                categories: 33_278,
                hidden: 1500,
                task: TaskKind::LanguageModeling,
                front_end: FrontEnd::Lstm { hidden: 1500, layers: 2 },
            },
            WorkloadId::TransformerW268K => Workload {
                id: self,
                abbr: "Transformer-W268K",
                categories: 267_744,
                hidden: 512,
                task: TaskKind::LanguageModeling,
                front_end: FrontEnd::Transformer { hidden: 512, layers: 6 },
            },
            WorkloadId::GnmtE32K => Workload {
                id: self,
                abbr: "GNMT-E32K",
                categories: 32_317,
                hidden: 1024,
                task: TaskKind::Translation,
                front_end: FrontEnd::Gnmt { hidden: 1024 },
            },
            WorkloadId::Xmlcnn670K => Workload {
                id: self,
                abbr: "XMLCNN-670K",
                categories: 670_091,
                hidden: 512,
                task: TaskKind::Recommendation,
                front_end: FrontEnd::XmlCnn { hidden: 512 },
            },
            WorkloadId::S1M => Workload {
                id: self,
                abbr: "S1M",
                categories: 1_000_000,
                hidden: 512,
                task: TaskKind::Recommendation,
                front_end: FrontEnd::XmlCnn { hidden: 512 },
            },
            WorkloadId::S10M => Workload {
                id: self,
                abbr: "S10M",
                categories: 10_000_000,
                hidden: 512,
                task: TaskKind::Recommendation,
                front_end: FrontEnd::XmlCnn { hidden: 512 },
            },
            WorkloadId::S100M => Workload {
                id: self,
                abbr: "S100M",
                categories: 100_000_000,
                hidden: 512,
                task: TaskKind::Recommendation,
                front_end: FrontEnd::XmlCnn { hidden: 512 },
            },
        }
    }
}

/// Algorithm-level evaluation shape for a workload: a representative slice
/// of the category space that fits comfortably in memory, with the hidden
/// dimension capped so the SVD baseline's `O(d³)` factorization stays
/// tractable. The caps preserve each workload's relative geometry (LSTM
/// keeps the widest hidden dimension, XMLCNN the most categories).
/// Performance experiments never use this — they use the nominal `(l, d)`.
pub fn eval_shape(w: &Workload) -> (usize, usize) {
    let (l_cap, d_cap) = match w.id {
        WorkloadId::LstmW33K => (4000, 256),
        WorkloadId::TransformerW268K => (5500, 224),
        WorkloadId::GnmtE32K => (4500, 240),
        _ => (6000, 192),
    };
    (w.categories.min(l_cap), w.hidden.min(d_cap))
}

/// Fraction of categories that must be computed exactly for each workload,
/// back-derived from the paper's Fig. 11 speedups via
/// `speedup ≈ 1 / (3.1% screening + candidate fraction)`.
pub fn candidate_fraction(id: WorkloadId) -> f64 {
    match id {
        WorkloadId::LstmW33K => 0.144,         // 5.7×
        WorkloadId::TransformerW268K => 0.128, // 6.3×
        WorkloadId::GnmtE32K => 0.054,         // 11.8×
        WorkloadId::Xmlcnn670K => 0.020,       // 17.4× ("candidates reduced by 50×")
        // Quality needs a roughly fixed *absolute* top-K candidate set, so
        // the fraction decays as the synthetic catalogues scale (this is
        // what lets ENMC's streaming advantage widen in Fig. 15).
        WorkloadId::S1M => 0.015,
        WorkloadId::S10M => 0.006,
        WorkloadId::S100M => 0.0025,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shapes_match_paper() {
        let w = WorkloadId::TransformerW268K.workload();
        assert_eq!(w.categories, 267_744);
        assert_eq!(w.hidden, 512);
        let w = WorkloadId::LstmW33K.workload();
        assert_eq!(w.categories, 33_278);
        assert_eq!(w.hidden, 1500);
        let w = WorkloadId::GnmtE32K.workload();
        assert_eq!(w.categories, 32_317);
        assert_eq!(w.hidden, 1024);
        let w = WorkloadId::Xmlcnn670K.workload();
        assert_eq!(w.categories, 670_091);
        assert_eq!(w.hidden, 512);
    }

    #[test]
    fn hundred_million_categories_is_about_190gb() {
        // Paper §1/§2.2: "around 190GB" for 100M categories at d=512.
        let w = WorkloadId::S100M.workload();
        let gb = w.classifier_bytes() as f64 / (1u64 << 30) as f64;
        assert!((180.0..200.0).contains(&gb), "footprint {gb} GB");
    }

    #[test]
    fn classifier_dominates_at_large_category_counts() {
        // Fig. 4: classification share grows with category size.
        let small = WorkloadId::GnmtE32K.workload().classifier_param_fraction();
        let big = WorkloadId::Xmlcnn670K.workload().classifier_param_fraction();
        assert!(big > small);
        assert!(big > 0.9, "classifier fraction {big}");
    }

    #[test]
    fn nlp_classifier_fraction_is_significant() {
        // Fig. 4: for NLP tasks classifiers consume "a significant amount".
        for id in [WorkloadId::LstmW33K, WorkloadId::TransformerW268K, WorkloadId::GnmtE32K] {
            let f = id.workload().classifier_param_fraction();
            assert!(f > 0.15, "{id}: {f}");
        }
    }

    #[test]
    fn display_uses_abbr() {
        assert_eq!(WorkloadId::Xmlcnn670K.to_string(), "XMLCNN-670K");
    }

    #[test]
    fn scaling_workloads_monotone() {
        let ws = WorkloadId::scaling();
        assert!(ws[0].workload().categories < ws[1].workload().categories);
        assert!(ws[1].workload().categories < ws[2].workload().categories);
    }
}
