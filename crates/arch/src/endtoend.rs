//! End-to-end performance and scalability (paper Fig. 10 workflow,
//! Fig. 15 evaluation).
//!
//! The host runs the front-end feature extraction; classification runs on
//! the memory system. On a host-only platform the two phases serialize;
//! with an NMP scheme they are decoupled (Fig. 10) and pipeline across
//! batches, so steady-state throughput is set by the slower phase.
//! [`end_to_end`] returns both phase times and `fig15_scalability`
//! composes them.

use crate::cpu::CpuModel;
use crate::system::{ClassificationJob, Scheme, SystemModel};

/// End-to-end latency of one scheme on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Front-end nanoseconds (host).
    pub front_end_ns: f64,
    /// Classification nanoseconds (scheme-dependent).
    pub classification_ns: f64,
}

/// Runs the end-to-end composition for `job` with a front-end of
/// `front_end_ops` MACs per query.
pub fn end_to_end(
    system: &SystemModel,
    cpu: &CpuModel,
    job: &ClassificationJob,
    front_end_ops: u64,
    scheme: Scheme,
) -> EndToEnd {
    EndToEnd {
        front_end_ns: cpu.front_end_ns(front_end_ops, job.batch),
        classification_ns: system.run(job, scheme).ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineKind;

    fn job(l: usize) -> ClassificationJob {
        ClassificationJob { categories: l, hidden: 512, reduced: 128, batch: 1, candidates: l / 128 }
    }

    #[test]
    fn enmc_advantage_grows_with_categories() {
        // Fig. 15: ENMC's edge over TensorDIMM widens on larger synthetic
        // datasets because it streams without buffering intermediates.
        let sys = SystemModel::table3();
        let cpu = CpuModel::xeon_8280();
        let fe_ops = 32 * 512 * 512u64; // XMLCNN front-end
        let steady = |e: EndToEnd| e.front_end_ns.max(e.classification_ns);
        let mut advantages = Vec::new();
        for l in [262_144usize, 2_097_152] {
            let j = job(l);
            let enmc = end_to_end(&sys, &cpu, &j, fe_ops, Scheme::Enmc);
            let td = end_to_end(
                &sys,
                &cpu,
                &j,
                fe_ops,
                Scheme::Baseline(BaselineKind::TensorDimm),
            );
            advantages.push(steady(td) / steady(enmc));
        }
        assert!(
            advantages[1] >= advantages[0] * 0.95,
            "advantage shrank: {advantages:?}"
        );
        assert!(advantages[1] > 1.5, "{advantages:?}");
    }
}
