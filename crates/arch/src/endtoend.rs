//! End-to-end performance and scalability (paper Fig. 10 workflow,
//! Fig. 15 evaluation).
//!
//! The host runs the front-end feature extraction; classification runs on
//! the memory system. On a host-only platform the two phases serialize;
//! with an NMP scheme they are decoupled (Fig. 10) and pipeline across
//! batches, so steady-state throughput is set by the slower phase.

use crate::cpu::CpuModel;
use crate::system::{ClassificationJob, Scheme, SystemModel};

/// End-to-end latency/throughput of one scheme on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Front-end nanoseconds (host).
    pub front_end_ns: f64,
    /// Classification nanoseconds (scheme-dependent).
    pub classification_ns: f64,
    /// `true` if the two phases pipeline (NMP offload), `false` if they
    /// serialize (host-only).
    pub pipelined: bool,
}

impl EndToEnd {
    /// Effective nanoseconds per batch in steady state.
    pub fn steady_state_ns(&self) -> f64 {
        if self.pipelined {
            self.front_end_ns.max(self.classification_ns)
        } else {
            self.front_end_ns + self.classification_ns
        }
    }
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
    let front_end_ns = cpu.front_end_ns(front_end_ops, job.batch);
    let result = system.run(job, scheme);
    EndToEnd {
        front_end_ns,
        classification_ns: result.ns,
        pipelined: !matches!(scheme, Scheme::CpuFull | Scheme::CpuScreened),
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
    fn pipelined_takes_max_serial_takes_sum() {
        let e = EndToEnd { front_end_ns: 10.0, classification_ns: 30.0, pipelined: true };
        assert_eq!(e.steady_state_ns(), 30.0);
        let s = EndToEnd { front_end_ns: 10.0, classification_ns: 30.0, pipelined: false };
        assert_eq!(s.steady_state_ns(), 40.0);
    }

    #[test]
    fn enmc_advantage_grows_with_categories() {
        // Fig. 15: ENMC's edge over TensorDIMM widens on larger synthetic
        // datasets because it streams without buffering intermediates.
        let sys = SystemModel::table3();
        let cpu = CpuModel::xeon_8280();
        let fe_ops = 32 * 512 * 512u64; // XMLCNN front-end
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
            advantages.push(td.steady_state_ns() / enmc.steady_state_ns());
        }
        assert!(
            advantages[1] >= advantages[0] * 0.95,
            "advantage shrank: {advantages:?}"
        );
        assert!(advantages[1] > 1.5, "{advantages:?}");
    }
}
