//! The five workloads. Each drives the crates' public functions the way
//! the CLI and the figure binaries do and times those calls from outside.

mod classify;
mod fault;
mod fig13;
mod fleet;
mod tune;

use crate::runner::{run, Outcome, RunCfg};

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run_named(name: &str, cfg: &RunCfg, expected: Option<u64>) -> Option<Outcome> {
    Some(match name {
        "classify-gnmt" => run::<classify::Classify>(cfg, expected),
        "fault-sweep" => run::<fault::Fault>(cfg, expected),
        "simulate-fig13" => run::<fig13::Fig13>(cfg, expected),
        "fleet-capacity" => run::<fleet::Fleet>(cfg, expected),
        "tune-lstm" => run::<tune::Tune>(cfg, expected),
        _ => return None,
    })
}
