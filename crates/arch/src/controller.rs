//! The ENMC controller front-end (paper §5.2): instruction buffer, decoder
//! and instruction generator.
//!
//! Instructions reach the DIMM as PRECHARGE frames — at most one per
//! memory-clock C/A slot — and are decoded at one per 400 MHz logic cycle.
//! The design only works if this front-end never starves the datapath;
//! this module analyzes a compiled program against the hardware rates and
//! reports which resource bounds it. Used by tests to substantiate the
//! paper's implicit claim that instruction delivery is free, and by the
//! harnesses to budget C/A-bus usage against data traffic.

use enmc_isa::{Instruction, Program};

/// Controller hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Instruction FIFO depth (entries).
    pub fifo_depth: usize,
    /// Decoded instructions per logic cycle.
    pub decode_per_cycle: usize,
    /// DRAM-bus cycles per logic cycle.
    pub clock_ratio: u64,
    /// C/A-bus slots per memory cycle available for ENMC frames (the rest
    /// carry real DRAM commands).
    pub frame_slots_per_cycle: f64,
    /// Instructions the generator emits per candidate (gather tiles + MAC
    /// + finalize; depends on `d` and buffer size, set per task).
    pub insts_per_candidate: usize,
}

impl ControllerConfig {
    /// The Table 3 controller: 64-entry FIFO, single decoder at 400 MHz,
    /// half the C/A slots available for frames.
    pub fn table3(insts_per_candidate: usize) -> Self {
        ControllerConfig {
            fifo_depth: 64,
            decode_per_cycle: 1,
            clock_ratio: 3,
            frame_slots_per_cycle: 0.5,
            insts_per_candidate,
        }
    }
}

/// Which resource limits instruction delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEndBound {
    /// The C/A bus (frame transport) is the limit.
    Wire,
    /// The decoder is the limit.
    Decode,
    /// Neither limits before the datapath does.
    Datapath,
}

/// Front-end analysis of one program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerReport {
    /// Host-issued instructions (the static program).
    pub host_instructions: usize,
    /// Controller-generated instructions (candidates).
    pub generated_instructions: usize,
    /// Memory cycles to transport all host frames over the C/A bus.
    pub wire_cycles: u64,
    /// Memory cycles to decode everything.
    pub decode_cycles: u64,
    /// Memory cycles the datapath needs (supplied by the caller).
    pub datapath_cycles: u64,
    /// The binding resource.
    pub bound: FrontEndBound,
}

impl ControllerReport {
    /// Front-end overhead relative to the datapath (`>1` means the
    /// front-end throttles the unit).
    pub fn overhead(&self) -> f64 {
        let fe = self.wire_cycles.max(self.decode_cycles) as f64;
        fe / self.datapath_cycles.max(1) as f64
    }
}

/// Analyzes `program` plus `candidates` runtime-generated instruction
/// bursts against the controller rates, where the datapath needs
/// `datapath_cycles` memory cycles.
pub fn analyze(
    config: &ControllerConfig,
    program: &Program,
    candidates: usize,
    datapath_cycles: u64,
) -> ControllerReport {
    let host_instructions = program.len();
    let generated_instructions = candidates * config.insts_per_candidate;
    // Wire: only host instructions cross the channel; generated ones are
    // created on-DIMM. BARRIER/NOP frames are still one slot each.
    let wire_cycles =
        (host_instructions as f64 / config.frame_slots_per_cycle).ceil() as u64;
    // Decode: everything passes the decoder.
    let total = host_instructions + generated_instructions;
    let decode_cycles =
        (total as f64 / config.decode_per_cycle as f64).ceil() as u64 * config.clock_ratio;
    let fe = wire_cycles.max(decode_cycles);
    let bound = if fe <= datapath_cycles {
        FrontEndBound::Datapath
    } else if wire_cycles >= decode_cycles {
        FrontEndBound::Wire
    } else {
        FrontEndBound::Decode
    };
    ControllerReport {
        host_instructions,
        generated_instructions,
        wire_cycles,
        decode_cycles,
        datapath_cycles,
        bound,
    }
}

/// Counts the FILTER/BARRIER synchronization points of a program — the
/// places the controller must drain the FIFO before proceeding.
pub fn sync_points(program: &Program) -> usize {
    program
        .iter()
        .filter(|i| matches!(i, Instruction::Barrier | Instruction::Filter { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnmcConfig;
    use crate::unit::{RankJob, RankUnit, UnitParams};
    use enmc_compiler::{lower_screening, MemoryLayout, TaskDescriptor, Tiling};

    fn paper_setup(l: usize, batch: usize) -> (Program, usize, u64, usize) {
        let task = TaskDescriptor::paper_default(l, 512, batch);
        let layout = MemoryLayout::for_task(&task);
        let program = lower_screening(&task, &layout, 256).expect("compiles");
        let tiling = Tiling::new(&task, 256).expect("tiles");
        // Per-candidate: tiles_per_row LDR+MULADD pairs + MOVE.
        let ipc = tiling.tiles_per_row * 2 + 1;
        let candidates = l / 20;
        let unit = RankUnit::new(UnitParams::enmc(&EnmcConfig::table3()));
        let report = unit.simulate(&RankJob {
            categories: l,
            hidden: 512,
            reduced: 128,
            batch,
            candidates_per_item: vec![candidates / batch.max(1); batch],
        });
        (program, ipc, report.dram_cycles, candidates)
    }

    #[test]
    fn front_end_never_bounds_the_paper_config() {
        // The paper's design premise: instruction delivery is not the
        // bottleneck. Verify for a rank-sized slice at batch 1 and 4.
        for batch in [1usize, 4] {
            let (program, ipc, datapath, candidates) = paper_setup(4184, batch);
            let cfg = ControllerConfig::table3(ipc);
            let r = analyze(&cfg, &program, candidates, datapath);
            assert_eq!(r.bound, FrontEndBound::Datapath, "batch {batch}: {r:?}");
            assert!(r.overhead() < 1.0, "overhead {}", r.overhead());
        }
    }

    #[test]
    fn starved_decoder_is_detected() {
        let (program, ipc, _, candidates) = paper_setup(4184, 1);
        let mut cfg = ControllerConfig::table3(ipc);
        cfg.clock_ratio = 300; // absurdly slow decoder clock
        let r = analyze(&cfg, &program, candidates, 1000);
        assert_eq!(r.bound, FrontEndBound::Decode);
        assert!(r.overhead() > 1.0);
    }

    #[test]
    fn narrow_wire_is_detected() {
        let (program, ipc, _, candidates) = paper_setup(4184, 1);
        let mut cfg = ControllerConfig::table3(ipc);
        cfg.frame_slots_per_cycle = 0.0001;
        let r = analyze(&cfg, &program, candidates, 1000);
        assert_eq!(r.bound, FrontEndBound::Wire);
    }

    #[test]
    fn generated_instructions_counted() {
        let (program, ipc, datapath, candidates) = paper_setup(2048, 1);
        let cfg = ControllerConfig::table3(ipc);
        let r = analyze(&cfg, &program, candidates, datapath);
        assert_eq!(r.generated_instructions, candidates * ipc);
        assert!(r.host_instructions > 0);
    }

    #[test]
    fn sync_points_match_batch() {
        let task = TaskDescriptor::paper_default(1024, 64, 3);
        let layout = MemoryLayout::for_task(&task);
        let program = lower_screening(&task, &layout, 256).expect("compiles");
        // One FILTER + one BARRIER per batch item.
        assert_eq!(sync_points(&program), 6);
    }
}
