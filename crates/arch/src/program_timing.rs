//! Instruction-driven timing: run a *compiled* ENMC program through the
//! rank's DRAM timing model.
//!
//! [`crate::unit::RankUnit`] synthesizes its access stream from task
//! shapes; this module instead walks an actual [`Program`] — every `LDR`
//! becomes DRAM bursts at its encoded address, every `MUL_ADD` occupies
//! its MAC array once its operand fill has landed — closing the loop
//! between the compiler and the timing model. The decoder runs ahead of
//! the datapath (as the hardware's instruction FIFO allows), so fetches
//! overlap compute exactly as in the shape-based model; a consistency test
//! checks the two paths agree on the screening phase.

use crate::config::EnmcConfig;
use enmc_dram::{AddressMapping, DramConfig, DramStats, DramSystem, MemRequest, RequestId};
use enmc_isa::{BufferId, Instruction, Program};
use std::collections::{HashMap, VecDeque};

/// Timing of one program execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProgramTiming {
    /// Total DRAM-bus cycles.
    pub dram_cycles: u64,
    /// Wall time in nanoseconds.
    pub ns: f64,
    /// Cycles the integer MAC array was busy.
    pub int_mac_busy: u64,
    /// Cycles the FP32 MAC array was busy.
    pub fp32_mac_busy: u64,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Instructions executed.
    pub instructions: usize,
}

/// One outstanding buffer fill.
#[derive(Debug)]
struct Ticket {
    bursts_left: usize,
    done_at: Option<u64>,
}

/// Execution state threading the DRAM clock through the walk.
struct Engine {
    dram: DramSystem,
    inflight: HashMap<RequestId, (BufferId, usize)>, // → (buffer, ticket idx)
    tickets: HashMap<BufferId, VecDeque<(usize, Ticket)>>,
    next_ticket: usize,
}

impl Engine {
    fn tick(&mut self) {
        self.dram.tick();
        let now = self.dram.cycle();
        for c in self.dram.drain_completions() {
            if let Some((buffer, idx)) = self.inflight.remove(&c.id) {
                if let Some(q) = self.tickets.get_mut(&buffer) {
                    if let Some((_, t)) = q.iter_mut().find(|(i, _)| *i == idx) {
                        t.bursts_left -= 1;
                        if t.bursts_left == 0 {
                            t.done_at = Some(now);
                        }
                    }
                }
            }
        }
    }

    /// Issues a fill and returns its ticket id.
    fn load(&mut self, buffer: BufferId, addr: u64, bytes: usize) -> usize {
        let bursts = bytes.div_ceil(64).max(1);
        let idx = self.next_ticket;
        self.next_ticket += 1;
        self.tickets
            .entry(buffer)
            .or_default()
            .push_back((idx, Ticket { bursts_left: bursts, done_at: None }));
        let mut issued = 0;
        while issued < bursts {
            match self.dram.enqueue(MemRequest::read(addr + (issued * 64) as u64)) {
                Some(id) => {
                    self.inflight.insert(id, (buffer, idx));
                    issued += 1;
                }
                None => self.tick(),
            }
        }
        idx
    }

    /// Pops the oldest fill of `buffer` and returns its completion cycle,
    /// ticking the clock forward until it lands.
    fn consume(&mut self, buffer: BufferId) -> u64 {
        loop {
            let front_done =
                self.tickets.get(&buffer).and_then(|q| q.front()).map(|(_, t)| t.done_at);
            match front_done {
                Some(Some(done)) => {
                    self.tickets.get_mut(&buffer).expect("present").pop_front();
                    return done;
                }
                Some(None) => self.tick(),
                None => return self.dram.cycle(), // nothing loaded: resident
            }
        }
    }

    fn outstanding(&self, buffer: BufferId) -> usize {
        self.tickets.get(&buffer).map(VecDeque::len).unwrap_or(0)
    }

    fn drain(&mut self, until: u64) {
        while !self.dram.is_idle() || self.dram.cycle() < until {
            self.tick();
            if self.dram.is_idle() && self.dram.cycle() >= until {
                break;
            }
        }
    }
}

/// Executes `program` against a fresh single-rank DRAM timing domain.
///
/// `hidden_dim` sizes FP32 feature loads (the compiler loads the whole
/// hidden vector once) and `reduced_dim` the quantized INT4 feature load;
/// all other fills are `cfg.buffer_bytes`.
pub fn run_program(
    cfg: &EnmcConfig,
    program: &Program,
    hidden_dim: usize,
    reduced_dim: usize,
) -> ProgramTiming {
    let ratio = cfg.dram_cycles_per_logic_cycle(1200);
    let mut eng = Engine {
        dram: DramSystem::with_mapping(DramConfig::enmc_single_rank(), AddressMapping::RoRaBaCoBg),
        inflight: HashMap::new(),
        tickets: HashMap::new(),
        next_ticket: 0,
    };
    let mut timing = ProgramTiming::default();
    let mut int_mac_free = 0u64;
    let mut fp32_mac_free = 0u64;

    let bytes_for = |buffer: BufferId| -> usize {
        match buffer {
            BufferId::FeatureFp32 => hidden_dim * 4,
            BufferId::FeatureInt4 => reduced_dim.div_ceil(2).max(1),
            _ => cfg.buffer_bytes,
        }
    };

    // The hardware's instruction FIFO lets the decoder run ahead of the
    // datapath: before any blocking wait, LDRs up to `prefetch_depth`
    // fills ahead (and not past a BARRIER) are issued so fetch overlaps
    // compute.
    let insts: Vec<&Instruction> = program.iter().collect();
    let mut issued_upto = 0usize; // LDRs at indices < issued_upto are issued
    let prefetch = |eng: &mut Engine, from: usize, issued_upto: &mut usize| {
        let mut i = (*issued_upto).max(from);
        while i < insts.len() {
            match insts[i] {
                Instruction::Ldr { buffer, addr } => {
                    if eng.outstanding(*buffer) > cfg.prefetch_depth {
                        break;
                    }
                    eng.load(*buffer, *addr, bytes_for(*buffer));
                }
                Instruction::Barrier | Instruction::Return | Instruction::Clr => break,
                _ => {}
            }
            i += 1;
        }
        *issued_upto = i.max(*issued_upto);
    };

    for (pc, &inst) in insts.iter().enumerate() {
        timing.instructions += 1;
        match *inst {
            Instruction::Ldr { buffer, addr } => {
                if pc >= issued_upto {
                    // Not covered by an earlier prefetch sweep.
                    while eng.outstanding(buffer) > cfg.prefetch_depth {
                        eng.tick();
                    }
                    eng.load(buffer, addr, bytes_for(buffer));
                    issued_upto = pc + 1;
                }
            }
            Instruction::MulAddInt4 { b, .. } => {
                prefetch(&mut eng, pc + 1, &mut issued_upto);
                let ready = eng.consume(b);
                let elems = cfg.buffer_bytes * 2;
                let dur = ((elems as f64 / cfg.int4_macs as f64).ceil() as u64) * ratio;
                int_mac_free = ready.max(int_mac_free) + dur;
                timing.int_mac_busy += dur;
            }
            Instruction::MulAddFp32 { b, .. } => {
                prefetch(&mut eng, pc + 1, &mut issued_upto);
                let ready = eng.consume(b);
                let elems = cfg.buffer_bytes / 4;
                let dur = ((elems as f64 / cfg.fp32_macs as f64).ceil() as u64) * ratio;
                fp32_mac_free = ready.max(fp32_mac_free) + dur;
                timing.fp32_mac_busy += dur;
            }
            Instruction::Filter { .. } | Instruction::Softmax | Instruction::Sigmoid => {
                // Shadow units: one logic cycle of control latency.
                for _ in 0..ratio {
                    eng.tick();
                }
            }
            Instruction::Barrier | Instruction::Return | Instruction::Clr => {
                let until = int_mac_free.max(fp32_mac_free);
                eng.drain(until);
            }
            Instruction::Str { .. } => {
                while eng.dram.enqueue(MemRequest::write(0)).is_none() {
                    eng.tick();
                }
            }
            Instruction::Init { .. }
            | Instruction::Query { .. }
            | Instruction::Nop
            | Instruction::Move { .. }
            | Instruction::AddInt4 { .. }
            | Instruction::MulInt4 { .. }
            | Instruction::AddFp32 { .. }
            | Instruction::MulFp32 { .. } => {
                eng.tick(); // one C/A slot
            }
        }
    }
    eng.drain(int_mac_free.max(fp32_mac_free));
    timing.dram_cycles = eng.dram.cycle();
    timing.ns = eng.dram.elapsed_ns();
    timing.dram = eng.dram.stats();
    timing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{RankJob, RankUnit, UnitParams};
    use enmc_compiler::{lower_screening, MemoryLayout, TaskDescriptor};

    fn compile(l: usize, batch: usize) -> Program {
        let task = TaskDescriptor::paper_default(l, 512, batch);
        let layout = MemoryLayout::for_task(&task);
        lower_screening(&task, &layout, 256).expect("compiles")
    }

    #[test]
    fn program_timing_completes() {
        let p = compile(2048, 1);
        let t = run_program(&EnmcConfig::table3(), &p, 512, 128);
        assert!(t.dram_cycles > 0);
        assert!(t.int_mac_busy > 0);
        assert!(t.dram.reads > 0);
        assert_eq!(t.instructions, p.len());
    }

    #[test]
    fn instruction_path_agrees_with_shape_path_on_screening() {
        // The shape-based unit (candidates = 0 → pure screening) and the
        // instruction-driven path must agree on screening time within a
        // modest envelope — they model the same access stream.
        let l = 4096;
        let program = run_program(&EnmcConfig::table3(), &compile(l, 1), 512, 128);
        let unit = RankUnit::new(UnitParams::enmc(&EnmcConfig::table3()));
        let shape = unit.simulate(&RankJob {
            categories: l,
            hidden: 512,
            reduced: 128,
            batch: 1,
            candidates_per_item: vec![0],
        });
        let ratio = program.dram_cycles as f64 / shape.dram_cycles as f64;
        assert!(
            (0.75..1.35).contains(&ratio),
            "instruction path {} vs shape path {} (ratio {ratio})",
            program.dram_cycles,
            shape.dram_cycles
        );
        // And identical weight traffic (+1 burst: the feature load).
        assert_eq!(program.dram.reads, shape.dram.reads + 1);
    }

    #[test]
    fn bigger_programs_take_longer() {
        let cfg = EnmcConfig::table3();
        let small = run_program(&cfg, &compile(1024, 1), 512, 128);
        let large = run_program(&cfg, &compile(4096, 1), 512, 128);
        assert!(large.dram_cycles > 2 * small.dram_cycles);
    }

    #[test]
    fn batch_reuses_nothing_in_instruction_stream() {
        // The compiler emits one full weight pass per batch item (it does
        // not encode the feature-buffer packing optimization), so the
        // instruction path grows linearly — documenting the fidelity gap
        // between the static program and the hardware's runtime batching.
        let cfg = EnmcConfig::table3();
        let b1 = run_program(&cfg, &compile(1024, 1), 512, 128);
        let b2 = run_program(&cfg, &compile(1024, 2), 512, 128);
        assert!(b2.dram_cycles > (b1.dram_cycles as f64 * 1.7) as u64);
    }
}
