//! A tour of the ENMC DIMM's software interface: compile a classification
//! task into the instruction set, inspect the PRECHARGE-frame encoding,
//! and simulate the rank-unit executing the job.
//!
//! ```sh
//! cargo run --release --example isa_tour
//! ```

use enmc::arch::system::SystemModel;
use enmc::arch::unit::{RankJob, RankUnit};
use enmc::compiler::{lower_screening, MemoryLayout, TaskDescriptor};
use enmc::isa::asm::disassemble;
use enmc::isa::Instruction;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The classification task one rank of the Transformer-W268K workload
    // sees: 268K categories partitioned over 64 ranks.
    let task = TaskDescriptor::paper_default(267_744 / 64, 512, 1);
    let layout = MemoryLayout::for_task(&task);
    println!("memory layout on the rank:");
    println!("  screening weights @ {:#010x}", layout.screen_weights);
    println!("  full classifier   @ {:#010x}", layout.classifier);
    println!("  features          @ {:#010x}", layout.features);
    println!("  outputs           @ {:#010x}", layout.outputs);

    // Compile the screening phase into the ENMC instruction stream.
    let program = lower_screening(&task, &layout, 256)?;
    let stats = program.stats();
    println!("\ncompiled screening program:");
    println!("  {} instructions ({} compute, {} transfer, {} control)",
        stats.total, stats.compute, stats.transfer, stats.control);
    println!("  {} carry DQ payloads; {} bytes on the wire",
        stats.with_data, program.wire_bytes());

    println!("\nfirst 12 instructions:");
    for inst in program.iter().take(12) {
        let frame = inst.encode();
        let data = frame
            .data
            .map(|d| format!(" + DQ {d:#x}"))
            .unwrap_or_default();
        println!("  {:<36} -> A0-A12 {:#06x}{}", disassemble(inst), frame.command, data);
    }

    // Round-trip through the wire format to prove losslessness.
    for inst in program.iter() {
        let decoded = Instruction::decode(&inst.encode())?;
        assert_eq!(decoded, *inst);
    }
    println!("\nall {} frames decode back to the same instructions", program.len());

    // Simulate the rank-unit executing this job (screening + ~2% exact
    // candidates), against the cycle-level DRAM model.
    let unit = RankUnit::new(SystemModel::table3().enmc_unit_params());
    let job = RankJob {
        categories: task.categories,
        hidden: task.hidden,
        reduced: task.reduced,
        batch: 1,
        candidates_per_item: vec![task.categories / 50],
    };
    let r = unit.simulate(&job);
    println!("\nrank-unit simulation:");
    println!("  {} DRAM cycles = {:.2} us", r.dram_cycles, r.ns / 1e3);
    println!("  screening traffic: {} KiB, exact traffic: {} KiB",
        r.screen_bytes / 1024, r.exact_bytes / 1024);
    println!("  row-hit rate {:.1}%, bus utilization {:.1}%",
        100.0 * r.dram.row_hit_rate(), 100.0 * r.dram.bus_utilization());
    Ok(())
}
