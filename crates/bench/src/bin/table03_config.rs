//! Regenerates paper Table 3: DRAM and ENMC configurations.

use enmc::cli::Command;
use enmc_arch::config::EnmcConfig;
use enmc_bench::report::Reporter;
use enmc_bench::table::Table;
use enmc_bench::JSON;
use enmc_dram::{DramConfig, QUEUE_DEPTH};

const CMD: Command = Command::standalone("table03_config", &[&[JSON]]);

fn main() {
    let (a, ()) = enmc_bench::parse(&CMD, |_| Ok(()));
    let dram = DramConfig::enmc_table3();
    let enmc = EnmcConfig::table3();
    let mut rep = Reporter::from_env(&a);
    println!("Table 3: ENMC Configurations\n");

    let mut t = Table::new(&["DRAM parameter", "Value"]);
    let org = dram.organization;
    let tim = dram.timing;
    t.row_owned(vec!["Spec".into(), format!("DDR4-{} MT/s", 2_000_000 / tim.tck_ps)]);
    t.row_owned(vec!["Channels".into(), org.channels.to_string()]);
    t.row_owned(vec!["Ranks/CH".into(), org.ranks.to_string()]);
    t.row_owned(vec![
        "Capacity/CH".into(),
        enmc_bench::table::fmt_bytes(org.channel_bytes()),
    ]);
    t.row_owned(vec!["Queue".into(), format!("{QUEUE_DEPTH}-entry")]);
    t.row_owned(vec![
        "CL-tRCD-tRP".into(),
        format!("{}-{}-{}", tim.cl, tim.trcd, tim.trp),
    ]);
    t.row_owned(vec![
        "tRC/tCCD/tRRD/tFAW".into(),
        format!("{}/{}/{}/{}", tim.trc, tim.tccd_s, tim.trrd_s, tim.tfaw),
    ]);
    t.row_owned(vec![
        "Peak BW/CH".into(),
        format!("{:.1} GB/s", tim.peak_channel_bandwidth() / 1e9),
    ]);
    t.print();
    rep.table("dram", &t);

    println!();
    let mut t = Table::new(&["ENMC parameter", "Value"]);
    t.row_owned(vec!["Tech node".into(), "28nm (modeled)".into()]);
    t.row_owned(vec!["Frequency".into(), format!("{} MHz", enmc.freq_mhz)]);
    t.row_owned(vec!["INT4 MACs".into(), enmc.int4_macs.to_string()]);
    t.row_owned(vec!["FP32 MACs".into(), enmc.fp32_macs.to_string()]);
    t.row_owned(vec![
        "Screener/Executor buffers".into(),
        format!("{}B+{}B each", enmc.buffer_bytes, enmc.buffer_bytes),
    ]);
    t.print();
    rep.table("enmc", &t);
    rep.finish();
}
