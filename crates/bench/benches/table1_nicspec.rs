//! Table 1 — implementation specifications of the Dagger NIC.
//!
//! Clock frequencies and FPGA resource usage are synthesis facts of the
//! authors' Arria 10 bitstream and cannot be reproduced in software; we
//! report the paper's values next to the analogous knobs of this
//! reproduction's NIC model.

use dagger_bench::banner;
use dagger_types::config::{MAX_BATCH, MAX_CONN_CACHE_ENTRIES, MAX_FLOWS};
use dagger_types::HardConfig;

fn main() {
    banner(
        "Table 1",
        "NIC implementation specifications (paper vs this model)",
    );
    let cfg = HardConfig::default();
    println!("paper (Arria 10 GX1150 synthesis):");
    println!("  CPU-NIC interface clock     200-300 MHz");
    println!("  RPC unit clock              200 MHz");
    println!("  Transport clock             200 MHz");
    println!("  max NIC flows               512 (65K-entry connection cache, <50% BRAM)");
    println!("  LUT usage                   87.1K (20%)");
    println!("  BRAM blocks (M20K)          555 (20%)");
    println!("  registers                   120.8K");
    println!();
    println!("this reproduction (software NIC model):");
    println!("  max NIC flows               {MAX_FLOWS}");
    println!("  max connection-cache size   {MAX_CONN_CACHE_ENTRIES} entries (3-banked, 1W3R, host-DRAM spill)");
    println!("  max CCI-P batch size        {MAX_BATCH}");
    println!(
        "  default hard config         {} flows, {}-line TX rings, {}-line RX rings, {}-entry conn cache, {:?} interface",
        cfg.num_flows,
        cfg.tx_ring_capacity,
        cfg.rx_ring_capacity,
        cfg.conn_cache_entries,
        cfg.iface
    );
    println!(
        "  host coherent cache         per-engine connection-tuple cache (generation-stamped)"
    );
}
