//! Cycle-by-cycle inspection of one gathered vector read — the software
//! analogue of watching the Verilog waveforms.
//!
//! Run with: `cargo run --example trace_inspect [-- --vcd FILE]`. With
//! `--vcd`, the event log is also written as a VCD waveform (one signal
//! per bank controller) for a viewer such as GTKWave.

use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Write as _};

use pva::core::Vector;
use pva::sim::{write_vcd, HostRequest, PvaConfig, PvaUnit};

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let vcd_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--vcd" => Some(path.as_str()),
        _ => return Err("usage: trace_inspect [--vcd FILE]".into()),
    };

    let cfg = PvaConfig {
        record_trace: true,
        ..PvaConfig::default()
    };
    let mut unit = PvaUnit::new(cfg)?;
    let v = Vector::new(0x100, 6, 32)?; // stride 6 = 3 * 2^1: 8 banks hit
    let r = unit.run(vec![HostRequest::Read { vector: v }])?;
    println!("gather of {v} took {} cycles; full event log:\n", r.cycles);
    let events = unit.take_events();
    for e in &events {
        println!("{e}");
    }
    if let Some(path) = vcd_path {
        let mut f = BufWriter::new(File::create(path)?);
        write_vcd(&events, cfg.geometry.banks() as usize, &mut f)?;
        f.flush()?;
        println!("\nwaveform written to {path}");
    }
    Ok(())
}
