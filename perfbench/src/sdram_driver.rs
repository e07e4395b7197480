//! A standalone `sdram` driver: one device of a preset fed a seeded
//! command stream whose ACT/CAS/PRE mix, read/write split and refresh
//! use follow the `SdramStats` the PVA produced on the same preset, so
//! the device is timed on the traffic the PVA issues. A CAS finds its
//! row open (a row hit) with probability `1 - ACT/CAS`, so every miss
//! pays one ACTIVATE (and one PRECHARGE when a row was open), as in
//! the PVA's stream.
//!
//! The stream is legal by construction: a planning pass asks
//! `can_issue` before every `issue` and advances the clock across the
//! gaps. Timed replays of the recorded `(gap, command)` list on fresh
//! devices then split host time between `issue` and `advance`.

use std::time::Instant;

use pva_core::SplitMix64;
use sdram::{DevicePreset, Sdram, SdramCmd, SdramConfig, SdramStats};

use crate::spans::span;

/// Longest wait for one command to become legal before the stream is
/// declared stuck.
const MAX_GAP: u64 = 100_000;
/// Timed replays per preset; the median is reported.
const REPLAYS: usize = 7;

#[derive(Debug, Clone, Default)]
pub struct Drive {
    pub commands: u64,
    pub cycles: u64,
    pub issue_ns_per_cmd: f64,
    pub advance_ns_per_cycle: f64,
    pub stats: SdramStats,
    /// Commands the device rejected, and stuck waits.
    pub failures: Vec<String>,
}

/// Plans and replays `accesses` CAS accesses on one `preset` device,
/// mixing reads and writes and row hits as `mix` did.
pub fn drive(
    preset: DevicePreset,
    mix: &SdramStats,
    seed: u64,
    accesses: u64,
    trace: u64,
) -> Drive {
    let config = SdramConfig::for_device(preset);
    let cas = (mix.reads + mix.writes).max(1);
    let hit_ppm = 1_000_000 - mix.activates.min(cas) * 1_000_000 / cas;
    let write_ppm = mix.writes * 1_000_000 / cas;
    let refresh = mix.refreshes > 0;

    let mut out = Drive::default();
    let plan = span("sdram.plan", 0, trace, |_| {
        plan(
            &config,
            seed,
            accesses,
            (hit_ppm, write_ppm, refresh),
            &mut out,
        )
    });
    out.commands = plan.len() as u64;
    out.cycles = plan.iter().map(|&(g, _)| g).sum();

    let mut full = Vec::with_capacity(REPLAYS);
    let mut adv = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        let (ns, rejected) = span("sdram.replay", 0, trace, |_| replay(&config, &plan, true));
        full.push(ns);
        if rejected > 0 {
            out.failures.push(format!(
                "{}: {rejected} planned command(s) rejected on replay",
                preset.name()
            ));
        }
        adv.push(span("sdram.replay_advance", 0, trace, |_| {
            replay(&config, &plan, false).0
        }));
    }
    let (full, adv) = (
        crate::stats::median_u64(&full),
        crate::stats::median_u64(&adv),
    );
    out.issue_ns_per_cmd = full.saturating_sub(adv) as f64 / out.commands.max(1) as f64;
    out.advance_ns_per_cycle = adv as f64 / out.cycles.max(1) as f64;
    out
}

/// Waits until `cmd` is legal, issues it, and records the gap.
fn legal(dev: &mut Sdram, cmd: SdramCmd, plan: &mut Vec<(u64, SdramCmd)>, out: &mut Drive) {
    let mut gap = 0;
    while dev.can_issue(&cmd).is_err() {
        if gap == MAX_GAP {
            out.failures
                .push(format!("{cmd:?} not legal after {MAX_GAP} cycles"));
            return;
        }
        dev.advance(1);
        while dev.pop_ready().is_some() {}
        gap += 1;
    }
    match dev.issue(cmd) {
        Ok(()) => plan.push((gap, cmd)),
        Err(e) => out
            .failures
            .push(format!("{cmd:?} rejected after can_issue: {e:?}")),
    }
}

fn plan(
    config: &SdramConfig,
    seed: u64,
    accesses: u64,
    (hit_ppm, write_ppm, refresh): (u64, u64, bool),
    out: &mut Drive,
) -> Vec<(u64, SdramCmd)> {
    let mut rng = SplitMix64::new(seed ^ 0x0073_6472_616d);
    let mut dev = Sdram::new(*config);
    let banks = config.total_row_buffers();
    let rows = 1u64 << config.log2_rows;
    let cols = 1u64 << config.log2_cols;
    let mut open: Vec<Option<u64>> = vec![None; banks as usize];
    let mut plan = Vec::new();
    for _ in 0..accesses {
        if !out.failures.is_empty() {
            break;
        }
        if refresh && dev.refresh_due() {
            for b in 0..banks {
                if open[b as usize].take().is_some() {
                    legal(&mut dev, SdramCmd::Precharge { bank: b }, &mut plan, out);
                }
            }
            legal(&mut dev, SdramCmd::Refresh, &mut plan, out);
        }
        let bank = rng.below(u64::from(banks)) as u32;
        let hit = rng.below(1_000_000) < hit_ppm;
        match open[bank as usize] {
            Some(_) if hit => dev.note_row_hit(),
            current => {
                if current.is_some() {
                    legal(&mut dev, SdramCmd::Precharge { bank }, &mut plan, out);
                }
                let row = rng.below(rows);
                legal(&mut dev, SdramCmd::Activate { bank, row }, &mut plan, out);
                open[bank as usize] = Some(row);
            }
        }
        let col = rng.below(cols);
        let cmd = if rng.below(1_000_000) < write_ppm {
            SdramCmd::Write {
                bank,
                col,
                data: rng.next_u64(),
                auto_precharge: false,
            }
        } else {
            SdramCmd::Read {
                bank,
                col,
                auto_precharge: false,
                tag: 0,
            }
        };
        legal(&mut dev, cmd, &mut plan, out);
    }
    out.stats = *dev.stats();
    plan
}

/// Replays `plan` on a fresh device; with `issue` off only the clock
/// advances. Returns host nanoseconds and the number of rejected
/// commands.
fn replay(config: &SdramConfig, plan: &[(u64, SdramCmd)], issue: bool) -> (u64, u64) {
    let mut dev = Sdram::new(*config);
    let mut rejected = 0;
    let t0 = Instant::now();
    for &(gap, cmd) in plan {
        if gap > 0 {
            dev.advance(gap);
        }
        if issue {
            if dev.issue(std::hint::black_box(cmd)).is_err() {
                rejected += 1;
            }
            while dev.pop_ready().is_some() {}
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&dev);
    (ns, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_legal_and_follow_the_mix() {
        let mix = SdramStats {
            reads: 600,
            writes: 400,
            activates: 300,
            refreshes: 1,
            ..SdramStats::default()
        };
        for preset in [
            DevicePreset::Sdr100,
            DevicePreset::Ddr3_1600,
            DevicePreset::Hbm2Like,
        ] {
            let d = drive(preset, &mix, 1, 4000, 0);
            assert!(d.failures.is_empty(), "{preset:?}: {:?}", d.failures);
            let cas = d.stats.reads + d.stats.writes;
            assert_eq!(cas, 4000, "{preset:?}");
            let act = d.stats.activates as f64 / cas as f64;
            assert!((0.25..0.4).contains(&act), "{preset:?}: ACT/CAS {act}");
            let refreshing = SdramConfig::for_device(preset).refresh_interval > 0;
            assert_eq!(d.stats.refreshes > 0, refreshing, "{preset:?}");
        }
    }
}
