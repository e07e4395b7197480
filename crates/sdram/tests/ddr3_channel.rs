//! Channel-constraint gating in the DDR3-1600 profile: tCCD_L/tCCD_S
//! per bank group, tRRD spacing, and the tFAW four-activate window —
//! the modern-generation timing the SDR part leaves disabled.

use sdram::{DevicePreset, IssueError, Sdram, SdramCmd, SdramConfig, TimingAuditor};

fn ddr3() -> Sdram {
    Sdram::new(SdramConfig::for_device(DevicePreset::Ddr3_1600))
}

fn read(bank: u32) -> SdramCmd {
    SdramCmd::Read {
        bank,
        col: 0,
        auto_precharge: false,
        tag: 0,
    }
}

fn tick_to(d: &mut Sdram, cycle: u64) {
    while d.now() < cycle {
        d.tick();
    }
}

/// Opens rows in `banks`, spacing the ACTIVATEs by tRRD, and advances
/// until every tRCD has expired.
fn open_rows(d: &mut Sdram, banks: &[u32]) {
    let cfg = *d.config();
    for &bank in banks {
        tick_to(d, d.activate_ready_at(bank).max(d.now()));
        d.issue(SdramCmd::Activate { bank, row: 1 }).unwrap();
        d.tick();
    }
    let ready = banks.iter().map(|&b| d.access_ready_at(b)).max().unwrap();
    tick_to(d, ready.max(d.now() + u64::from(cfg.t_rcd)));
}

#[test]
fn tccd_l_gates_same_group_cas() {
    // Banks 0 and 2 are both group 0 (bank & 1): the second CAS must
    // wait tCCD_L = 5 cycles.
    let mut d = ddr3();
    open_rows(&mut d, &[0, 2]);
    d.issue(read(0)).unwrap();
    let issued_at = d.now();
    d.tick();
    for _ in 0..3 {
        assert_eq!(
            d.can_issue(&read(2)),
            Err(IssueError::TimingViolation {
                bank: 2,
                timer: "tCCD"
            })
        );
        d.tick();
    }
    assert_eq!(d.now(), issued_at + 4);
    assert!(d.can_issue(&read(2)).is_err(), "4 < tCCD_L = 5");
    d.tick();
    d.issue(read(2)).unwrap();
}

#[test]
fn tccd_s_relaxes_cross_group_cas() {
    // Banks 0 (group 0) and 1 (group 1): cross-group spacing is
    // tCCD_S = 4, one cycle tighter than tCCD_L.
    let mut d = ddr3();
    open_rows(&mut d, &[0, 1]);
    d.issue(read(0)).unwrap();
    let issued_at = d.now();
    tick_to(&mut d, issued_at + 4);
    // Legal cross-group at +4, while the same group would still wait.
    assert!(d.can_issue(&read(2)).is_err(), "same group still gated");
    d.issue(read(1)).unwrap();
}

#[test]
fn access_ready_at_covers_the_ccd_gate() {
    let mut d = ddr3();
    open_rows(&mut d, &[0, 1, 2]);
    d.issue(read(0)).unwrap();
    let issued_at = d.now();
    d.tick();
    // The wake hint must point at the exact cycle each gate opens.
    assert_eq!(d.access_ready_at(2), issued_at + 5); // same group: tCCD_L
    assert_eq!(d.access_ready_at(1), issued_at + 4); // cross group: tCCD_S
    let ready = d.access_ready_at(2);
    tick_to(&mut d, ready);
    d.issue(read(2)).unwrap();
}

#[test]
fn trrd_spaces_activates_across_banks() {
    let mut d = ddr3();
    d.issue(SdramCmd::Activate { bank: 0, row: 1 }).unwrap();
    d.tick();
    // A different bank's ACTIVATE is bank-timer legal but channel
    // (tRRD = 6) gated.
    assert_eq!(
        d.can_issue(&SdramCmd::Activate { bank: 1, row: 1 }),
        Err(IssueError::TimingViolation {
            bank: 1,
            timer: "tRRD"
        })
    );
    assert_eq!(d.activate_ready_at(1), 6);
    tick_to(&mut d, 6);
    d.issue(SdramCmd::Activate { bank: 1, row: 1 }).unwrap();
}

#[test]
fn tfaw_throttles_the_fifth_activate() {
    let mut d = ddr3();
    // Four ACTIVATEs at the tRRD floor: cycles 0, 6, 12, 18.
    for bank in 0..4 {
        let ready = d.activate_ready_at(bank);
        tick_to(&mut d, ready);
        d.issue(SdramCmd::Activate { bank, row: 1 }).unwrap();
        d.tick();
    }
    assert_eq!(d.now(), 19);
    // tRRD would admit bank 4 at cycle 24, but the window of the first
    // ACTIVATE (cycle 0 + tFAW 26) holds it to 26.
    tick_to(&mut d, 24);
    assert_eq!(
        d.can_issue(&SdramCmd::Activate { bank: 4, row: 1 }),
        Err(IssueError::TimingViolation {
            bank: 4,
            timer: "tFAW"
        })
    );
    assert_eq!(d.activate_ready_at(4), 26);
    tick_to(&mut d, 26);
    d.issue(SdramCmd::Activate { bank: 4, row: 1 }).unwrap();
}

#[test]
fn ready_at_includes_channel_expiries() {
    let mut d = ddr3();
    open_rows(&mut d, &[0, 1]);
    // Wait until every bank timer from the opens has expired so the
    // only gates left to arm are channel ones.
    let settled = d.now() + 64;
    tick_to(&mut d, settled);
    assert!(d.access_ready_at(0) <= d.now() && d.access_ready_at(1) <= d.now());
    d.issue(read(0)).unwrap();
    let at = d.now();
    // Bank 0 shares the CAS's group (tCCD_L = 5); bank 1 is in the
    // other group (tCCD_S = 4).
    assert_eq!(d.access_ready_at(0), at + 5);
    assert_eq!(d.access_ready_at(1), at + 4);
    d.tick();
    d.issue(SdramCmd::Activate { bank: 2, row: 1 }).unwrap();
    let act = d.now();
    // Bank 3 has no timer of its own armed: tRRD = 6 is its whole gate.
    assert_eq!(d.activate_ready_at(3), act + 6);
}

#[test]
fn auditor_agrees_with_a_legal_ddr3_stream() {
    // Drive a greedy legal stream through the device and replay every
    // accepted command into the independent auditor: the two timing
    // implementations must agree the stream is clean.
    let cfg = SdramConfig::for_device(DevicePreset::Ddr3_1600);
    let mut d = Sdram::new(cfg);
    let mut audit = TimingAuditor::new(cfg);
    let mut reads = 0u32;
    while reads < 32 && d.now() < 4000 {
        let mut issued = None;
        for bank in 0..cfg.internal_banks {
            if d.open_row(bank).is_some() {
                let cmd = read(bank);
                if d.can_issue(&cmd).is_ok() {
                    issued = Some(cmd);
                    break;
                }
            } else {
                let cmd = SdramCmd::Activate { bank, row: 1 };
                if d.can_issue(&cmd).is_ok() {
                    issued = Some(cmd);
                    break;
                }
            }
        }
        if let Some(cmd) = issued {
            audit.observe(d.now(), &cmd);
            d.issue(cmd).unwrap();
            if matches!(cmd, SdramCmd::Read { .. }) {
                reads += 1;
            }
        }
        d.tick();
    }
    assert_eq!(reads, 32, "stream must make progress under the gates");
    audit.assert_clean();
}

#[test]
fn read_burst_staggers_beats_on_the_data_rate() {
    // One CAS, k words: beat j lands at tCAS + j / data_rate. On the
    // DDR3 part (data_rate 2) an 8-word burst spans four bus cycles.
    let mut d = ddr3();
    open_rows(&mut d, &[0]);
    let items: Vec<(u64, u64)> = (0..8).map(|j| (j, 100 + j)).collect();
    let issued_at = d.now();
    d.issue_read_burst(0, false, &items).unwrap();
    assert_eq!(d.stats().reads, 1, "a burst counts as one CAS");
    let t_cas = u64::from(d.config().t_cas);
    tick_to(&mut d, issued_at + t_cas + 4);
    let mut got = Vec::new();
    while let Some(r) = d.pop_ready() {
        got.push((r.tag, r.at_cycle));
    }
    assert_eq!(got.len(), 8, "every burst beat returns");
    for (j, &(tag, at)) in got.iter().enumerate() {
        assert_eq!(tag, 100 + j as u64, "beats return in column order");
        assert_eq!(
            at,
            issued_at + t_cas + j as u64 / 2,
            "beat {j} lands on the DDR schedule"
        );
    }
}

#[test]
fn write_burst_round_trips_through_single_reads() {
    let mut d = ddr3();
    open_rows(&mut d, &[0]);
    let items: Vec<(u64, u64)> = (0..8).map(|j| (j, 0xBEEF_0000 + j)).collect();
    d.issue_write_burst(0, false, &items).unwrap();
    assert_eq!(d.stats().writes, 1, "a burst counts as one CAS");
    // Read each column back individually; the burst must have stored
    // every word at its own column.
    for (col, data) in items {
        let ready = d.access_ready_at(0).max(d.now());
        tick_to(&mut d, ready);
        d.issue(SdramCmd::Read {
            bank: 0,
            col,
            auto_precharge: false,
            tag: col,
        })
        .unwrap();
        let data_at = d.next_data_at().unwrap();
        tick_to(&mut d, data_at);
        let r = d.pop_ready().expect("read data ready");
        assert_eq!(r.data, data, "column {col} holds the burst word");
        d.tick();
    }
}

#[test]
fn sdr_profile_is_unconstrained_by_channel_gates() {
    // The SDR part (all channel parameters 0) must accept back-to-back
    // CAS commands exactly as before this redesign.
    let mut d = Sdram::new(SdramConfig::for_device(DevicePreset::Sdr100));
    open_rows(&mut d, &[0, 1]);
    d.issue(read(0)).unwrap();
    d.tick();
    d.issue(read(1)).unwrap();
    d.tick();
    d.issue(read(0)).unwrap();
}
