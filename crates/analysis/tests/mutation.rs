//! Mutation tests for the analysis passes: each test plants one seeded
//! defect of the kind the corresponding checker exists to catch, and
//! asserts the checker reports it. A checker that stays green on its
//! own mutation is dead weight, so every new pass earns its CI slot
//! here.

use pva_analysis::{lint_target, protocol_check, wake_check, Rule, DESIGNATED};
use sdram::{BankEvent, BankState, CmdClass, DeadlineModel, Outcome, SdramConfig, TRANSITIONS};

/// A mutated copy of the shipped transition table with the outcome for
/// `(state, event)` replaced.
fn mutate_table(
    state: BankState,
    event: BankEvent,
    outcome: Outcome,
) -> Vec<(BankState, BankEvent, Outcome)> {
    let mut table: Vec<_> = TRANSITIONS.to_vec();
    let entry = table
        .iter_mut()
        .find(|(s, e, _)| *s == state && *e == event)
        .expect("mutated entry exists in the shipped table");
    entry.2 = outcome;
    table
}

#[test]
fn protocol_checker_is_clean_on_the_pristine_table() {
    let cfg = SdramConfig::default();
    let model = DeadlineModel::of(&cfg);
    let findings = protocol_check::check_preset("pristine", &cfg, TRANSITIONS, &model);
    assert_eq!(findings, Vec::<String>::new());
}

#[test]
fn corrupted_fsm_entry_is_caught() {
    // Seeded defect: legalize READ on a closed bank. The dense LUT
    // (compiled from the pristine table) and the live device both still
    // refuse it, so the checker must flag the disagreement.
    let table = mutate_table(
        BankState::Idle,
        BankEvent::Command(CmdClass::Read),
        Outcome::Next(BankState::Active),
    );
    let cfg = SdramConfig::default();
    let model = DeadlineModel::of(&cfg);
    let findings = protocol_check::check_preset("mutated-fsm", &cfg, &table, &model);
    assert!(
        !findings.is_empty(),
        "a legalized READ-while-closed must be reported"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.contains("dense lookup disagrees") || f.contains("device refuses")),
        "expected a dense-LUT or model-vs-device disagreement, got: {findings:?}"
    );
}

#[test]
fn corrupted_timing_deadline_is_caught() {
    // Seeded defect: the declarative model believes tRCD is one cycle
    // longer than the device enforces. The first ACTIVATE desynchronizes
    // the tRCD residuals and the checker's alignment pass must say so.
    let cfg = SdramConfig::default();
    let mut model = DeadlineModel::of(&cfg);
    model.t_rcd += 1;
    let findings = protocol_check::check_preset("mutated-deadline", &cfg, TRANSITIONS, &model);
    assert!(
        findings.iter().any(|f| f.contains("tRCD")),
        "a skewed tRCD deadline must be reported, got: {findings:?}"
    );
}

/// The shipped controller source, asserted clean before a test mutates
/// it.
fn pristine_controller() -> String {
    let root = pva_analysis::find_workspace_root().expect("workspace root");
    let pristine = std::fs::read_to_string(root.join(wake_check::CONTROLLER_SRC))
        .expect("controller source readable");
    assert_eq!(
        wake_check::check_source(&pristine),
        Vec::<String>::new(),
        "the pristine controller must pass before mutating it"
    );
    pristine
}

/// `pristine` with its single occurrence of `arm` replaced.
fn delete_arm(pristine: &str, arm: &str, with: &str) -> String {
    assert_eq!(
        pristine.matches(arm).count(),
        1,
        "the wake arm must exist exactly once to delete"
    );
    pristine.replace(arm, with)
}

#[test]
fn dropped_wake_arm_is_caught() {
    // Seeded defect: compute_wake forgets the read-return wake source.
    // Renaming `next_data_at` out of existence models deleting that arm;
    // the trigger (`pop_ready` in the tick path) survives, so the static
    // pass must report the uncovered trigger.
    let pristine = pristine_controller();
    let mutated = pristine.replace("next_data_at", "next_data_at_gone");
    assert_ne!(mutated, pristine, "the wake source must exist to delete");
    let findings = wake_check::check_source(&mutated);
    assert!(
        findings
            .iter()
            .any(|f| f.contains("pop_ready") && f.contains("next_data_at")),
        "a dropped read-return wake arm must be reported, got: {findings:?}"
    );
}

#[test]
fn dropped_access_wake_arm_is_caught() {
    // Seeded defect: compute_wake forgets the open-row access arm — the
    // per-context wake on tRCD plus the bank group's tCCD gate. That arm
    // is also what covers the generation-aware policy's channel-global
    // decisions (activate deferral and the group-interleave
    // preference), so the static pass must report all three triggers
    // that depend on it, not just the row-open one.
    let pristine = pristine_controller();
    let mutated = delete_arm(
        &pristine,
        "Some(open) if open == row => self.device.access_ready_at(ib),",
        "Some(open) if open == row => u64::MAX,",
    );
    let findings = wake_check::check_source(&mutated);
    for trigger in ["open_row", "should_defer_activate", "last_cas_group"] {
        assert!(
            findings
                .iter()
                .any(|f| f.contains(&format!("`{trigger}`")) && f.contains("access_ready_at")),
            "a dropped access wake arm must be reported for `{trigger}`, got: {findings:?}"
        );
    }
}

#[test]
fn dropped_polarity_wake_arm_is_caught() {
    // Seeded defect: compute_wake forgets the post-work polarity arm — a
    // window context whose row is open but whose direction opposes the
    // bus starts a turnaround next cycle, which no timer arm predicts.
    // The debug-build replay oracle catches this dynamically on the
    // fig-7 sweep; the static pass must catch it from source alone.
    let pristine = pristine_controller();
    let mutated = delete_arm(
        &pristine,
        "if let Some(bus) = self.data_polarity {",
        "if let Some(bus) = None::<OpKind> {",
    );
    let findings = wake_check::check_source(&mutated);
    assert!(
        findings
            .iter()
            .any(|f| f.contains("`data_polarity`") && f.contains("no wake source")),
        "a dropped polarity wake arm must be reported, got: {findings:?}"
    );
}

#[test]
fn missing_designated_file_is_a_finding() {
    // The lint driver must not silently skip a designated file that has
    // gone missing (renamed without updating DESIGNATED, or a broken
    // checkout): it reports the unreadable target as a finding.
    let findings = lint_target(
        std::path::Path::new("/nonexistent-pva-root"),
        &DESIGNATED[0],
    );
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::Unreadable);
    assert_eq!(findings[0].file, DESIGNATED[0].path);
}
