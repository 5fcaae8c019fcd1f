//! The tentpole guarantee of the fault-tolerant engine: one bad cell —
//! a panicking harness, a diverging program, a wild jump, an invalid
//! configuration — never takes the run down or perturbs its neighbours.

use std::time::Duration;

use tea_exp::{CellSpec, CellStatus, Engine, ExpError, Fault};
use tea_workloads::faulty::{self, FaultMode};
use tea_workloads::{lbm, Size};

fn clean_spec(seed: u64) -> CellSpec {
    CellSpec::for_workload(&lbm::workload(Size::Test)).seed(seed)
}

/// An engine that retries without actually sleeping.
fn eager(threads: usize) -> Engine {
    Engine::new(threads)
        .quiet()
        .backoff(Duration::ZERO, Duration::ZERO)
}

#[test]
fn a_panicking_cell_is_isolated_and_does_not_perturb_neighbours() {
    let clean = eager(1).run("ft-clean", vec![clean_spec(11), clean_spec(29)]);
    let faulty = eager(2).run(
        "ft-clean",
        vec![
            clean_spec(11),
            clean_spec(7).fault(Fault::PanicUntilAttempt(u32::MAX)),
            clean_spec(29),
        ],
    );

    assert_eq!(faulty.cells[1].status, CellStatus::Failed);
    match faulty.cells[1].error() {
        Some(ExpError::Panic { message }) => {
            assert!(
                message.contains("injected panic"),
                "panic payload must survive: {message:?}"
            );
        }
        other => panic!("expected a captured panic, got {other:?}"),
    }
    assert!(!faulty.all_ok());
    assert_eq!(faulty.count(CellStatus::Ok), 2);

    // The surviving cells are bit-identical to the clean run's cells.
    let strip = |j: &tea_exp::json::Json| {
        j.without_keys(&["wall_seconds", "sim_mips", "threads"])
            .render_pretty()
    };
    assert_eq!(
        strip(&faulty.cells[0].to_json()),
        strip(&clean.cells[0].to_json()),
        "a neighbour's panic must not change cell 0"
    );
    assert_eq!(
        strip(&faulty.cells[2].to_json()),
        strip(&clean.cells[1].to_json()),
        "a neighbour's panic must not change cell 2"
    );
}

#[test]
fn transient_faults_are_retried_with_attempt_accounting() {
    // Fails on attempt 1, succeeds on attempt 2: one retry suffices.
    let spec = clean_spec(3).fault(Fault::PanicUntilAttempt(2));
    let run = eager(1).max_retries(1).run("ft-retry", vec![spec]);
    assert_eq!(run.cells[0].status, CellStatus::Ok);
    assert_eq!(run.cells[0].attempts, 2);
    assert!(run.cells[0].result().is_some());

    // Same for an injected error (the non-panic transient path).
    let spec = clean_spec(3).fault(Fault::ErrorUntilAttempt(3));
    let run = eager(1).max_retries(2).run("ft-retry", vec![spec]);
    assert_eq!(run.cells[0].status, CellStatus::Ok);
    assert_eq!(run.cells[0].attempts, 3);
}

#[test]
fn exhausted_retries_leave_a_failed_cell_with_the_last_error() {
    let spec = clean_spec(3).fault(Fault::PanicUntilAttempt(u32::MAX));
    let run = eager(1).max_retries(2).run("ft-exhaust", vec![spec]);
    assert_eq!(run.cells[0].status, CellStatus::Failed);
    assert_eq!(run.cells[0].attempts, 3, "initial try + 2 retries");
    assert_eq!(run.cells[0].error().map(ExpError::kind), Some("panic"));
}

#[test]
fn a_diverging_cell_times_out_at_its_cycle_budget_and_is_not_retried() {
    let spec = CellSpec::for_workload(&faulty::workload(Size::Test, FaultMode::Diverge))
        .stats_only()
        .budget(20_000);
    let run = eager(1).max_retries(3).run("ft-diverge", vec![spec]);
    let cell = &run.cells[0];
    assert_eq!(cell.status, CellStatus::TimedOut);
    assert_eq!(
        cell.attempts, 1,
        "a deterministic timeout must not be retried"
    );
    match cell.error() {
        Some(ExpError::Timeout { budget }) => assert_eq!(*budget, 20_000),
        other => panic!("expected a timeout, got {other:?}"),
    }
}

#[test]
fn an_engine_wide_budget_applies_to_cells_without_their_own() {
    let cells = vec![
        CellSpec::for_workload(&faulty::workload(Size::Test, FaultMode::Diverge)).stats_only(),
        CellSpec::for_workload(&faulty::workload(Size::Test, FaultMode::Clean)).stats_only(),
    ];
    let run = eager(1).cell_budget(20_000).run("ft-budget", cells);
    assert_eq!(run.cells[0].status, CellStatus::TimedOut);
    assert_eq!(
        run.cells[1].status,
        CellStatus::Ok,
        "budget is generous for a halting cell"
    );
}

#[test]
fn a_wild_jump_surfaces_as_a_structured_sim_error() {
    let spec =
        CellSpec::for_workload(&faulty::workload(Size::Test, FaultMode::EscapePc)).stats_only();
    let run = eager(1).max_retries(1).run("ft-escape", vec![spec]);
    let cell = &run.cells[0];
    assert_eq!(cell.status, CellStatus::Failed);
    assert_eq!(cell.attempts, 1, "a program fault is deterministic");
    assert_eq!(cell.error().map(ExpError::kind), Some("sim"));
    let message = cell.error().expect("failed cell has an error").to_string();
    assert!(
        message.contains(&format!("{:#x}", faulty::WILD_ADDR)),
        "the escaped pc must be in the message: {message}"
    );
}

#[test]
fn an_invalid_config_fails_fast_with_the_offending_field() {
    let cfg = tea_sim::SimConfig {
        commit_width: 0,
        ..tea_sim::SimConfig::default()
    };
    let spec = clean_spec(3).config("broken", cfg);
    let run = eager(1).max_retries(5).run("ft-config", vec![spec]);
    let cell = &run.cells[0];
    assert_eq!(cell.status, CellStatus::Failed);
    assert_eq!(cell.attempts, 1, "config errors are not transient");
    assert_eq!(cell.error().map(ExpError::kind), Some("config"));
    let message = cell.error().expect("failed cell has an error").to_string();
    assert!(
        message.contains("commit_width"),
        "the offending field must be named: {message}"
    );
}

#[test]
fn a_zero_sampling_interval_fails_as_a_config_error_without_retries() {
    let run = eager(1)
        .max_retries(5)
        .run("ft-interval", vec![clean_spec(3).interval(0)]);
    let cell = &run.cells[0];
    assert_eq!(cell.status, CellStatus::Failed);
    assert_eq!(cell.attempts, 1, "config errors are not transient");
    assert_eq!(cell.error().map(ExpError::kind), Some("config"));
    let message = cell.error().expect("failed cell has an error").to_string();
    assert!(message.contains("interval"), "{message}");
}

#[test]
fn fail_fast_skips_the_cells_after_the_first_failure() {
    let cells = vec![
        clean_spec(1).fault(Fault::PanicUntilAttempt(u32::MAX)),
        clean_spec(2),
        clean_spec(3),
    ];
    let run = eager(1).fail_fast().run("ft-failfast", cells);
    assert_eq!(run.cells[0].status, CellStatus::Failed);
    assert_eq!(run.cells[1].status, CellStatus::Skipped);
    assert_eq!(run.cells[2].status, CellStatus::Skipped);
    assert_eq!(run.cells[1].attempts, 0, "skipped cells never run");
    assert_eq!(run.count(CellStatus::Skipped), 2);
}

#[test]
fn the_v2_artifact_marks_exactly_the_bad_cells() {
    // The acceptance scenario: one panicking cell and one over-budget
    // cell in an otherwise healthy suite.
    let cells = vec![
        clean_spec(11),
        clean_spec(7).fault(Fault::PanicUntilAttempt(u32::MAX)),
        CellSpec::for_workload(&faulty::workload(Size::Test, FaultMode::Diverge))
            .stats_only()
            .budget(20_000),
        clean_spec(29),
    ];
    let run = eager(2).run("ft-acceptance", cells);
    let text = run.to_json().render_pretty();
    let summary = tea_exp::artifact::read_artifact(&text).expect("artifact reads back");
    assert_eq!(summary.schema, "tea-experiment/v2");
    let statuses: Vec<CellStatus> = summary.cells.iter().map(|c| c.status).collect();
    assert_eq!(
        statuses,
        vec![
            CellStatus::Ok,
            CellStatus::Failed,
            CellStatus::TimedOut,
            CellStatus::Ok
        ]
    );
    assert_eq!(summary.cells[1].error_kind.as_deref(), Some("panic"));
    assert_eq!(summary.cells[2].error_kind.as_deref(), Some("timeout"));
    assert!(summary.cells[0].cycles.is_some());
    assert!(summary.cells[1].cycles.is_none());
}
