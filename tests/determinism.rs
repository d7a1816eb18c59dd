//! Determinism regression: two simulator runs of the same scenario and
//! seed must produce byte-identical JSON reports. Guards the Clock /
//! Backend refactor (which opened the door to wall-clock time sources)
//! against ever leaking nondeterminism into the sim substrate.

use spire::{Deployment, DeploymentConfig, Scenario};
use spire_sim::Span;

fn run_once(seed: u64, scenario_idx: usize) -> String {
    let mut cfg = DeploymentConfig::wide_area(seed);
    cfg.workload.rtus = 4;
    cfg.workload.update_interval = Span::millis(400);
    // Tracing defaults to the SPIRE_TRACE env var; pin it off so the
    // byte-comparison cannot be perturbed by the environment.
    cfg.trace = false;
    let mut deployment = Deployment::build(cfg);
    let scenario = &Scenario::red_team_suite()[scenario_idx];
    scenario.apply(&mut deployment);
    deployment.run_for(Span::secs(8));
    deployment.report().to_json()
}

#[test]
fn identical_seeds_identical_reports() {
    let a = run_once(42, 0);
    let b = run_once(42, 0);
    assert_eq!(a, b, "same seed produced different reports");
    assert!(a.contains("\"updates_confirmed\""));
}

#[test]
fn identical_seeds_identical_reports_under_attack() {
    // A scenario with fault injection exercises control actions, RNG
    // draws for loss/jitter, and recovery paths.
    let suite_len = Scenario::red_team_suite().len();
    let idx = 3.min(suite_len - 1);
    let a = run_once(7, idx);
    let b = run_once(7, idx);
    assert_eq!(a, b, "attack scenario diverged across identical runs");
}

#[test]
fn different_seeds_differ() {
    // Jitter draws make byte-identical reports across different seeds
    // astronomically unlikely; catches an accidentally ignored seed.
    let a = run_once(1, 0);
    let b = run_once(2, 0);
    assert_ne!(a, b);
}
