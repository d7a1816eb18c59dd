//! Determinism regression: two simulator runs of the same scenario and
//! seed must produce byte-identical JSON reports. Guards the Clock /
//! Backend refactor (which opened the door to wall-clock time sources)
//! against ever leaking nondeterminism into the sim substrate.
//!
//! The `pinned_*` cases go further and hold the event stream still across
//! commits: each compares a run's `fnv64` digest with a committed constant.
//! Only a change that means to alter the simulator's event stream may
//! update them, and it says so in CHANGES.md.

use spire::{Deployment, DeploymentConfig, Scenario};
use spire_explore::fnv64;
use spire_sim::Span;

fn build(seed: u64, scenario_idx: usize, trace: bool) -> Deployment {
    let mut cfg = DeploymentConfig::wide_area(seed);
    cfg.workload.rtus = 4;
    cfg.workload.update_interval = Span::millis(400);
    // The pinned trace case turns tracing on; the report cases keep it off.
    cfg.trace = trace;
    let mut deployment = Deployment::build(cfg);
    let scenario = &Scenario::red_team_suite()[scenario_idx];
    scenario.apply(&mut deployment);
    deployment.run_for(Span::secs(8));
    deployment
}

fn run_once(seed: u64, scenario_idx: usize) -> String {
    build(seed, scenario_idx, false).report().to_json()
}

/// The attack scenario the attack cases run.
fn attack_idx() -> usize {
    3.min(Scenario::red_team_suite().len() - 1)
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
    let a = run_once(7, attack_idx());
    let b = run_once(7, attack_idx());
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

#[test]
fn pinned_report_digest() {
    let digest = fnv64(run_once(42, 0).as_bytes());
    assert_eq!(
        digest, 0xc37d_f7e8_2ad4_00de,
        "report digest moved: {digest:#018x}"
    );
}

#[test]
fn pinned_attack_report_digest() {
    let digest = fnv64(run_once(7, attack_idx()).as_bytes());
    assert_eq!(
        digest, 0xdf77_e24e_c418_453e,
        "attack report digest moved: {digest:#018x}"
    );
}

#[test]
fn pinned_chrome_trace_digest() {
    let trace = build(42, 0, true).world.tracer().chrome_trace();
    let digest = fnv64(trace.as_bytes());
    assert_eq!(
        digest, 0x2a71_2365_9d52_95bb,
        "Chrome trace digest moved: {digest:#018x}"
    );
}
