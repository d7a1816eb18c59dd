//! Chaos-soak tests: the seeded chaos adversary and the online invariant
//! checker, on both substrates.
//!
//! Tier-1 keeps the runs short (a few simulated/wall seconds); the 60 s
//! soaks and the full red-team-suite-on-rt pass are `#[ignore]`d and run
//! by the dedicated CI `chaos-soak` job with `--ignored`.

use spire::attack::Scenario;
use spire::chaos::ChaosPlan;
use spire::deployment::{Deployment, DeploymentConfig};
use spire_scada::WorkloadConfig;
use spire_sim::{Span, Time};

fn chaos_config(seed: u64) -> DeploymentConfig {
    let mut cfg = DeploymentConfig::wide_area(seed);
    cfg.workload = WorkloadConfig {
        rtus: 6,
        update_interval: Span::millis(500),
        ..Default::default()
    };
    cfg
}

/// Runs one seeded chaos plan on the simulator and returns the report.
fn chaos_run(seed: u64, duration_s: u64) -> spire::Report {
    let cfg = chaos_config(seed);
    let plan = ChaosPlan::generate(seed, &cfg.spire, Span::secs(duration_s));
    let scenario = plan.scenario();
    let mut system = Deployment::build(cfg);
    scenario.apply(&mut system);
    system.run_for(scenario.duration + Span::secs(5));
    system.report()
}

/// A short chaos run at a fixed seed must end clean: the generated fault
/// schedule stays inside the f=1/k=1 envelope, so the protocol has to
/// absorb every injected fault without a safety violation.
#[test]
fn short_chaos_run_is_clean() {
    let report = chaos_run(5, 20);
    assert!(report.safety_ok, "safety broke under the chaos schedule");
    assert_eq!(
        report.chaos.invariant_violations, 0,
        "invariant violations under seed 5: {:?}",
        report.chaos
    );
    assert!(
        report.chaos.invariant_checks > 0,
        "the online checker never ticked"
    );
    assert!(report.updates_confirmed > 0, "system made no progress");
}

/// Chaos is reproducible: the same seed yields byte-identical reports
/// (plan generation, fault application, and the simulated system are all
/// deterministic functions of the seed).
#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let a = chaos_run(11, 15).to_json();
    let b = chaos_run(11, 15).to_json();
    assert_eq!(a, b, "same-seed chaos runs diverged");
}

/// The fault control plane crosses substrates: a kill + proactive
/// recovery scheduled through the deployment replays on the real-clock
/// runtime at wall-clock offsets, with the invariant checker ticking from
/// the control thread.
#[test]
fn chaos_control_plane_runs_on_rt() {
    let mut system = Deployment::build(chaos_config(31));
    system.schedule_kill(4, Time(500_000));
    system.schedule_recovery(4, Time(1_500_000));
    system.install_invariant_checker(Span::millis(500), Time(3_000_000));
    let outcome = system.into_rt(2).run_for(Span::secs(3));
    let m = &outcome.run.metrics;
    assert_eq!(m.counter("rt.crashed"), 1, "kill did not replay on rt");
    assert_eq!(
        m.counter("rt.restarted"),
        1,
        "recovery did not replay on rt"
    );
    assert!(
        m.counter("invariant.checks") > 0,
        "checker never ticked on the rt control thread"
    );
    let r = &outcome.report;
    assert!(r.safety_ok, "safety broke during rt kill/recover");
    assert_eq!(r.chaos.invariant_violations, 0);
    assert!(r.updates_confirmed > 0, "no progress on rt");
}

/// Negative control: an equivocation beyond the declared fault budget —
/// two *honest* replicas publishing conflicting commits for the same
/// sequence — must be caught by the online checker while the run is
/// still in flight. (Injected straight into the inspection registry: by
/// design no in-protocol path can produce this without f+1 collusion.)
#[test]
fn equivocation_beyond_budget_is_caught() {
    let mut system = Deployment::build(chaos_config(47));
    system.install_invariant_checker(Span::millis(500), Time(3_000_000));
    let inspection = system.groups[0].inspection.clone();
    system.world.schedule_control(Time(1_000_000), move |_| {
        inspection.update(0, |r| r.push_commit(3, 900_000, [0xAA; 32]));
        inspection.update(1, |r| r.push_commit(3, 900_000, [0xBB; 32]));
    });
    system.run_for(Span::secs(3));
    let report = system.report();
    assert!(
        report.chaos.invariant_violations > 0,
        "planted conflicting commit was not detected"
    );
    assert!(
        system.groups[0]
            .checker
            .violations()
            .iter()
            .any(|v| v.kind == "conflicting-commit"),
        "violation detected but misclassified: {:?}",
        system.groups[0].checker.violations()
    );
    assert!(
        report.chaos.invariant_checks > 0,
        "checker never ran, so the 'detection' is vacuous"
    );
}

/// The full 60-simulated-second chaos soak over several seeds (CI job).
#[test]
#[ignore = "multi-minute soak; run explicitly (CI chaos-soak job)"]
fn chaos_soak_sixty_seconds_sim() {
    for seed in [1u64, 2, 3] {
        let report = chaos_run(seed, 60);
        assert!(
            report.safety_ok && report.chaos.invariant_violations == 0,
            "chaos seed {seed} broke safety; reproduce with \
             run_scenario --chaos={seed} --duration=60"
        );
        assert!(report.updates_confirmed > 0, "seed {seed}: no progress");
    }
}

/// The same chaos plan on the real-clock substrate: 60 s of wall time
/// with the recorded fault plan replayed at its offsets (CI job).
#[test]
#[ignore = "60s wall-clock soak; run explicitly (CI chaos-soak job)"]
fn chaos_soak_sixty_seconds_rt() {
    let seed = 2u64;
    let cfg = chaos_config(seed);
    let plan = ChaosPlan::generate(seed, &cfg.spire, Span::secs(60));
    let scenario = plan.scenario();
    let mut system = Deployment::build(cfg);
    scenario.apply(&mut system);
    let outcome = system.into_rt(0).run_for(scenario.duration + Span::secs(5));
    let r = &outcome.report;
    assert!(
        r.safety_ok && r.chaos.invariant_violations == 0,
        "chaos seed {seed} broke safety on rt; replay with \
         run_scenario --chaos={seed} --duration=60 --substrate=sim"
    );
    assert!(r.updates_confirmed > 0, "no progress on rt under chaos");
}

/// The whole red-team suite on the real-clock runtime, time-scaled 1/4
/// so the suite stays under a few wall-clock minutes (CI job). Safety
/// must hold and the system must keep confirming updates under every
/// attack.
#[test]
#[ignore = "multi-minute wall-clock suite; run explicitly (CI chaos-soak job)"]
fn red_team_suite_on_rt() {
    for (i, scenario) in Scenario::red_team_suite().iter().enumerate() {
        let scenario = scenario.scaled(1, 4);
        let mut system = Deployment::build(chaos_config(9000 + i as u64));
        scenario.apply(&mut system);
        let outcome = system.into_rt(0).run_for(scenario.duration + Span::secs(3));
        let r = &outcome.report;
        assert!(
            r.safety_ok && r.chaos.invariant_violations == 0,
            "scenario {:?} broke safety on rt",
            scenario.name
        );
        assert!(
            r.updates_confirmed > 0,
            "scenario {:?} stalled on rt (sent {}, confirmed 0)",
            scenario.name,
            r.updates_sent
        );
    }
}
