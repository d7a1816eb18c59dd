//! Full-system tests: the complete Spire deployment (two overlays, Prime
//! replicas running SCADA masters, proxies, devices, HMIs) under normal
//! operation and under the paper's attack scenarios.

use spire::deployment::{Deployment, DeploymentConfig};
use spire::{BaselineDeployment, SLA_MS};
use spire_prime::ByzBehavior;
use spire_scada::WorkloadConfig;
use spire_sim::{Span, Time};

fn quick_workload() -> WorkloadConfig {
    WorkloadConfig {
        rtus: 4,
        update_interval: Span::millis(500),
        hmis: 1,
        command_interval: Span::secs(5),
        ..Default::default()
    }
}

fn secs(s: u64) -> Time {
    Time(s * 1_000_000)
}

#[test]
fn wide_area_normal_operation_meets_sla() {
    let mut cfg = DeploymentConfig::wide_area(1);
    cfg.workload = quick_workload();
    let mut system = Deployment::build(cfg);
    system.run_for(Span::secs(30));
    let report = system.report();
    assert!(report.safety_ok, "safety violated");
    assert!(
        report.delivery_ratio() > 0.97,
        "delivery ratio {} too low ({} of {})",
        report.delivery_ratio(),
        report.updates_confirmed,
        report.updates_sent
    );
    let summary = report.update_summary.expect("has latencies");
    assert!(
        report.sla_fraction > 0.99,
        "SLA fraction {} (summary {summary})",
        report.sla_fraction
    );
    assert_eq!(report.view_changes, 0);
    // Supervisory commands flow HMI -> masters -> proxy -> device.
    assert!(report.commands_actuated > 0, "no commands actuated");
}

/// `pipelining = false` means only a proposal window of one: strictly
/// serial ordering, with eager proposals and link batching still on.
#[test]
fn serial_ordering_without_pipelining_stays_safe_and_live() {
    let mut cfg = DeploymentConfig::wide_area(3);
    cfg.workload = quick_workload();
    cfg.pipelining = false;
    let mut system = Deployment::build(cfg);
    system.run_for(Span::secs(20));
    let report = system.report();
    assert!(report.safety_ok, "safety violated");
    assert!(
        report.delivery_ratio() > 0.97,
        "delivery ratio {} too low ({} of {})",
        report.delivery_ratio(),
        report.updates_confirmed,
        report.updates_sent
    );
    let summary = report.update_summary.expect("has latencies");
    assert!(summary.p50 < SLA_MS, "update p50 over the SLA ({summary})");
}

#[test]
fn survives_compromised_replica_and_site_disconnect() {
    let mut cfg = DeploymentConfig::wide_area(2);
    cfg.workload = quick_workload();
    cfg.byz.insert(4, ByzBehavior::AckWithhold); // a DC replica is hostile
    let mut system = Deployment::build(cfg);
    // Disconnect the *other* data center for 20 s mid-run: f=1 intrusion +
    // one site loss simultaneously, the paper's combined threat model.
    system.schedule_site_disconnect(3, secs(10), secs(30));
    system.run_for(Span::secs(45));
    let report = system.report();
    assert!(report.safety_ok);
    assert!(
        report.delivery_ratio() > 0.9,
        "delivery ratio {}",
        report.delivery_ratio()
    );
}

#[test]
fn dos_on_primary_control_center_is_tolerated() {
    let mut cfg = DeploymentConfig::wide_area(3);
    cfg.workload = quick_workload();
    let mut system = Deployment::build(cfg);
    system.schedule_site_dos(0, secs(10), secs(25), 0.7);
    system.run_for(Span::secs(40));
    let report = system.report();
    assert!(report.safety_ok);
    // Updates keep flowing through the second control center.
    assert!(
        report.delivery_ratio() > 0.9,
        "delivery ratio {} under DoS",
        report.delivery_ratio()
    );
}

#[test]
fn proactive_recovery_cycle_keeps_service_up() {
    let mut cfg = DeploymentConfig::wide_area(4);
    cfg.workload = quick_workload();
    let mut system = Deployment::build(cfg);
    // Recover a replica every 5 s, full round of 6 within the run.
    system.schedule_proactive_recovery(secs(5), Span::secs(5), secs(35));
    system.run_for(Span::secs(45));
    let report = system.report();
    assert!(report.safety_ok);
    assert!(
        report.recoveries.0 >= 6,
        "recoveries {:?}",
        report.recoveries
    );
    assert!(
        report.recoveries.1 >= 6,
        "completions {:?}",
        report.recoveries
    );
    assert!(
        report.delivery_ratio() > 0.9,
        "delivery ratio {}",
        report.delivery_ratio()
    );
}

#[test]
fn baseline_works_in_fair_weather_but_dies_under_cc_outage() {
    // Fair weather: the unreplicated master meets the SLA.
    let mut baseline = BaselineDeployment::build(5, quick_workload(), true);
    baseline.run_for(Span::secs(20));
    let confirmed = baseline.world.metrics().counter("scada.updates_confirmed");
    let sent = baseline.world.metrics().counter("scada.updates_sent");
    assert!(confirmed * 100 >= sent * 95, "{confirmed}/{sent}");

    // Under a 20 s control-center outage, the baseline confirms nothing.
    let mut baseline = BaselineDeployment::build(6, quick_workload(), true);
    baseline.schedule_cc_outage(secs(10), secs(30));
    baseline.run_for(Span::secs(30));
    let metrics = baseline.world.metrics();
    let during_outage = metrics
        .series("scada.update_latency_ms")
        .iter()
        .filter(|(t, _)| t.0 > 11_000_000 && t.0 < 29_000_000)
        .count();
    assert_eq!(during_outage, 0, "baseline should be dead during outage");
}

#[test]
fn equivalent_load_single_site_is_faster_than_wide_area() {
    let mut lan_cfg = DeploymentConfig::lan(7);
    lan_cfg.workload = quick_workload();
    let mut lan = Deployment::build(lan_cfg);
    lan.run_for(Span::secs(20));
    let lan_mean = lan.report().update_summary.unwrap().mean;

    let mut wan_cfg = DeploymentConfig::wide_area(7);
    wan_cfg.workload = quick_workload();
    let mut wan = Deployment::build(wan_cfg);
    wan.run_for(Span::secs(20));
    let wan_mean = wan.report().update_summary.unwrap().mean;

    assert!(
        lan_mean < wan_mean,
        "LAN ({lan_mean} ms) should beat WAN ({wan_mean} ms)"
    );
}

#[test]
fn hmi_polls_and_commands_roundtrip_in_wide_area() {
    let mut cfg = DeploymentConfig::wide_area(9);
    cfg.workload = WorkloadConfig {
        rtus: 3,
        update_interval: Span::millis(500),
        hmis: 1,
        command_interval: Span::secs(4),
        poll_interval: Span::secs(1),
        ..Default::default()
    };
    let mut system = Deployment::build(cfg);
    system.run_for(Span::secs(20));
    let m = system.world.metrics();
    let polls_sent = m.counter("hmi.polls_sent");
    let polls_acked = m.counter("hmi.polls_acked");
    assert!(polls_sent >= 15, "polls_sent={polls_sent}");
    assert!(
        polls_acked * 100 >= polls_sent * 95,
        "polls {polls_acked}/{polls_sent}"
    );
    // Ordered reads pay the same agreement latency as writes.
    let poll_lat = m.values("hmi.poll_latency_ms");
    assert!(!poll_lat.is_empty());
    let report = system.report();
    assert!(report.safety_ok);
    // The last command may still be in flight at the simulation cutoff.
    assert!(
        report.commands_actuated + 1 >= report.commands_issued,
        "actuated {} of {}",
        report.commands_actuated,
        report.commands_issued
    );
}

#[test]
fn compromise_injection_mid_run_is_tolerated() {
    use spire_prime::ByzBehavior;
    let mut cfg = DeploymentConfig::wide_area(10);
    cfg.workload = quick_workload();
    let mut system = Deployment::build(cfg);
    // Replica 2 falls to the attacker at t=10 s and starts diverging.
    system.schedule_compromise(2, ByzBehavior::DivergentExec, secs(10));
    // It is proactively recovered (evicting the intruder) at t=25 s.
    system.schedule_recovery(2, secs(25));
    system.run_for(Span::secs(40));
    let report = system.report();
    // Correct replicas exclude 2 only while it misbehaves; after recovery
    // it is honest again. The coarse check: service never broke.
    assert!(
        report.delivery_ratio() > 0.95,
        "delivery {}",
        report.delivery_ratio()
    );
    let correct: Vec<u32> = (0..6).filter(|r| *r != 2).collect();
    system.groups[0]
        .inspection
        .check_safety(&correct)
        .expect("safety");
}

#[test]
fn sustained_recovery_churn_stays_stable() {
    // Regression test for the summary-sequence reset bug: recoveries every
    // 10 s in perfect resonance with view rotation (each one hits the
    // current leader). The system must sustain full throughput with exactly
    // one view change per recovery and no execution freezes.
    let mut cfg = DeploymentConfig::wide_area(23);
    cfg.workload = WorkloadConfig {
        rtus: 6,
        update_interval: Span::millis(500),
        ..Default::default()
    };
    let mut system = Deployment::build(cfg);
    system.schedule_proactive_recovery(secs(10), Span::secs(10), secs(110));
    system.run_for(Span::secs(120));
    let report = system.report();
    assert!(report.safety_ok);
    assert_eq!(report.recoveries.0, 11);
    assert_eq!(report.recoveries.1, 11, "all recoveries must complete");
    assert!(
        report.delivery_ratio() > 0.97,
        "delivery {}",
        report.delivery_ratio()
    );
    assert_eq!(report.silent_seconds(), 0, "no execution freezes");
    // One clean view change per leader recovery: 6 replicas each count
    // their own VC, so <= ~6 per recovery plus slack.
    assert!(
        report.view_changes <= 11 * 6 + 12,
        "view-change storm: {}",
        report.view_changes
    );
}

/// The one safety verdict: a violation the online checker records — here
/// through an external invariant source — fails the simulator's report
/// exactly as it fails an rt run's.
#[test]
fn report_verdict_includes_the_online_checker() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let mut cfg = DeploymentConfig::wide_area(8);
    cfg.workload = quick_workload();
    let mut system = Deployment::build(cfg);
    let fired = AtomicBool::new(false);
    system.groups[0].checker.add_external(
        "planted",
        std::sync::Arc::new(move || {
            if fired.swap(true, Ordering::SeqCst) {
                Vec::new()
            } else {
                vec!["planted external violation".to_string()]
            }
        }),
    );
    system.install_invariant_checker(Span::secs(1), secs(2));
    system.run_for(Span::secs(2));
    let report = system.report();
    assert_eq!(report.chaos.invariant_violations, 1);
    assert!(
        !report.safety_ok,
        "a checker violation must fail the verdict"
    );
}
