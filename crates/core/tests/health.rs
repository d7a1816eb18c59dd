//! End-to-end validation of the live health telemetry layer: the
//! detector flags injected performance attacks within one snapshot
//! interval, stays quiet across a clean multi-seed matrix, and the
//! `health.*` vocabulary reaches the report and the Prometheus export
//! on both substrates.

use spire::attack::Scenario;
use spire::deployment::{Deployment, DeploymentConfig, HealthOptions, RunOutcome, Substrate};
use spire::health::{parse_prometheus, prometheus_text, AlarmKind, HealthConfig};
use spire::report::Provenance;
use spire_sim::json::{self, Json};
use spire_sim::{Span, Time};
use std::collections::BTreeSet;

/// Runs one suite scenario on the simulator with a health monitor
/// installed and returns (monitor snapshot, deployment) for inspection.
fn run_sim_monitored(scenario: &Scenario) -> (spire::health::HealthMonitor, Deployment) {
    let mut system = Deployment::build(DeploymentConfig::wide_area(7));
    scenario.apply(&mut system);
    let horizon = scenario.duration + Span::secs(5);
    let monitor = system.install_health_monitor(HealthConfig::default(), Time::ZERO + horizon);
    system.run_for(horizon);
    let snapshot = monitor.lock().unwrap().clone();
    (snapshot, system)
}

fn suite_entry(name: &str) -> Scenario {
    Scenario::red_team_suite()
        .into_iter()
        .find(|s| s.name.contains(name))
        .unwrap_or_else(|| panic!("no suite scenario named {name:?}"))
}

#[test]
fn leader_delay_raises_slow_leader_within_one_interval() {
    let scenario = suite_entry("delay attack");
    let spire::attack::Attack::Compromise { at, .. } = scenario.attacks[0] else {
        panic!("expected a compromise attack");
    };
    let (mon, _) = run_sim_monitored(&scenario);
    let fired = mon
        .detector
        .first_alarm(AlarmKind::SlowLeader)
        .expect("leader delay must raise a slow-leader alarm");
    // The first window that overlaps the attack closes at most one
    // interval after onset; the alarm must come from that window.
    let interval = mon.config().interval;
    assert!(
        fired.since(at).0 <= 2 * interval.0,
        "slow-leader alarm at {fired} is more than one closed window after onset {at}"
    );
    assert_eq!(mon.verdict(), "SLOW-LEADER");
}

#[test]
fn cc_dos_raises_site_dos_within_one_interval() {
    let scenario = suite_entry("DoS on primary");
    let spire::attack::Attack::DosSite { from, .. } = scenario.attacks[0] else {
        panic!("expected a site-DoS attack");
    };
    let (mon, _) = run_sim_monitored(&scenario);
    let fired = mon
        .detector
        .first_alarm(AlarmKind::SiteDos)
        .expect("site DoS must raise a site-DoS alarm");
    let interval = mon.config().interval;
    assert!(
        fired.since(from).0 <= 2 * interval.0,
        "site-DoS alarm at {fired} is more than one closed window after onset {from}"
    );
}

#[test]
fn disconnected_cc_raises_partition_alarm() {
    let scenario = suite_entry("disconnected");
    let (mon, _) = run_sim_monitored(&scenario);
    assert!(
        mon.detector.first_alarm(AlarmKind::Partition).is_some(),
        "a disconnected control center must eventually read as a partition"
    );
}

#[test]
fn clean_multi_seed_matrix_is_quiet() {
    // Four seeds, no attacks: the detector must stay silent and the SLO
    // tracker must count zero breaches on every run.
    for seed in [1, 2, 3, 4] {
        let mut system = Deployment::build(DeploymentConfig::wide_area(seed));
        let horizon = Span::secs(60);
        let monitor = system.install_health_monitor(HealthConfig::default(), Time::ZERO + horizon);
        system.run_for(horizon);
        let mon = monitor.lock().unwrap();
        assert!(
            mon.detector.quiet(),
            "seed {seed}: clean run raised alarms {:?}",
            mon.detector.alarms
        );
        assert_eq!(
            mon.slo.breaches(),
            0,
            "seed {seed}: clean run breached SLOs"
        );
        assert!(mon.slo.windows > 50, "seed {seed}: monitor barely ran");
    }
}

#[test]
fn report_and_prometheus_carry_health_on_sim() {
    let scenario = suite_entry("no attack");
    let (mon, system) = run_sim_monitored(&scenario);
    assert!(!mon.snapshots().collect::<Vec<_>>().is_empty());

    let report = system.report();
    assert!(report.health.snapshots > 0, "report missed health counters");
    assert!(report.health.quiet());
    let line = report.health_line();
    assert!(line.contains("windows="), "{line}");

    let json = report.to_json_with(&Provenance::of("sim", 0, "deadbeef"));
    assert!(json.contains("\"schema_version\":4"), "{json}");
    assert!(json.contains("\"substrate\":\"sim\""));
    assert!(json.contains("\"git_rev\":\"deadbeef\""));
    assert!(json.contains("\"health\":{"));

    // Golden check: the Prometheus export of a real run parses and
    // carries the health vocabulary alongside the SCADA counters.
    let text = prometheus_text(system.world.metrics());
    let samples = parse_prometheus(&text).expect("prometheus export must parse");
    let get = |n: &str| {
        samples
            .iter()
            .find(|s| s.name == n && s.labels.is_empty())
            .map(|s| s.value)
    };
    assert!(get("spire_health_snapshots").unwrap_or(0.0) > 0.0);
    assert!(get("spire_scada_updates_confirmed").unwrap_or(0.0) > 0.0);
    assert_eq!(get("spire_health_alarm_site_dos"), None);
}

/// The names of the series and counters the observer produced.
fn observer_keys(outcome: &RunOutcome) -> BTreeSet<String> {
    let m = &outcome.run.metrics;
    (m.counter_names().chain(m.series_names()))
        .filter(|name| name.starts_with("health.") || name.starts_with("invariant."))
        .map(str::to_string)
        .collect()
}

/// The keys of one section of the report's JSON.
fn section_keys(outcome: &RunOutcome, section: &str) -> Vec<String> {
    let doc = json::parse(&outcome.report.to_json()).expect("report JSON parses");
    match doc.get(section) {
        Some(Json::Obj(fields)) => fields.iter().map(|(key, _)| key.clone()).collect(),
        other => panic!("report has no {section} object: {other:?}"),
    }
}

#[test]
fn report_and_prometheus_carry_health_on_rt() {
    let mut cfg = DeploymentConfig::wide_area(11);
    cfg.workload.rtus = 6;
    cfg.workload.update_interval = Span::millis(200);
    let prom = std::env::temp_dir().join("spire_health_rt_test.prom");
    let opts = |prom_path: Option<String>| HealthOptions {
        config: HealthConfig {
            interval: Span::millis(500),
            warmup: 1,
            ..HealthConfig::default()
        },
        watch: false,
        prom_path,
    };
    let span = Span::secs(3);
    let path = prom.to_string_lossy().into_owned();
    let outcome = Deployment::build(cfg.clone()).run(
        Substrate::Rt { threads: 2 },
        span,
        Some(opts(Some(path))),
    );

    let mon = outcome
        .health
        .as_ref()
        .expect("rt run must return its monitor");
    assert!(mon.latest().is_some(), "monitor never ticked");
    assert!(outcome.report.health.snapshots > 0);
    assert!(
        outcome.report.chaos.invariant_checks > 0,
        "checker never ticked"
    );
    // The merged trace names the processes; the run was untraced.
    let trace = &outcome.run.trace;
    assert!(trace.process_name(0) == "spines-ov0" && trace.recorder().is_empty());

    let json =
        outcome
            .report
            .to_json_with(&Provenance::of("rt:2", outcome.run.threads, "deadbeef"));
    assert!(json.contains("\"health\":{"), "{json}");
    assert!(json.contains("\"substrate\":\"rt:2\""));
    assert!(json.contains("\"threads\":2"));
    assert!(json.contains("\"cores\":"));

    // The exporter wrote a parseable file with live rt gauges in it, and
    // what is on disk is the final rewrite.
    outcome.exported.as_ref().expect("final Prometheus rewrite");
    let text = std::fs::read_to_string(&prom).expect("prometheus file written");
    let samples = parse_prometheus(&text).expect("rt prometheus export must parse");
    let value = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
    assert_eq!(
        value("spire_health_snapshots"),
        Some(outcome.report.health.snapshots as f64)
    );
    assert!(value("spire_invariant_checks").unwrap_or(0.0) > 0.0);
    assert!(
        samples.iter().any(|s| s.name.starts_with("spire_rt_")),
        "rt gauges missing from export"
    );
    let _ = std::fs::remove_file(&prom);

    // The same build through the same call on the simulator (where the
    // invariant pass runs at the cadence installed): one vocabulary. A
    // clean simulated run produces every unconditional series; rt may add
    // a breach counter of its own on a busy host.
    let mut system = Deployment::build(cfg);
    system.install_invariant_checker(Span::millis(500), Time::ZERO + span);
    let sim = system.run(Substrate::Sim, span, Some(opts(None)));
    let (sim_keys, rt_keys) = (observer_keys(&sim), observer_keys(&outcome));
    assert!(sim_keys.contains("health.snapshots") && sim_keys.contains("invariant.checks"));
    assert!(
        sim_keys.is_subset(&rt_keys),
        "sim produced {sim_keys:?}, rt only {rt_keys:?}"
    );
    for section in ["health", "chaos"] {
        assert_eq!(section_keys(&sim, section), section_keys(&outcome, section));
    }
}
