//! `Deployment::run` is one call for both substrates: on the simulator it
//! is exactly the hand-stepped primitives, a violation the observer
//! catches there it catches on the real-clock runtime too, and a traced
//! run hands back its trace on either. (That the rt
//! run carries the same monitor, Prometheus file and `health.*` /
//! `invariant.*` vocabulary is `health.rs`'s
//! `report_and_prometheus_carry_health_on_rt`.)

use spire::attack::{Attack, Scenario};
use spire::deployment::{Deployment, DeploymentConfig, HealthOptions, Substrate};
use spire::health::HealthConfig;
use spire_scada::WorkloadConfig;
use spire_sim::json::{self, Json};
use spire_sim::{Span, Time};

fn config(seed: u64) -> DeploymentConfig {
    let mut cfg = DeploymentConfig::wide_area(seed);
    cfg.workload = WorkloadConfig {
        rtus: 6,
        update_interval: Span::millis(200),
        ..Default::default()
    };
    cfg
}

/// Two honest replicas publish different digests for one `(view, seq)`:
/// beyond any fault budget, so only the inspection registry can say it.
fn plant_conflicting_commit(system: &Deployment) -> impl FnOnce() + 'static {
    let inspection = system.groups[0].inspection.clone();
    move || {
        inspection.update(0, |r| r.push_commit(3, 900_000, [0xAA; 32]));
        inspection.update(1, |r| r.push_commit(3, 900_000, [0xBB; 32]));
    }
}

#[test]
fn run_on_sim_is_the_hand_stepped_run() {
    let scenario = Scenario {
        name: "site DoS".into(),
        attacks: vec![Attack::DosSite {
            site: 0,
            from: Time(4_000_000),
            until: Time(8_000_000),
            loss: 0.6,
        }],
        duration: Span::secs(10),
    };
    let span = scenario.duration + Span::secs(2);
    let build = || {
        let mut system = Deployment::build(config(21));
        scenario.apply(&mut system);
        system
    };

    let mut stepped = build();
    let monitor = stepped.install_health_monitor(HealthConfig::default(), Time::ZERO + span);
    stepped.run_for(Span::secs(5));
    stepped.run_for(span - Span::secs(5));
    let by_hand = stepped.report();

    let opts = HealthOptions::default();
    let outcome = build().run(Substrate::Sim, span, Some(opts));
    assert_eq!(outcome.report.to_json(), by_hand.to_json());
    assert!(by_hand.health.snapshots > 0 && by_hand.chaos.invariant_checks > 0);
    let mon = outcome.health.expect("a monitored run returns its monitor");
    assert_eq!(mon.detector.alarms, monitor.lock().unwrap().detector.alarms);
    assert!(!mon.detector.quiet(), "the DoS window went unnoticed");
    assert_eq!((outcome.run.threads, outcome.run.elapsed), (0, span));
    // The world's trace comes back, naming its processes; the run was
    // untraced, so it recorded nothing.
    let trace = &outcome.run.trace;
    assert_eq!(trace.process_name(0), "spines-ov0");
    assert!(!trace.enabled() && trace.recorder().is_empty());
}

#[test]
fn a_traced_rt_run_breaks_latency_down_by_phase() {
    let mut cfg = config(5);
    cfg.trace = true;
    let outcome = Deployment::build(cfg).run(Substrate::Rt { threads: 2 }, Span::secs(3), None);
    let rows = &outcome.report.phase_breakdown;
    for metric in [
        "span.overlay_in_us",
        "span.preorder_us",
        "span.order_us",
        "span.execute_us",
        "span.confirm_us",
        "span.total_us",
        "overlay.hop_us",
    ] {
        let row = rows.iter().find(|row| row.metric == metric);
        assert!(row.is_some_and(|row| row.count > 0), "{metric}: {rows:?}");
    }
    let chrome = outcome.run.trace.chrome_trace();
    let events = json::parse(&chrome).expect("the rt chrome trace is JSON");
    let slices = (events.as_arr().expect("an array of trace events").iter())
        .filter(|ev| ev.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    assert!(slices > 0, "no span slices in the rt trace");
}

#[test]
fn a_planted_violation_is_reported_on_both_substrates() {
    // sim: planted mid-run, caught by the installed checker's next pass.
    let mut system = Deployment::build(config(47));
    system.install_invariant_checker(Span::millis(500), Time(3_000_000));
    let plant = plant_conflicting_commit(&system);
    system
        .world
        .schedule_control(Time(1_000_000), move |_| plant());
    let sim = system.run(Substrate::Sim, Span::secs(3), None);

    // rt: planted in the shared registry before the run starts (closures
    // given to the world do not cross `into_rt`); no checker installed —
    // the control thread runs the pass regardless.
    let system = Deployment::build(config(47));
    plant_conflicting_commit(&system)();
    let rt = system.run(Substrate::Rt { threads: 2 }, Span::secs(2), None);

    for (substrate, outcome) in [("sim", sim), ("rt", rt)] {
        let chaos = &outcome.report.chaos;
        assert!(
            chaos.invariant_violations > 0,
            "{substrate}: planted conflicting commit was not detected"
        );
        assert!(chaos.invariant_checks > 0, "{substrate}: no pass ran");
        assert!(!outcome.report.safety_ok, "{substrate}: verdict ignored it");
    }
}
