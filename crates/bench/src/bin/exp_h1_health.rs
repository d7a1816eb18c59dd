//! CI health-smoke driver: runs a short workload with the live health
//! monitor installed, writes the Prometheus export, and turns the
//! monitor's verdicts into an exit code.
//!
//! Usage:
//!   `exp_h1_health [--substrate=sim|rt|rt:N] [--secs=S] [--rate=UPS]`
//!   `              [--attack=none|slow-leader|site-dos] [--sla-ms=MS]`
//!   `              [--prom=PATH] [--assert-clean]`
//!   `              [--assert-alarm=slow-leader|site-dos|partition]`
//!
//! * `--rate` — aggregate update rate (updates/s), realised as `rate/5`
//!   RTUs on a 200 ms update interval;
//! * `--attack` — optionally injects a leader-delay compromise or a
//!   site DoS one third into the run, to prove the detector fires;
//! * `--sla-ms` — latency SLO used for grading (default 400 ms: a CI
//!   smoke threshold wide enough for the rt substrate's real-clock
//!   latency profile, not the paper's 100 ms target);
//! * `--assert-clean` — exit 1 unless the run finished with zero
//!   detector alarms and zero SLO breaches;
//! * `--assert-alarm=KIND` — exit 1 unless that alarm fired.
//!
//! The Prometheus export (when requested) is always re-parsed with the
//! strict parser; a non-parsing export fails the run regardless of the
//! assertion flags.

use spire::attack::{Attack, Scenario};
use spire::deployment::{Deployment, DeploymentConfig, HealthOptions, Substrate};
use spire::health::{parse_prometheus, AlarmKind, HealthConfig};
use spire_prime::ByzBehavior;
use spire_scada::WorkloadConfig;
use spire_sim::{Span, Time};

fn fail(msg: &str) -> ! {
    eprintln!("health-smoke FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut substrate = Substrate::Sim;
    let mut secs: u64 = 20;
    let mut rate: u64 = 50;
    let mut attack = "none".to_string();
    let mut sla_ms: f64 = 400.0;
    let mut prom_path: Option<String> = None;
    let mut assert_clean = false;
    let mut assert_alarm: Option<AlarmKind> = None;
    for arg in std::env::args().skip(1) {
        if let Some(which) = arg.strip_prefix("--substrate=") {
            let Some(parsed) = Substrate::parse(which) else {
                fail(&format!("bad substrate {which:?}"));
            };
            substrate = parsed;
        } else if let Some(v) = arg.strip_prefix("--secs=") {
            secs = v.parse().unwrap_or_else(|_| fail("bad --secs"));
        } else if let Some(v) = arg.strip_prefix("--rate=") {
            rate = v.parse().unwrap_or_else(|_| fail("bad --rate"));
        } else if let Some(v) = arg.strip_prefix("--attack=") {
            attack = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--sla-ms=") {
            sla_ms = v.parse().unwrap_or_else(|_| fail("bad --sla-ms"));
        } else if let Some(v) = arg.strip_prefix("--prom=") {
            prom_path = Some(v.to_string());
        } else if arg == "--assert-clean" {
            assert_clean = true;
        } else if let Some(v) = arg.strip_prefix("--assert-alarm=") {
            assert_alarm = Some(match v {
                "slow-leader" => AlarmKind::SlowLeader,
                "site-dos" => AlarmKind::SiteDos,
                "partition" => AlarmKind::Partition,
                other => fail(&format!("bad --assert-alarm={other}")),
            });
        } else {
            fail(&format!("unknown argument {arg}"));
        }
    }

    let mut cfg = DeploymentConfig::wide_area(42);
    // `rate` updates/s aggregate: one RTU per 5 updates/s on a 200 ms
    // interval keeps per-RTU traffic realistic at any rate.
    cfg.workload = WorkloadConfig {
        rtus: (rate / 5).max(1) as u32,
        update_interval: Span::millis(200),
        ..Default::default()
    };
    let horizon = Span::secs(secs);
    let onset = Span::secs(secs / 3);
    let scenario = match attack.as_str() {
        "none" => None,
        "slow-leader" => Some(Scenario {
            name: "smoke: slow leader".into(),
            attacks: vec![Attack::Compromise {
                id: 0,
                behavior: ByzBehavior::LeaderDelay(Span::millis(800)),
                at: Time::ZERO + onset,
            }],
            duration: horizon,
        }),
        "site-dos" => Some(Scenario {
            name: "smoke: site DoS".into(),
            attacks: vec![Attack::DosSite {
                site: 0,
                from: Time::ZERO + onset,
                until: Time::ZERO + horizon,
                loss: 0.6,
            }],
            duration: horizon,
        }),
        other => fail(&format!("bad --attack={other}")),
    };

    let health_cfg = HealthConfig {
        sla_ms,
        ..HealthConfig::default()
    };
    let mut system = Deployment::build(cfg);
    if let Some(s) = &scenario {
        s.apply(&mut system);
    }
    let opts = HealthOptions {
        config: health_cfg,
        watch: false,
        prom_path: prom_path.clone(),
    };
    let outcome = system.run(substrate, horizon, Some(opts));
    let report = outcome.report;
    let mon = outcome
        .health
        .unwrap_or_else(|| fail("the run returned no monitor"));

    println!("{}", report.one_line());
    println!("{}", report.health_line());
    println!(
        "health-smoke: windows={} breaches={} alarms={:?} verdict={}",
        mon.slo.windows,
        mon.slo.breaches(),
        mon.detector.alarms,
        mon.verdict()
    );

    if let Some(path) = &prom_path {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
        let samples = parse_prometheus(&text)
            .unwrap_or_else(|e| fail(&format!("export does not parse: {e}")));
        if !samples.iter().any(|s| s.name == "spire_health_snapshots") {
            fail("export is missing spire_health_snapshots");
        }
        println!(
            "prometheus export: {} samples parsed from {path}",
            samples.len()
        );
    }

    if mon.slo.windows == 0 {
        fail("monitor never graded a window");
    }
    if assert_clean {
        if !mon.detector.quiet() {
            fail(&format!(
                "expected a quiet run, got alarms {:?}",
                mon.detector.alarms
            ));
        }
        if mon.slo.breaches() > 0 {
            fail(&format!(
                "expected zero SLO breaches, got lat={} del={} sil={}",
                mon.slo.latency_breaches, mon.slo.delivery_breaches, mon.slo.silence_breaches
            ));
        }
    }
    if let Some(kind) = assert_alarm {
        match mon.detector.first_alarm(kind) {
            Some(at) => println!("asserted alarm {kind:?} first fired at {at}"),
            None => fail(&format!("expected {kind:?} alarm, none fired")),
        }
    }
    println!("health-smoke OK");
}
