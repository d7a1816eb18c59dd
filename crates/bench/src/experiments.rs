//! Implementations of the paper's evaluation experiments (tables T1-T3,
//! figures F1-F6). Each function prints the table/series the corresponding
//! paper artifact reports; binaries in `src/bin/` run them at full scale
//! and `benches/experiments.rs` at reduced scale.

use crate::{bucket_timeline, fmt_summary, header, parallel_runs};
use spire::attack::Scenario;
use spire::deployment::{Deployment, DeploymentConfig, Substrate};
use spire::{BaselineDeployment, SpireConfig};
use spire_prime::{ByzBehavior, ProtocolMode};
use spire_scada::WorkloadConfig;
use spire_sim::stats::{fraction_within, percentile, Summary};
use spire_sim::{Span, Time};

fn secs(s: u64) -> Time {
    Time(s * 1_000_000)
}

/// When the deployment ran with tracing on (`SPIRE_TRACE` set), prints
/// the per-phase latency breakdown and writes the Chrome trace + JSONL
/// event dumps to `spire-trace-<tag>.{json,jsonl}`.
pub fn trace_hooks(system: &Deployment, report: &spire::Report, tag: &str) {
    if !system.cfg.trace {
        return;
    }
    let table = report.phase_table();
    if !table.is_empty() {
        println!("\nper-phase latency breakdown ({tag}):\n{table}");
    }
    let chrome = format!("spire-trace-{tag}.json");
    match system.export_chrome_trace(&chrome) {
        Ok(()) => {
            println!("chrome trace -> {chrome} (load in chrome://tracing or ui.perfetto.dev)")
        }
        Err(e) => eprintln!("chrome trace export failed: {e}"),
    }
    let jsonl = format!("spire-trace-{tag}.jsonl");
    match system.export_events_jsonl(&jsonl) {
        Ok(()) => println!("flight-recorder events -> {jsonl}"),
        Err(e) => eprintln!("event export failed: {e}"),
    }
}

/// T1 — resource requirements: replicas needed for (f, k), with and
/// without tolerance to one site disconnection, vs prior systems.
pub fn t1_configurations() {
    header(
        "T1: replicas required (3f+2k+1 analysis)",
        "  f  k |  BFT(3f+1) | +recovery (3f+2k+1) | +1-site-loss: 2 sites  4 sites  6 sites",
    );
    for f in 1..=3u32 {
        for k in 0..=2u32 {
            let bft = 3 * f + 1;
            let spire_n = spire::required_replicas(f, k);
            let over = |sites| {
                SpireConfig::min_replicas_site_tolerant(f, k, sites)
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "-".to_string())
            };
            println!(
                "  {f}  {k} | {bft:>10} | {spire_n:>19} | {:>21} {:>8} {:>8}",
                over(2),
                over(4),
                over(6)
            );
        }
    }
    println!("\nPaper's deployed configuration: f=1, k=1 -> 6 replicas as 2+2+1+1");
    println!("over 2 control centers + 2 data centers (site-loss tolerant).");
    let cfg = SpireConfig::spread(1, 1, 2);
    assert!(cfg.validate(true).is_ok());
}

/// T2 — long-running wide-area deployment: latency statistics and SLA
/// conformance over `duration_s` simulated seconds with periodic proactive
/// recoveries (the paper's 30-hour wide-area test, time-scaled).
pub fn t2_longrun(duration_s: u64) -> Summary {
    let mut cfg = DeploymentConfig::wide_area(2024);
    cfg.workload = WorkloadConfig {
        rtus: 10,
        update_interval: Span::secs(1),
        hmis: 1,
        command_interval: Span::secs(30),
        ..Default::default()
    };
    let mut system = Deployment::build(cfg);
    // One proactive recovery per minute, round-robin over the 6 replicas.
    system.schedule_proactive_recovery(secs(30), Span::secs(60), secs(duration_s));
    system.run_for(Span::secs(duration_s));
    let report = system.report();
    let summary = report.update_summary.expect("updates flowed");
    header(
        &format!("T2: wide-area long run ({duration_s} simulated seconds)"),
        "metric                         value",
    );
    println!("updates sent                   {}", report.updates_sent);
    println!(
        "updates confirmed              {}",
        report.updates_confirmed
    );
    println!(
        "delivery ratio                 {:.4}",
        report.delivery_ratio()
    );
    println!("mean latency                   {:.2} ms", summary.mean);
    println!("median latency                 {:.2} ms", summary.p50);
    println!("99th percentile                {:.2} ms", summary.p99);
    println!("99.9th percentile              {:.2} ms", summary.p999);
    println!("max latency                    {:.2} ms", summary.max);
    println!(
        "within 100 ms SLA              {:.3} %",
        report.sla_fraction * 100.0
    );
    println!(
        "proactive recoveries           {} started / {} completed",
        report.recoveries.0, report.recoveries.1
    );
    println!("view changes                   {}", report.view_changes);
    println!("silent seconds                 {}", report.silent_seconds());
    println!(
        "safety                         {}",
        if report.safety_ok { "OK" } else { "VIOLATED" }
    );
    trace_hooks(&system, &report, "t2");
    summary
}

/// F1 — CDF of end-to-end update latency: wide-area vs single-site LAN.
pub fn f1_latency_cdf(duration_s: u64) {
    let run = move |lan: bool| {
        let mut cfg = if lan {
            DeploymentConfig::lan(77)
        } else {
            DeploymentConfig::wide_area(77)
        };
        cfg.workload = WorkloadConfig {
            rtus: 10,
            update_interval: Span::millis(500),
            ..Default::default()
        };
        let mut system = Deployment::build(cfg);
        system.run_for(Span::secs(duration_s));
        let report = system.report();
        trace_hooks(&system, &report, if lan { "f1-lan" } else { "f1-wan" });
        report.update_latencies_ms
    };
    let jobs: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>> =
        vec![Box::new(move || run(false)), Box::new(move || run(true))];
    let mut results = parallel_runs(jobs);
    let lan = results.pop().unwrap();
    let wan = results.pop().unwrap();
    header(
        "F1: update latency CDF (proxy -> f+1 confirmations)",
        "percentile |   LAN (1 site)   | wide-area (2CC+2DC)",
    );
    for pct in [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9] {
        println!(
            "  {pct:>6.1}% | {:>13.2} ms | {:>16.2} ms",
            percentile(&lan, pct),
            percentile(&wan, pct)
        );
    }
    println!(
        "within 100ms SLA: LAN {:.2}%, wide-area {:.2}%",
        fraction_within(&lan, 100.0) * 100.0,
        fraction_within(&wan, 100.0) * 100.0
    );
}

/// F2 — latency/throughput timeline across proactive recovery events.
pub fn f2_recovery_timeline(duration_s: u64, recovery_period_s: u64) {
    let mut cfg = DeploymentConfig::wide_area(88);
    cfg.workload = WorkloadConfig {
        rtus: 8,
        update_interval: Span::millis(500),
        ..Default::default()
    };
    let mut system = Deployment::build(cfg);
    system.schedule_proactive_recovery(
        secs(recovery_period_s),
        Span::secs(recovery_period_s),
        secs(duration_s),
    );
    system.run_for(Span::secs(duration_s));
    let report = system.report();
    trace_hooks(&system, &report, "f2");
    header(
        &format!(
            "F2: timeline with a proactive recovery every {recovery_period_s} s (offered: 16 updates/s)"
        ),
        "  t(s) | updates confirmed | mean latency",
    );
    for (t, count, mean) in bucket_timeline(&report.update_timeline, 5, duration_s) {
        let marker = if t > 0 && (t % recovery_period_s) < 5 {
            "  <- recovery"
        } else {
            ""
        };
        println!("  {t:>4} | {count:>17} | {mean:>9.1} ms{marker}");
    }
    println!(
        "recoveries completed: {} / {}; safety {}",
        report.recoveries.1,
        report.recoveries.0,
        if report.safety_ok { "OK" } else { "VIOLATED" }
    );
}

/// F3 — behaviour under network attack: DoS then full disconnection of the
/// primary control center; Spire vs the single-CC baseline.
pub fn f3_network_attack(duration_s: u64) {
    let dos_from = duration_s / 4;
    let cut_from = duration_s / 2;
    let repair = duration_s * 3 / 4;
    let workload = WorkloadConfig {
        rtus: 8,
        update_interval: Span::millis(500),
        ..Default::default()
    };

    let spire_timeline = {
        let mut cfg = DeploymentConfig::wide_area(99);
        cfg.workload = workload;
        let mut system = Deployment::build(cfg);
        system.schedule_site_dos(0, secs(dos_from), secs(cut_from), 0.7);
        system.schedule_site_disconnect(0, secs(cut_from), secs(repair));
        system.run_for(Span::secs(duration_s));
        let report = system.report();
        assert!(report.safety_ok, "safety violated under network attack");
        trace_hooks(&system, &report, "f3");
        report.update_timeline
    };
    let baseline_timeline = {
        let mut baseline = BaselineDeployment::build(99, workload, true);
        baseline.schedule_cc_outage(secs(cut_from), secs(repair));
        // Model the DoS phase as heavy loss on the CC links too.
        baseline.run_for(Span::secs(duration_s));
        baseline
            .world
            .metrics()
            .series("scada.update_latency_ms")
            .to_vec()
    };
    header(
        &format!(
            "F3: DoS on CC1 at {dos_from}s, disconnection {cut_from}s-{repair}s (offered: 16 updates/s)"
        ),
        "  t(s) | Spire confirmed / mean | baseline confirmed / mean",
    );
    let spire_rows = bucket_timeline(&spire_timeline, 5, duration_s);
    let base_rows = bucket_timeline(&baseline_timeline, 5, duration_s);
    for (s_row, b_row) in spire_rows.iter().zip(base_rows.iter()) {
        let phase = if s_row.0 >= cut_from && s_row.0 < repair {
            " <- CC1 cut"
        } else if s_row.0 >= dos_from && s_row.0 < cut_from {
            " <- CC1 DoS"
        } else {
            ""
        };
        println!(
            "  {:>4} | {:>9} {:>8.1}ms | {:>12} {:>8.1}ms{phase}",
            s_row.0, s_row.1, s_row.2, b_row.1, b_row.2
        );
    }
}

/// F4 — latency vs offered load: Spire (wide-area, 6 replicas) vs the
/// unreplicated baseline, sweeping the per-RTU update interval.
pub fn f4_throughput(duration_s: u64) {
    header(
        "F4: latency vs offered load (10 RTUs)",
        "  updates/s | Spire mean / p99 / delivered      | baseline mean / p99 / delivered",
    );
    let intervals_ms = [1000u64, 500, 200, 100, 50, 20, 10];
    type Row = (f64, Option<Summary>, f64, Option<Summary>, f64);
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = intervals_ms
        .iter()
        .map(|interval| {
            let interval = *interval;
            Box::new(move || {
                let workload = WorkloadConfig {
                    rtus: 10,
                    update_interval: Span::millis(interval),
                    ..Default::default()
                };
                let offered = workload.updates_per_second();
                let mut cfg = DeploymentConfig::wide_area(3000 + interval);
                cfg.workload = workload;
                let mut system = Deployment::build(cfg);
                system.run_for(Span::secs(duration_s));
                let report = system.report();
                trace_hooks(&system, &report, &format!("f4-{interval}ms"));
                let mut baseline = BaselineDeployment::build(3000 + interval, workload, true);
                baseline.run_for(Span::secs(duration_s));
                let m = baseline.world.metrics();
                let base_lat = m.values("scada.update_latency_ms");
                let base_ratio = if m.counter("scada.updates_sent") == 0 {
                    0.0
                } else {
                    m.counter("scada.updates_confirmed") as f64
                        / m.counter("scada.updates_sent") as f64
                };
                (
                    offered,
                    report.update_summary,
                    report.delivery_ratio(),
                    Summary::of(&base_lat),
                    base_ratio,
                )
            }) as Box<dyn FnOnce() -> Row + Send>
        })
        .collect();
    for (offered, spire_sum, spire_ratio, base_sum, base_ratio) in parallel_runs(jobs) {
        let fmt = |s: &Option<Summary>| match s {
            Some(s) => format!("{:>7.1} / {:>7.1}", s.mean, s.p99),
            None => "      - /      -".to_string(),
        };
        println!(
            "  {offered:>9.0} | {} / {:>5.1}% | {} / {:>5.1}%",
            fmt(&spire_sum),
            spire_ratio * 100.0,
            fmt(&base_sum),
            base_ratio * 100.0
        );
    }
}

/// F5 — the leader performance attack: latency under a proposal-delaying
/// leader, Prime vs PBFT-like, sweeping the injected delay.
pub fn f5_leader_attack(duration_s: u64) {
    header(
        "F5: malicious leader delaying proposals (update latency)",
        "  delay(ms) | Prime p50 / view-changes | PBFT-like p50 / view-changes",
    );
    let delays_ms = [0u64, 200, 500, 900, 1500];
    type Row = (u64, f64, u64, f64, u64);
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = delays_ms
        .iter()
        .map(|delay| {
            let delay = *delay;
            Box::new(move || {
                let run = |mode: ProtocolMode| {
                    let mut cfg = DeploymentConfig::wide_area(4000 + delay);
                    cfg.mode = mode;
                    cfg.workload = WorkloadConfig {
                        rtus: 5,
                        update_interval: Span::millis(500),
                        ..Default::default()
                    };
                    if delay > 0 {
                        cfg.byz
                            .insert(0, ByzBehavior::LeaderDelay(Span::millis(delay)));
                    }
                    let mut system = Deployment::build(cfg);
                    system.run_for(Span::secs(duration_s));
                    let report = system.report();
                    trace_hooks(&system, &report, &format!("f5-{mode:?}-{delay}ms"));
                    let p50 = if report.update_latencies_ms.is_empty() {
                        f64::NAN
                    } else {
                        percentile(&report.update_latencies_ms, 50.0)
                    };
                    (p50, report.view_changes)
                };
                let (prime_p50, prime_vc) = run(ProtocolMode::Prime);
                let (pbft_p50, pbft_vc) = run(ProtocolMode::PbftLike);
                (delay, prime_p50, prime_vc, pbft_p50, pbft_vc)
            }) as Box<dyn FnOnce() -> Row + Send>
        })
        .collect();
    for (delay, prime_p50, prime_vc, pbft_p50, pbft_vc) in parallel_runs(jobs) {
        println!(
            "  {delay:>9} | {prime_p50:>9.1} ms / {prime_vc:>4} | {pbft_p50:>12.1} ms / {pbft_vc:>4}"
        );
    }
    println!("\nShape check: Prime's p50 stays near the no-attack level (the slow");
    println!("leader is replaced); the PBFT-like p50 grows with the injected delay.");
}

/// F6 — overlay dissemination resilience: delivery ratio vs number of
/// failed overlay nodes for each dissemination mode.
pub fn f6_overlay_resilience(messages: u32) {
    use bytes::Bytes;
    use spire_crypto::{KeyMaterial, KeyStore};
    use spire_sim::{Context, LinkConfig, Process, ProcessId, World};
    use spire_spines::{
        DaemonBehavior, DaemonConfig, Dissemination, OverlayAddr, OverlayId, OverlayNetwork,
        SpinesPort, Topology,
    };
    use std::sync::Arc;

    struct Rx {
        port: SpinesPort,
    }
    impl Process for Rx {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.port.attach(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
            if SpinesPort::decode_deliver(bytes).is_some() {
                ctx.count("f6.rx", 1);
            }
        }
    }
    struct Tx {
        port: SpinesPort,
        dst: OverlayAddr,
        mode: Dissemination,
        remaining: u32,
    }
    impl Process for Tx {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.port.attach(ctx);
            ctx.set_timer(Span::millis(20), 1);
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            if self.remaining > 0 {
                self.remaining -= 1;
                self.port.send(
                    ctx,
                    self.dst,
                    self.mode,
                    false,
                    Bytes::from_static(&[0u8; 64]),
                );
                ctx.set_timer(Span::millis(20), 1);
            }
        }
    }

    // 12-node overlay: ring + two chords (three disjoint paths 0 -> 6).
    let build_topology = || {
        let mut t = Topology::ring(12, 10);
        t.add_edge(OverlayId(0), OverlayId(4), 12);
        t.add_edge(OverlayId(4), OverlayId(8), 12);
        t.add_edge(OverlayId(2), OverlayId(10), 12);
        t
    };
    header(
        "F6: overlay delivery ratio vs failed daemons (12-node overlay)",
        "  failed | shortest-path | 3 disjoint paths | constrained flooding",
    );
    for failures in 0..=4u16 {
        let mut ratios = Vec::new();
        for mode in [
            Dissemination::Shortest,
            Dissemination::DisjointPaths(3),
            Dissemination::Flood,
        ] {
            let traced = std::env::var_os("SPIRE_TRACE").is_some();
            let mut world = World::new(1000 + failures as u64);
            let material = KeyMaterial::new([6u8; 32]);
            let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
            let topology = build_topology();
            let net = OverlayNetwork::build(
                &mut world,
                &topology,
                DaemonConfig::default(),
                &material,
                &keystore,
                0,
                |_, _| LinkConfig::wan(5),
                |_| DaemonBehavior::Honest,
            );
            if traced {
                world.enable_tracing(16_384);
                for node in topology.nodes() {
                    let pid = net.daemon_pid(node);
                    world.tracer_mut().mark_overlay(pid.0);
                }
            }
            let rx_port = SpinesPort::new(
                net.daemon_pid(OverlayId(6)),
                OverlayAddr {
                    node: OverlayId(6),
                    port: 1,
                },
            );
            let rx = world.add_process("rx", Box::new(Rx { port: rx_port }));
            net.wire_client(&mut world, OverlayId(6), rx);
            let tx_port = SpinesPort::new(
                net.daemon_pid(OverlayId(0)),
                OverlayAddr {
                    node: OverlayId(0),
                    port: 2,
                },
            );
            let tx = world.add_process(
                "tx",
                Box::new(Tx {
                    port: tx_port,
                    dst: OverlayAddr {
                        node: OverlayId(6),
                        port: 1,
                    },
                    mode,
                    remaining: messages,
                }),
            );
            net.wire_client(&mut world, OverlayId(0), tx);
            // Fail daemons at t=1s, chosen for a stepwise story: the first
            // kill (5) breaks the shortest path 0-4-5-6; the second (9)
            // breaks the second disjoint path 0-11-...-6; flooding survives
            // every kill because 0-4-8-7-6 stays connected throughout.
            let victims = [5u16, 9, 11, 3];
            for v in victims.iter().take(failures as usize) {
                let pid = net.daemon_pid(OverlayId(*v));
                world.schedule_control(Time(1_000_000), move |w| w.crash(pid));
            }
            world.run_for(Span::secs(60));
            let delivered = world.metrics().counter("f6.rx");
            if traced && failures == 0 {
                if let Some(h) = world.metrics().histogram("overlay.hop_us") {
                    println!(
                        "  [trace] {mode:?}: {} overlay hops, mean {:.0} us, p99 {:.0} us",
                        h.count(),
                        h.mean(),
                        h.percentile(99.0)
                    );
                }
            }
            ratios.push(delivered as f64 / messages as f64);
        }
        println!(
            "  {failures:>6} | {:>12.1}% | {:>15.1}% | {:>19.1}%",
            ratios[0] * 100.0,
            ratios[1] * 100.0,
            ratios[2] * 100.0
        );
    }
    println!("\nShape check: shortest-path degrades once its path dies until");
    println!("re-routing converges; flooding survives anything that leaves the");
    println!("graph connected.");
}

/// Ablation A1 — Spines per-source fairness on/off under a flooding
/// attacker (the DESIGN.md design-choice ablation).
pub fn a1_fairness(messages: u32) {
    use bytes::Bytes;
    use spire_crypto::{KeyMaterial, KeyStore};
    use spire_sim::{Context, LinkConfig, Process, ProcessId, World};
    use spire_spines::{
        DaemonBehavior, DaemonConfig, Dissemination, OverlayAddr, OverlayId, OverlayNetwork,
        SpinesPort, Topology,
    };
    use std::sync::Arc;

    struct Rx {
        port: SpinesPort,
    }
    impl Process for Rx {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.port.attach(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
            if SpinesPort::decode_deliver(bytes).is_some() {
                ctx.count("a1.rx", 1);
            }
        }
    }
    struct Tx {
        port: SpinesPort,
        dst: OverlayAddr,
        remaining: u32,
        interval: Span,
    }
    impl Process for Tx {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.port.attach(ctx);
            ctx.set_timer(self.interval, 1);
        }
        fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            if self.remaining > 0 {
                self.remaining -= 1;
                self.port.send(
                    ctx,
                    self.dst,
                    Dissemination::Flood,
                    false,
                    Bytes::from_static(&[0u8; 256]),
                );
                ctx.set_timer(self.interval, 1);
            }
        }
    }

    header(
        "A1 (ablation): flooding attacker vs per-source fairness",
        "  fairness | legitimate delivered | attacker msgs | rate-limited drops",
    );
    for fairness in [true, false] {
        let mut cfg = DaemonConfig::default();
        if !fairness {
            cfg.flood_rate_per_source = f64::INFINITY;
            cfg.flood_burst = f64::INFINITY;
        } else {
            // Tight budget so the contrast is visible at bench scale.
            cfg.flood_rate_per_source = 200.0;
            cfg.flood_burst = 50.0;
        }
        let mut world = World::new(31337);
        let material = KeyMaterial::new([8u8; 32]);
        let keystore = Arc::new(KeyStore::for_nodes(&material, 64));
        let topology = Topology::ring(6, 10);
        // Narrow links so the attacker can actually congest them.
        let net = OverlayNetwork::build(
            &mut world,
            &topology,
            cfg,
            &material,
            &keystore,
            0,
            |_, _| LinkConfig::wan(5).with_bandwidth(2_000_000),
            |_| DaemonBehavior::Honest,
        );
        let rx_port = SpinesPort::new(
            net.daemon_pid(OverlayId(3)),
            OverlayAddr {
                node: OverlayId(3),
                port: 1,
            },
        );
        let rx = world.add_process("rx", Box::new(Rx { port: rx_port }));
        net.wire_client(&mut world, OverlayId(3), rx);
        let legit_port = SpinesPort::new(
            net.daemon_pid(OverlayId(0)),
            OverlayAddr {
                node: OverlayId(0),
                port: 2,
            },
        );
        let legit = world.add_process(
            "legit",
            Box::new(Tx {
                port: legit_port,
                dst: OverlayAddr {
                    node: OverlayId(3),
                    port: 1,
                },
                remaining: messages,
                interval: Span::millis(50),
            }),
        );
        net.wire_client(&mut world, OverlayId(0), legit);
        // Three flooding attackers behind different daemons, together ~4x
        // the links' capacity for the whole legitimate send window.
        for (i, node) in [1u16, 4, 5].into_iter().enumerate() {
            let attacker_port = SpinesPort::new(
                net.daemon_pid(OverlayId(node)),
                OverlayAddr {
                    node: OverlayId(node),
                    port: 30 + i as u16,
                },
            );
            let attacker = world.add_process(
                &format!("attacker-{i}"),
                Box::new(Tx {
                    port: attacker_port,
                    dst: OverlayAddr {
                        node: OverlayId(2),
                        port: 9,
                    },
                    remaining: messages * 100,
                    interval: Span::micros(500),
                }),
            );
            net.wire_client(&mut world, OverlayId(node), attacker);
        }
        world.run_for(Span::secs(120));
        println!(
            "  {:>8} | {:>19.1}% | {:>13} | {:>18}",
            if fairness { "on" } else { "off" },
            world.metrics().counter("a1.rx") as f64 / messages as f64 * 100.0,
            messages * 300,
            world.metrics().counter("spines.flood_rate_limited"),
        );
    }
    println!("\nShape check: with fairness off, the attacker's flood congests the");
    println!("narrow links and legitimate delivery collapses; with per-source");
    println!("rate limits on, the attacker is clamped and delivery is unaffected.");
}

/// Ablation A2 — dual-homed vs single-homed substations under the loss of
/// the primary control center.
pub fn a2_dual_homing(duration_s: u64) {
    header(
        "A2 (ablation): substation homing vs loss of the primary CC",
        "  homing | confirmed during outage | confirmed overall",
    );
    let cut_from = duration_s / 3;
    let cut_until = duration_s * 2 / 3;
    for dual in [true, false] {
        let mut cfg = DeploymentConfig::wide_area(555);
        cfg.dual_homed_substations = dual;
        cfg.workload = WorkloadConfig {
            rtus: 6,
            update_interval: Span::millis(500),
            ..Default::default()
        };
        let mut system = Deployment::build(cfg);
        system.schedule_site_disconnect(0, secs(cut_from), secs(cut_until));
        system.run_for(Span::secs(duration_s));
        let report = system.report();
        let during: usize = report
            .update_timeline
            .iter()
            .filter(|(t, _)| t.0 > (cut_from + 5) * 1_000_000 && t.0 < cut_until * 1_000_000)
            .count();
        println!(
            "  {:>6} | {:>23} | {:>16.1}%",
            if dual { "dual" } else { "single" },
            during,
            report.delivery_ratio() * 100.0
        );
    }
    println!("\nShape check: dual-homed substations keep reporting through the");
    println!("outage via the second control center; single-homed ones go dark.");
}

/// Ablation A3 — amortized authentication: signature operations per
/// delivered update with real ed25519, per-message vs Merkle batch
/// signing, with the mock-signature fast path as the reference row.
pub fn a3_amortized_auth(duration_s: u64) -> (f64, f64) {
    header(
        "A3 (perf): signature amortization (6 replicas, 20 RTUs @ 20/s, real ed25519)",
        "  config            | signs/update | cache hit% | msgs/flush | delivery | safety",
    );
    type Row = (&'static str, f64, f64, f64, f64, bool, f64);
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = [
        ("mock per-message", true, false),
        ("real per-message", false, false),
        ("real batch-signed", false, true),
    ]
    .into_iter()
    .map(|(name, mock, batch)| {
        Box::new(move || {
            let started = std::time::Instant::now();
            let mut cfg = DeploymentConfig::wide_area(6100);
            cfg.mock_sigs = mock;
            cfg.batch_signing = batch;
            // An 8 ms signing window keeps p99 within the 100 ms SLA while
            // filling batches at this offered load (~400 updates/s).
            cfg.batch_interval = Span::millis(8);
            cfg.workload = WorkloadConfig {
                rtus: 20,
                update_interval: Span::millis(50),
                ..Default::default()
            };
            let mut system = Deployment::build(cfg);
            system.run_for(Span::secs(duration_s));
            let report = system.report();
            let hits = report.auth.verify_cache_hits as f64;
            let looked_up = hits + report.auth.verify_ops as f64;
            let hit_pct = if looked_up > 0.0 {
                hits / looked_up * 100.0
            } else {
                0.0
            };
            (
                name,
                report.signs_per_update(),
                hit_pct,
                report.auth.amortization_factor(),
                report.delivery_ratio(),
                report.safety_ok,
                started.elapsed().as_secs_f64(),
            )
        }) as Box<dyn FnOnce() -> Row + Send>
    })
    .collect();
    let rows = parallel_runs(jobs);
    for (name, spu, hit_pct, amortize, delivery, safety, wall_s) in &rows {
        println!(
            "  {name:<17} | {spu:>12.2} | {hit_pct:>9.1}% | {amortize:>10.1} | {:>7.1}% | {} ({wall_s:.0}s wall)",
            delivery * 100.0,
            if *safety { "OK" } else { "VIOLATED" }
        );
    }
    let per_msg = rows[1].1;
    let batched = rows[2].1;
    println!("\nShape check: batch signing amortizes one root signature over every");
    println!("vote, reply, and PO-request issued within one signing window,");
    println!(
        "cutting signature ops per delivered update by {:.1}x with identical",
        per_msg / batched
    );
    println!("safety and delivery.");
    (per_msg, batched)
}

/// F6-chaos — the seeded chaos adversary matrix: each row is one
/// reproducible randomized fault schedule (crash/recover churn, rolling
/// recoveries, compromises within the `f` budget, site DoS/disconnect
/// windows, wire faults) with the online invariant checker running
/// throughout. Every row must end with zero violations: the chaos plan
/// stays within the tolerated fault envelope by construction, so any
/// violation is a protocol bug — reproducible by its seed.
pub fn f6_chaos(seeds: &[u64], duration_s: u64) -> bool {
    use spire::chaos::ChaosPlan;
    header(
        &format!("F6-chaos: seeded chaos runs ({duration_s} simulated seconds each)"),
        "  seed | events | delivery |   SLA  | VCs | recov | corrupt/dup frames | checks | violations",
    );
    type Row = (u64, usize, f64, f64, u64, (u64, u64), u64, u64, u64, u64);
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = seeds
        .iter()
        .map(|&seed| {
            Box::new(move || {
                let mut cfg = DeploymentConfig::wide_area(seed);
                cfg.workload = WorkloadConfig {
                    rtus: 6,
                    update_interval: Span::millis(500),
                    ..Default::default()
                };
                let plan = ChaosPlan::generate(seed, &cfg.spire, Span::secs(duration_s));
                let scenario = plan.scenario();
                let mut system = Deployment::build(cfg);
                scenario.apply(&mut system);
                system.run_for(scenario.duration + Span::secs(5));
                let report = system.report();
                (
                    seed,
                    plan.log.len(),
                    report.delivery_ratio(),
                    report.sla_fraction,
                    report.view_changes,
                    report.recoveries,
                    report.chaos.corrupted_frames,
                    report.chaos.duplicated_frames,
                    report.chaos.invariant_checks,
                    report.chaos.invariant_violations,
                )
            }) as Box<dyn FnOnce() -> Row + Send>
        })
        .collect();
    let mut all_clean = true;
    for (seed, events, delivery, sla, vcs, recov, corrupt, dup, checks, violations) in
        parallel_runs(jobs)
    {
        all_clean &= violations == 0;
        println!(
            "  {seed:>4} | {events:>6} | {:>7.1}% | {:>5.1}% | {vcs:>3} | {}/{} | {corrupt:>8} / {dup:<8} | {checks:>6} | {violations:>10}",
            delivery * 100.0,
            sla * 100.0,
            recov.1,
            recov.0,
        );
        if violations > 0 {
            println!("       ^ REPRODUCE: run_scenario --chaos={seed} --duration={duration_s}");
        }
    }
    println!(
        "\nShape check: every seed ends with zero invariant violations — the\n\
         generated fault schedules stay within the f={}/k={} envelope, so the\n\
         protocol must absorb them all.",
        1, 1
    );
    all_clean
}

/// T3 — the red-team scenario matrix.
pub fn t3_red_team() {
    header(
        "T3: red-team scenario matrix (f=1, k=1, 6 replicas, 6 RTUs)",
        "scenario                                         | safety | delivery |   SLA  | VCs",
    );
    type Row = (String, bool, f64, f64, u64);
    let jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = Scenario::red_team_suite()
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            Box::new(move || {
                let mut cfg = DeploymentConfig::wide_area(7000 + i as u64);
                cfg.workload = WorkloadConfig {
                    rtus: 6,
                    update_interval: Span::millis(500),
                    ..Default::default()
                };
                let mut system = Deployment::build(cfg);
                scenario.apply(&mut system);
                system.run_for(scenario.duration + Span::secs(5));
                let report = system.report();
                (
                    scenario.name.clone(),
                    report.safety_ok,
                    report.delivery_ratio(),
                    report.sla_fraction,
                    report.view_changes,
                )
            }) as Box<dyn FnOnce() -> Row + Send>
        })
        .collect();
    for (name, safety, delivery, sla, vcs) in parallel_runs(jobs) {
        println!(
            "{name:<48} | {:>6} | {:>7.1}% | {:>5.1}% | {vcs:>3}",
            if safety { "OK" } else { "BROKEN" },
            delivery * 100.0,
            sla * 100.0
        );
    }
}

/// RT — substrate throughput comparison: the same 6-replica f=1 k=1
/// system, identical workload sweep, hosted on the single-threaded
/// discrete-event simulator vs the multi-threaded real-clock runtime.
///
/// The comparable number is **confirmed updates per wall-clock second**:
/// the simulator executes `point_secs` of virtual time as fast as one core
/// allows, while the rt substrate runs `point_secs` of real time across
/// worker threads. On a multicore host the rt substrate overtakes the
/// simulator once the single event loop saturates its core; the emitted
/// JSON records the host's core count so single-core results are not
/// mistaken for a parallel speedup.
pub fn rt_throughput(point_secs: u64, json_out: Option<&str>) {
    header(
        "RT: confirmed updates/s by substrate (10 RTUs, f=1 k=1)",
        "  offered/s | substrate | confirmed | delivery | wall s | confirmed/wall s | safety",
    );
    struct Row {
        substrate: &'static str,
        interval_ms: u64,
        offered: f64,
        sent: u64,
        confirmed: u64,
        delivery: f64,
        safety: bool,
        wall_s: f64,
        rate: f64,
        p99_ms: Option<f64>,
        threads: usize,
    }
    let mut rows: Vec<Row> = Vec::new();
    let intervals_ms = [200u64, 100, 50, 20, 10, 5];
    for interval in intervals_ms {
        let workload = WorkloadConfig {
            rtus: 10,
            update_interval: Span::millis(interval),
            ..Default::default()
        };
        let offered = workload.updates_per_second();
        let mut cfg = DeploymentConfig::wide_area(8800 + interval);
        cfg.workload = workload;
        cfg.trace = false;

        // Sim leg: virtual seconds, wall-timed.
        let mut system = Deployment::build(cfg.clone());
        let start = std::time::Instant::now();
        system.run_for(Span::secs(point_secs));
        let wall_s = start.elapsed().as_secs_f64();
        let report = system.report();
        rows.push(Row {
            substrate: "sim",
            interval_ms: interval,
            offered,
            sent: report.updates_sent,
            confirmed: report.updates_confirmed,
            delivery: report.delivery_ratio(),
            safety: report.safety_ok,
            wall_s,
            rate: report.updates_confirmed as f64 / wall_s.max(1e-9),
            p99_ms: report.update_summary.as_ref().map(|s| s.p99),
            threads: 1,
        });

        // Rt leg: real seconds on OS threads.
        let rt = Deployment::build(cfg).into_rt(0);
        let start = std::time::Instant::now();
        let outcome = rt.run_for(Span::secs(point_secs));
        let wall_s = start.elapsed().as_secs_f64();
        let report = outcome.report;
        rows.push(Row {
            substrate: "rt",
            interval_ms: interval,
            offered,
            sent: report.updates_sent,
            confirmed: report.updates_confirmed,
            delivery: report.delivery_ratio(),
            safety: report.safety_ok,
            wall_s,
            rate: report.updates_confirmed as f64 / wall_s.max(1e-9),
            p99_ms: report.update_summary.as_ref().map(|s| s.p99),
            threads: outcome.run.threads,
        });
    }
    for row in &rows {
        println!(
            "  {:>9.0} | {:>9} | {:>9} | {:>7.1}% | {:>6.2} | {:>16.1} | {}",
            row.offered,
            row.substrate,
            row.confirmed,
            row.delivery * 100.0,
            row.wall_s,
            row.rate,
            if row.safety { "OK" } else { "BROKEN" }
        );
    }
    let peak = |substrate: &str| {
        rows.iter()
            .filter(|r| r.substrate == substrate)
            .map(|r| r.rate)
            .fold(0.0f64, f64::max)
    };
    let (sim_peak, rt_peak) = (peak("sim"), peak("rt"));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\npeak confirmed/wall s: sim {sim_peak:.1}, rt {rt_peak:.1} \
         (rt/sim {:.2}x on {cores} core(s))",
        rt_peak / sim_peak.max(1e-9)
    );

    // Worker-count sweep: the same 200 offered updates/s on rt with 1, 2,
    // and 4 runtime workers, showing how the sharded run queues scale
    // with thread count (flat when the host has fewer physical cores).
    println!("\n  worker sweep at 200 offered/s (host has {cores} core(s)):");
    println!("    workers | confirmed | delivery |  p99 ms | safety");
    let mut sweep: Vec<Row> = Vec::new();
    for workers in [1usize, 2, 4] {
        let workload = WorkloadConfig {
            rtus: 10,
            update_interval: Span::millis(50),
            ..Default::default()
        };
        let offered = workload.updates_per_second();
        let mut cfg = DeploymentConfig::wide_area(8900 + workers as u64);
        cfg.workload = workload;
        cfg.trace = false;
        let rt = Deployment::build(cfg).into_rt(workers);
        let start = std::time::Instant::now();
        let outcome = rt.run_for(Span::secs(point_secs));
        let wall_s = start.elapsed().as_secs_f64();
        let report = outcome.report;
        let row = Row {
            substrate: "rt",
            interval_ms: 50,
            offered,
            sent: report.updates_sent,
            confirmed: report.updates_confirmed,
            delivery: report.delivery_ratio(),
            safety: report.safety_ok,
            wall_s,
            rate: report.updates_confirmed as f64 / wall_s.max(1e-9),
            p99_ms: report.update_summary.as_ref().map(|s| s.p99),
            threads: outcome.run.threads,
        };
        println!(
            "    {:>7} | {:>9} | {:>7.1}% | {:>7.1} | {}",
            row.threads,
            row.confirmed,
            row.delivery * 100.0,
            row.p99_ms.unwrap_or(f64::NAN),
            if row.safety { "OK" } else { "BROKEN" }
        );
        sweep.push(row);
    }

    let Some(path) = json_out else { return };
    let fmt_row = |r: &Row| {
        format!(
            "{{\"substrate\":\"{}\",\"interval_ms\":{},\"offered_per_s\":{},\
             \"updates_sent\":{},\"updates_confirmed\":{},\"delivery_ratio\":{},\
             \"safety_ok\":{},\"wall_s\":{},\"confirmed_per_wall_s\":{},\
             \"p99_ms\":{},\"threads\":{}}}",
            r.substrate,
            r.interval_ms,
            r.offered,
            r.sent,
            r.confirmed,
            r.delivery,
            r.safety,
            r.wall_s,
            r.rate,
            r.p99_ms
                .map(|v| v.to_string())
                .unwrap_or_else(|| "null".to_string()),
            r.threads
        )
    };
    let json_rows: Vec<String> = rows.iter().map(fmt_row).collect();
    let sweep_rows: Vec<String> = sweep.iter().map(fmt_row).collect();
    let json = format!(
        "{{\"experiment\":\"rt_throughput\",\"schema_version\":{},\
         \"git_rev\":{:?},\"replicas\":6,\"f\":1,\"k\":1,\
         \"rtus\":10,\"point_secs\":{point_secs},\"cores\":{cores},\
         \"peak_sim_confirmed_per_wall_s\":{sim_peak},\
         \"peak_rt_confirmed_per_wall_s\":{rt_peak},\
         \"rt_over_sim\":{},\"rows\":[{}],\
         \"worker_sweep\":[{}]}}\n",
        spire::report::REPORT_SCHEMA_VERSION,
        crate::git_rev(),
        rt_peak / sim_peak.max(1e-9),
        json_rows.join(","),
        sweep_rows.join(",")
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("rt throughput results -> {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// SHARD — multi-group scaling: aggregate confirmed-updates/s for 1, 2
/// and 4 Prime groups under a **fixed** total offered load with the WAN
/// bandwidth capped, plus cross-shard 2PC legs (10% mix, poisoned
/// aborts, coordinator chaos) proving atomicity holds while intra-shard
/// throughput scales.
///
/// A single group funnels every update through one set of six replicas,
/// so the replicas' modeled per-message CPU time (signature checks,
/// ordering work — the ceiling the paper measures on real hosts) is
/// what saturates: confirmed throughput flattens at the CPU's service
/// rate while queueing shows up as latency, never loss. Sharding splits
/// the ordering work across independent groups — the aggregate
/// confirmed rate climbs back toward the offered load. `smoke` runs the
/// reduced CI matrix (2 groups, short legs, sim + rt) and the full mode
/// demands the >= 3x scaling from 1 -> 4 groups. Returns overall
/// success; writes `BENCH_PR9.json`-style rows to `json_out`.
///
/// (A WAN bandwidth cap is *not* a usable ceiling here: the overlay's
/// hop-by-hop retransmission turns any sustained link overload into a
/// congestion-collapse spiral — RTOs cap at 2 s, so multi-second queues
/// multiply traffic without bound and goodput falls off a cliff instead
/// of flattening.)
pub fn shard_scaling(point_secs: u64, smoke: bool, json_out: Option<&str>) -> bool {
    use spire::sharded::ShardedConfig;

    // Fixed offered load for the scaling sweep; the replica CPU model is
    // tuned so one group saturates well below it but four groups, each
    // ordering a quarter of the updates, clear it.
    let total_rtus: u32 = crate::env_u64("SPIRE_SHARD_RTUS", if smoke { 24 } else { 40 }) as u32;
    let interval = Span::millis(100);
    let offered_per_s = total_rtus as u64 * 1000 / 100;
    // Calibrated so one group saturates far below the 400/s offered load
    // while four groups clear ~95% of it (sim is deterministic, so the
    // sweep reproduces exactly). The smoke matrix only runs 1 -> 2
    // groups at a lighter load, so it uses a lighter per-message cost
    // that leaves the 2-group point comfortably under capacity.
    let cpu_us = crate::env_u64("SPIRE_SHARD_CPU_US", if smoke { 500 } else { 800 });
    let sweep: &[u32] = if smoke { &[1, 2] } else { &[1, 2, 4] };

    #[derive(Clone)]
    struct Row {
        substrate: &'static str,
        shards: u32,
        cross_rate: f64,
        chaos: bool,
        report: spire::Report,
        run_s: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;

    header(
        &format!(
            "SHARD: aggregate throughput vs group count \
             ({total_rtus} RTUs, {offered_per_s}/s offered, {cpu_us} us replica CPU per message)"
        ),
        "  groups | confirmed |  rate/s | delivery |  p99_ms | safety",
    );
    let scaling_cfg = |shards: u32, seed: u64| {
        let mut cfg = ShardedConfig::wide_area(shards, seed);
        cfg.base.workload = WorkloadConfig {
            rtus: total_rtus,
            update_interval: interval,
            hmis: 1,
            ..Default::default()
        };
        cfg.base.replica_service_us = Some(cpu_us);
        cfg
    };
    let mut rates: Vec<(u32, f64)> = Vec::new();
    for &shards in sweep {
        let mut system = Deployment::build_sharded(scaling_cfg(shards, 900 + shards as u64));
        system.install_invariant_checker(Span::secs(1), secs(point_secs));
        system.run_for(Span::secs(point_secs));
        let report = system.report();
        let rate = report.updates_confirmed as f64 / point_secs as f64;
        println!(
            "  {shards:>6} | {:>9} | {:>7.1} | {:>7.1}% | {:>7.1} | {}",
            report.updates_confirmed,
            rate,
            report.delivery_ratio() * 100.0,
            report.update_summary.as_ref().map_or(f64::NAN, |s| s.p99),
            if report.safety_ok { "OK" } else { "BROKEN" },
        );
        ok &= report.safety_ok;
        rates.push((shards, rate));
        rows.push(Row {
            substrate: "sim",
            shards,
            cross_rate: 0.0,
            chaos: false,
            report,
            run_s: point_secs as f64,
        });
    }
    let rate_of = |n: u32| {
        rates
            .iter()
            .find(|(s, _)| *s == n)
            .map(|(_, r)| *r)
            .unwrap_or(f64::NAN)
    };
    let scaling = rate_of(*sweep.last().unwrap()) / rate_of(1).max(1e-9);
    println!(
        "  scaling 1 -> {} groups: {scaling:.2}x (offered {offered_per_s}/s)",
        sweep.last().unwrap()
    );
    // The top sweep point must actually clear its offered load; without
    // this, a WAN cap savage enough to kill *every* configuration would
    // make the scaling ratio degenerate (0 -> epsilon) and pass trivially.
    let top_delivery = rows
        .last()
        .map(|r| r.report.delivery_ratio())
        .unwrap_or(0.0);
    if top_delivery < 0.9 {
        println!(
            "  FAIL: {}-group delivery {:.1}% — the cap drowned every configuration",
            sweep.last().unwrap(),
            top_delivery * 100.0
        );
        ok = false;
    }
    if smoke {
        // CI gate: adding a group must never cost aggregate throughput.
        if rate_of(2) < rate_of(1) {
            println!("  FAIL: 2-group aggregate below the single-group baseline");
            ok = false;
        }
    } else if scaling < 3.0 {
        println!("  FAIL: expected >= 3x scaling from 1 -> 4 groups, got {scaling:.2}x");
        ok = false;
    }

    // Cross-shard legs: uncapped WAN, moderate per-shard load, 10% of
    // supervisory commands spanning two groups (plus a poisoned-abort
    // variant and a coordinator-chaos variant). Atomicity must hold in
    // all three; the chaos window must actually force retries.
    let xshard_secs = if smoke { 30 } else { 60 };
    let x_groups: u32 = if smoke { 2 } else { 4 };
    header(
        &format!("SHARD: cross-shard 2PC legs ({x_groups} groups, 10% mix, {xshard_secs}s)"),
        "  leg            | commands | committed | aborted | retries | commit p50/p99 ms | atomic",
    );
    let xshard_cfg = |seed: u64, poison_every: u64, cross_rate: f64| {
        let mut cfg = ShardedConfig::wide_area(x_groups, seed);
        cfg.base.workload = WorkloadConfig {
            rtus: 4 * x_groups,
            update_interval: Span::millis(500),
            hmis: 1,
            command_interval: Span::secs(5),
            ..Default::default()
        };
        cfg.cross_rate = cross_rate;
        cfg.poison_every = poison_every;
        cfg
    };
    // The smoke window is short enough that at a 10% mix the poisoned
    // leg may never reach its every-3rd command; make every command
    // cross-shard and poison every other one so both the abort and the
    // commit path are exercised deterministically.
    let (poison_nth, poison_cross) = if smoke { (2, 1.0) } else { (3, 0.1) };
    for (leg, poison_every, chaos, cross_rate) in [
        ("mix", 0u64, false, 0.1),
        ("poisoned", poison_nth, false, poison_cross),
        ("chaos", 0, true, 0.1),
    ] {
        let mut system =
            Deployment::build_sharded(xshard_cfg(1200 + poison_every, poison_every, cross_rate));
        if chaos {
            system.schedule_coordinator_chaos(
                secs(xshard_secs / 4),
                secs(3 * xshard_secs / 4),
                0.75,
                0.3,
            );
        }
        system.install_invariant_checker(Span::secs(1), secs(xshard_secs));
        system.run_for(Span::secs(xshard_secs));
        let report = system.report();
        let atomic = system.xshard().ledger.violation_count() == 0
            && report.chaos.invariant_violations == 0
            && report.safety_ok;
        println!(
            "  {leg:<14} | {:>8} | {:>9} | {:>7} | {:>7} | {:>8.1}/{:<8.1} | {}",
            report.xshard.commands,
            report.xshard.committed,
            report.xshard.aborted,
            report.xshard.retries,
            report.xshard.commit_p50_ms,
            report.xshard.commit_p99_ms,
            if atomic { "OK" } else { "VIOLATED" },
        );
        ok &= atomic && report.xshard.committed > 0;
        if leg == "poisoned" && report.xshard.aborted == 0 {
            println!("  FAIL: poisoned leg never exercised the abort path");
            ok = false;
        }
        rows.push(Row {
            substrate: "sim",
            shards: x_groups,
            cross_rate,
            chaos,
            report,
            run_s: xshard_secs as f64,
        });
    }

    // rt leg: the same sharded system (2 groups, 10% mix) hosted on the
    // real-clock runtime — wall time, so keep it short.
    let rt_secs = if smoke { 6 } else { 10 };
    println!("\nSHARD: rt substrate leg (2 groups, 10% mix, {rt_secs}s wall time)");
    let outcome = {
        let mut cfg = ShardedConfig::wide_area(2, 1300);
        cfg.base.workload = WorkloadConfig {
            rtus: 8,
            update_interval: Span::millis(250),
            hmis: 1,
            command_interval: Span::secs(2),
            ..Default::default()
        };
        cfg.cross_rate = 0.1;
        Deployment::build_sharded(cfg)
            .into_rt(0)
            .run_for(Span::secs(rt_secs))
    };
    let rt_ok = outcome.report.safety_ok
        && outcome.report.chaos.invariant_violations == 0
        && outcome.report.delivery_ratio() > 0.9
        && outcome.report.updates_confirmed > 0;
    println!(
        "  rt: {}/{} confirmed ({:.1}%), xshard {} committed / {} aborted, safety {}",
        outcome.report.updates_confirmed,
        outcome.report.updates_sent,
        outcome.report.delivery_ratio() * 100.0,
        outcome.report.xshard.committed,
        outcome.report.xshard.aborted,
        if rt_ok { "OK" } else { "BROKEN" },
    );
    ok &= rt_ok;
    rows.push(Row {
        substrate: "rt",
        shards: 2,
        cross_rate: 0.1,
        chaos: false,
        report: outcome.report,
        run_s: rt_secs as f64,
    });

    println!(
        "\nshard scaling: {} (scaling {scaling:.2}x, {} legs)",
        if ok { "PASS" } else { "FAIL" },
        rows.len()
    );

    let Some(path) = json_out else { return ok };
    let fmt_row = |r: &Row| {
        let rep = &r.report;
        format!(
            "{{\"substrate\":\"{}\",\"shards\":{},\"cross_rate\":{},\"chaos\":{},\
             \"run_s\":{},\"updates_sent\":{},\"updates_confirmed\":{},\
             \"delivery_ratio\":{},\"confirmed_per_s\":{},\"p99_ms\":{},\
             \"safety_ok\":{},\"invariant_violations\":{},\
             \"xshard\":{{\"commands\":{},\"committed\":{},\"aborted\":{},\"retries\":{},\
             \"commit_p50_ms\":{},\"commit_p99_ms\":{}}},\
             \"per_shard\":[{}]}}",
            r.substrate,
            r.shards,
            r.cross_rate,
            r.chaos,
            r.run_s,
            rep.updates_sent,
            rep.updates_confirmed,
            rep.delivery_ratio(),
            rep.updates_confirmed as f64 / r.run_s.max(1e-9),
            rep.update_summary
                .as_ref()
                .map(|s| s.p99.to_string())
                .unwrap_or_else(|| "null".to_string()),
            rep.safety_ok,
            rep.chaos.invariant_violations,
            rep.xshard.commands,
            rep.xshard.committed,
            rep.xshard.aborted,
            rep.xshard.retries,
            finite_or_null(rep.xshard.commit_p50_ms),
            finite_or_null(rep.xshard.commit_p99_ms),
            rep.shards
                .iter()
                .map(|s| format!(
                    "{{\"shard\":{},\"sent\":{},\"confirmed\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
                    s.shard,
                    s.sent,
                    s.confirmed,
                    finite_or_null(s.p50_ms),
                    finite_or_null(s.p99_ms),
                ))
                .collect::<Vec<_>>()
                .join(","),
        )
    };
    let json = format!(
        "{{\"experiment\":\"shard_scaling\",\"schema_version\":{},\
         \"git_rev\":{:?},\"smoke\":{smoke},\"point_secs\":{point_secs},\
         \"cores\":{},\"total_rtus\":{total_rtus},\"offered_per_s\":{offered_per_s},\
         \"replica_service_us\":{cpu_us},\"scaling\":{scaling},\"pass\":{ok},\
         \"rows\":[{}]}}\n",
        spire::report::REPORT_SCHEMA_VERSION,
        crate::git_rev(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rows.iter().map(fmt_row).collect::<Vec<_>>().join(","),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("shard scaling results -> {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    ok
}

fn finite_or_null(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Convenience wrapper used by `cargo bench` and the all-experiments bin.
pub fn run_all(scale: u64) {
    t1_configurations();
    let _ = t2_longrun(120 * scale);
    rt_throughput(2, None);
    f1_latency_cdf(60 * scale);
    f2_recovery_timeline(100 * scale, 20);
    f3_network_attack(80 * scale);
    f4_throughput(30 * scale);
    f5_leader_attack(40 * scale);
    f6_overlay_resilience(100);
    a1_fairness(100);
    a2_dual_homing(60);
    a3_amortized_auth(15 * scale);
    t3_red_team();
    f6_chaos(&[1, 2, 3, 4], 30 * scale);
    let _ = fmt_summary(&None);
}

/// ENDURANCE — bounded-memory soak: a wide-area deployment runs for
/// `duration_s` simulated seconds with the rolling proactive-recovery
/// rotation (one replica every ~30 s) and *network-only* chaos — site
/// DoS, site disconnects and wire-fault windows that drop/corrupt the
/// state-transfer share traffic — while every replica crash slot is
/// owned by the rotation itself. Asserts the three endurance claims:
///
/// 1. **log-size plateau** — per-replica retained PO-log size
///    (`prime.compaction.po_retained`) in the final window stays within
///    `SPIRE_ENDURANCE_PLATEAU` (default 1.2x) of the window right
///    after the first compaction, i.e. compaction keeps memory bounded;
/// 2. **0 invariant violations** (and the cross-replica safety check);
/// 3. **>= 95% delivery excluding recovery windows** — confirmed
///    updates outside announced `(replica, start, end)` windows vs the
///    offered load over those same seconds.
///
/// Every scheduled recovery must also complete (chunk retry/backoff
/// defeats the loss windows). Writes a `BENCH_PR10.json`-style summary
/// to `json_out`. Runs on either substrate (rt takes `duration_s` in
/// wall time — keep it short there). Returns overall success.
pub fn endurance(duration_s: u64, substrate: Substrate, json_out: Option<&str>) -> bool {
    use spire::deployment::RollingRecoveryConfig;
    use spire::{ChaosPlan, HealthConfig};

    let seed = crate::env_u64("SPIRE_ENDURANCE_SEED", 1804);
    let period_s = crate::env_u64("SPIRE_ENDURANCE_PERIOD", 30);
    let window_s = crate::env_u64("SPIRE_ENDURANCE_WINDOW", 10);
    let plateau_limit = std::env::var("SPIRE_ENDURANCE_PLATEAU")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.2);

    let rtus = 10u32;
    let interval = Span::secs(1);
    let mut cfg = DeploymentConfig::wide_area(seed);
    cfg.workload = WorkloadConfig {
        rtus,
        update_interval: interval,
        hmis: 1,
        command_interval: Span::secs(30),
        ..Default::default()
    };
    let duration = Span::secs(duration_s);

    // Network chaos only: the rotation owns the whole f + k replica
    // fault budget, while the wire still drops and corrupts the share
    // traffic the recovering replica depends on.
    let plan = ChaosPlan::generate(seed, &cfg.spire, duration).network_only();
    let scenario = plan.scenario();

    let mut system = Deployment::build(cfg);
    // Rolling rotation must be announced before `apply` installs the
    // invariant checker (it captures the windows for the catch-up
    // deadline check). Stop scheduling early enough that the last
    // window can close before the horizon.
    //
    // The rotation respects the same fault budget the chaos accountant
    // enforces: a site DoS/disconnection plus a recovering replica
    // exceeds `f + k` for the 6-replica layout (4-of-6 quorum), so each
    // round slides forward past any conflicting site-attack span. Wire
    // faults are *not* avoided — recovering through corrupted and
    // duplicated share traffic is the point of the soak.
    let mut busy: Vec<(Time, Time)> = plan
        .attacks
        .iter()
        .filter_map(|a| match a {
            spire::Attack::DosSite { from, until, .. }
            | spire::Attack::DisconnectSite { from, until, .. } => Some((*from, *until)),
            _ => None,
        })
        .collect();
    busy.sort();
    let margin = Span::secs(3);
    let window = Span::secs(window_s);
    let sched_horizon = Time(duration_s.saturating_sub(window_s + 5) * 1_000_000);
    let rcfg = RollingRecoveryConfig {
        period: Span::secs(period_s),
        window,
        ..RollingRecoveryConfig::default()
    };
    let mut windows = Vec::new();
    let mut last_end = Time(0);
    let mut round_at = secs(period_s);
    while round_at <= sched_horizon {
        // Never overlap the previous (possibly slid) window either:
        // two concurrent recoveries would exceed k = 1.
        let mut at = round_at.max(last_end);
        let scheduled = loop {
            let conflict = busy.iter().find(|(s, e)| {
                let lo = Time(at.0.saturating_sub(margin.0));
                let hi = at + window + margin;
                *s < hi && lo < *e
            });
            match conflict {
                None => break true,
                Some((_, e)) if *e + margin <= sched_horizon => at = *e + margin,
                Some(_) => break false, // conflict runs past the horizon
            }
        };
        if scheduled {
            windows.extend(system.schedule_rolling_recovery(at, at, rcfg));
            last_end = at + window + margin;
        }
        round_at = round_at + rcfg.period;
    }
    scenario.apply(&mut system);

    header(
        &format!(
            "ENDURANCE: {duration_s} s soak, recovery every {period_s} s, \
             network chaos seed {seed}, on {substrate}"
        ),
        "metric                           value",
    );
    for line in &plan.log {
        println!("  chaos: {line}");
    }

    let (report, po_series): (spire::Report, Vec<(Time, f64)>) = match substrate {
        Substrate::Sim => {
            system.install_health_monitor(HealthConfig::default(), secs(duration_s));
            // SPIRE_ENDURANCE_DEBUG=1 prints a per-minute ordering-health
            // probe to stderr — enough to localize a liveness wedge to the
            // execution, commit, or pre-order layer without a debugger.
            if std::env::var_os("SPIRE_ENDURANCE_DEBUG").is_some() {
                let insp = system.groups[0].inspection.clone();
                for m in 1..=duration_s / 60 {
                    let insp = insp.clone();
                    system
                        .world
                        .schedule_control(Time(m * 60_000_000), move |w| {
                            let records = insp.records();
                            let execs: Vec<u64> =
                                records.values().map(|r| r.last_executed).collect();
                            let arus: Vec<u64> = records.values().map(|r| r.commit_aru).collect();
                            let miss: Vec<u64> = records.values().map(|r| r.missing_po).collect();
                            let metrics = w.metrics();
                            eprintln!(
                                "t={}s confirmed={} execs={execs:?} arus={arus:?} miss={miss:?} \
                             po_retries={} vc_rebroadcasts={}",
                                m * 60,
                                metrics.counter("scada.updates_confirmed"),
                                metrics.counter("prime.po_retries"),
                                metrics.counter("prime.vc_rebroadcasts"),
                            );
                        });
                }
            }
            system.run_for(duration);
            let po = system
                .world
                .metrics()
                .series("prime.compaction.po_retained")
                .to_vec();
            (system.report(), po)
        }
        Substrate::Rt { threads } => {
            let outcome = system
                .into_rt(threads)
                .run_monitored(duration, spire::deployment::HealthOptions::default());
            let po = outcome
                .run
                .metrics
                .series("prime.compaction.po_retained")
                .to_vec();
            (outcome.report, po)
        }
    };

    // Delivery excluding recovery windows: count whole seconds whose
    // midpoint lies outside every announced window, and the confirmed
    // updates stamped in those seconds, against the offered rate.
    let in_window = |t: Time| windows.iter().any(|(_, s, e)| *s <= t && t < *e);
    let mut secs_outside = 0u64;
    for s in 0..duration_s {
        if !in_window(Time(s * 1_000_000 + 500_000)) {
            secs_outside += 1;
        }
    }
    let confirmed_outside = report
        .update_timeline
        .iter()
        .filter(|(t, _)| !in_window(*t))
        .count() as u64;
    let offered_per_s = rtus as u64 * 1_000_000 / interval.0;
    let expected_outside = (offered_per_s * secs_outside).max(1);
    let delivery_excl = confirmed_outside as f64 / expected_outside as f64;

    // Log-size plateau: max retained PO-log size across replicas in the
    // window right after the first compaction vs the final window.
    let plateau_window_us = (duration_s / 4).clamp(10, 60) * 1_000_000;
    let max_in = |lo: u64, hi: u64| {
        po_series
            .iter()
            .filter(|(t, _)| t.0 >= lo && t.0 < hi)
            .map(|(_, v)| *v)
            .fold(f64::NAN, f64::max)
    };
    let (early_max, final_max) = match po_series.first() {
        Some(&(t0, _)) => (
            max_in(t0.0, t0.0 + plateau_window_us),
            max_in(duration.0.saturating_sub(plateau_window_us), duration.0 + 1),
        ),
        None => (f64::NAN, f64::NAN),
    };
    let plateau_ratio = final_max / early_max;
    // The ratio test catches unbounded growth; below an absolute floor it
    // only measures noise (a handful of in-flight entries around attack
    // windows), so a final size that is trivially bounded passes outright.
    // A real leak compounds over the soak and blows far past the floor.
    let plateau_floor = crate::env_u64("SPIRE_ENDURANCE_PLATEAU_FLOOR", 150) as f64;
    let plateau_ok =
        final_max <= plateau_floor || (plateau_ratio.is_finite() && plateau_ratio <= plateau_limit);

    let rec = &report.recovery;
    let rotations = windows.len() as u64;
    let invariants_ok = report.safety_ok && report.chaos.invariant_violations == 0;
    let recoveries_ok = rotations >= 2 && rec.started >= rotations && rec.completed >= rec.started;
    let delivery_ok = delivery_excl >= 0.95;

    println!("rotations scheduled              {rotations}");
    println!(
        "recoveries                       {} started / {} completed",
        rec.started, rec.completed
    );
    println!(
        "state transfer                   {} chunks, {} retry rounds, p50 {:.1} ms, p99 {:.1} ms",
        rec.chunks, rec.chunk_retries, rec.duration_p50_ms, rec.duration_p99_ms
    );
    println!(
        "compaction                       {} runs, {} entries evicted",
        rec.compaction_runs, rec.compaction_evicted
    );
    println!(
        "po retained (early/final max)    {early_max:.0} / {final_max:.0} \
         -> ratio {plateau_ratio:.3} (limit {plateau_limit}) {}",
        if plateau_ok { "OK" } else { "GREW" }
    );
    println!(
        "delivery overall                 {:.2} %",
        report.delivery_ratio() * 100.0
    );
    println!(
        "delivery excl. recovery windows  {:.2} % ({confirmed_outside}/{expected_outside}) {}",
        delivery_excl * 100.0,
        if delivery_ok { "OK" } else { "LOW" }
    );
    // Per-minute confirmed counts: the soak's availability timeline.
    let minutes = duration_s / 60;
    if minutes >= 2 {
        let per_min: Vec<String> = (0..minutes)
            .map(|m| {
                let lo = m * 60_000_000;
                let hi = lo + 60_000_000;
                let n = report
                    .update_timeline
                    .iter()
                    .filter(|(t, _)| t.0 >= lo && t.0 < hi)
                    .count();
                format!("{n}")
            })
            .collect();
        println!("confirmed per minute             [{}]", per_min.join(", "));
    }
    println!(
        "invariants                       {} checks, {} violations; safety {}",
        report.chaos.invariant_checks,
        report.chaos.invariant_violations,
        if report.safety_ok { "OK" } else { "VIOLATED" }
    );
    println!(
        "health                           {} degraded windows, {} breaches",
        report.health.degraded_windows,
        report.health.breaches()
    );

    let ok = invariants_ok && plateau_ok && delivery_ok && recoveries_ok;
    println!(
        "endurance verdict                {}",
        if ok { "PASS" } else { "FAIL" }
    );

    if let Some(path) = json_out {
        let json = format!(
            "{{\"experiment\":\"endurance\",\"schema_version\":{},\
             \"git_rev\":{:?},\"substrate\":\"{substrate}\",\
             \"duration_s\":{duration_s},\"period_s\":{period_s},\
             \"window_s\":{window_s},\"chaos_seed\":{seed},\
             \"rotations\":{rotations},\
             \"recoveries_started\":{},\"recoveries_completed\":{},\
             \"recovery_chunks\":{},\"chunk_retries\":{},\
             \"recovery_p50_ms\":{},\"recovery_p99_ms\":{},\
             \"accums_evicted\":{},\
             \"compaction_runs\":{},\"compaction_evicted\":{},\
             \"po_retained_early_max\":{},\"po_retained_final_max\":{},\
             \"plateau_ratio\":{},\"plateau_limit\":{plateau_limit},\
             \"plateau_floor\":{plateau_floor},\
             \"delivery_overall\":{},\"delivery_excl_recovery\":{},\
             \"invariant_checks\":{},\"invariant_violations\":{},\
             \"degraded_windows\":{},\"safety_ok\":{},\"ok\":{ok}}}\n",
            spire::report::REPORT_SCHEMA_VERSION,
            crate::git_rev(),
            rec.started,
            rec.completed,
            rec.chunks,
            rec.chunk_retries,
            finite_or_null(rec.duration_p50_ms),
            finite_or_null(rec.duration_p99_ms),
            rec.accums_evicted,
            rec.compaction_runs,
            rec.compaction_evicted,
            finite_or_null(early_max),
            finite_or_null(final_max),
            finite_or_null(plateau_ratio),
            finite_or_null(report.delivery_ratio()),
            finite_or_null(delivery_excl),
            report.chaos.invariant_checks,
            report.chaos.invariant_violations,
            report.health.degraded_windows,
            report.safety_ok,
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("endurance results -> {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    trace_hooks_maybe(&report);
    ok
}

// The endurance soak consumes `system` on the rt path, so the usual
// `trace_hooks(&system, ...)` handle is gone by reporting time; phase
// tables still print when tracing captured spans.
fn trace_hooks_maybe(report: &spire::Report) {
    let table = report.phase_table();
    if !table.is_empty() {
        println!("\nper-phase latency breakdown (endurance):\n{table}");
    }
}
