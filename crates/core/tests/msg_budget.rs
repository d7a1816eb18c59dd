//! What one confirmed operation costs in substrate messages, at the
//! paper's rate: a budget tier-1 fails on, and the attribution of every
//! delivered message to one row of the per-overlay table.
//!
//! Both are counts in virtual time at a fixed seed, so they are the same
//! on every host. The traffic is the benchmark's `sim_crypto` (ten RTUs
//! reporting every 200 ms, a command every 500 ms, a poll every 2 s, both
//! overlays, session MACs, batch signing) with mock signatures.

use spire::{Deployment, DeploymentConfig};
use spire_scada::WorkloadConfig;
use spire_sim::{ControlOp, Span, Time};

fn paper_rate() -> Deployment {
    let mut cfg = DeploymentConfig::wide_area(2018);
    cfg.trace = false;
    cfg.workload = WorkloadConfig {
        rtus: 10,
        update_interval: Span::millis(200),
        hmis: 1,
        command_interval: Span::millis(500),
        poll_interval: Span::secs(2),
        ..WorkloadConfig::default()
    };
    Deployment::build(cfg)
}

/// `sim.delivered` per confirmed operation stays inside the budget. The
/// devices and the HMI stop 300 ms before the end so everything they sent
/// can confirm.
#[test]
fn a_confirmed_operation_costs_at_most_235_messages() {
    let mut system = paper_rate();
    let sources = system.device_pids.iter().chain(&system.hmi_pids);
    let stop = sources.map(|pid| ControlOp::Crash(*pid)).collect();
    system.schedule_ops(Time(4_700_000), stop);
    system.run_for(Span::secs(5));
    let report = system.report();
    let metrics = system.world.metrics();
    assert!(report.safety_ok);
    assert!(report.updates_sent >= 230, "sent {}", report.updates_sent);
    assert_eq!(report.updates_confirmed, report.updates_sent);
    assert_eq!(report.commands_actuated, report.commands_issued);
    assert_eq!(metrics.counter("spines.retx"), 0);
    let confirmed = report.updates_confirmed + report.commands_actuated;
    let per_op = metrics.counter("sim.delivered") as f64 / confirmed as f64;
    assert!(per_op <= 235.0, "{per_op:.1} messages per confirmed op");
    // What authenticating replies costs a client: the f + 1 = 2 votes that
    // decide a quorum are checked, the other replicas' go unread.
    let quorums = metrics.counter("client.quorums");
    assert!(quorums >= confirmed, "{quorums} client quorums");
    assert!(metrics.counter("client.verify_ops") <= 2 * quorums);
    assert_eq!(metrics.counter("client.bad_reply_auth"), 0);
}

/// Every message the substrate delivered is a device↔proxy frame or is
/// counted in exactly one `spines.<overlay>.*` row: nothing on either
/// overlay escapes the attribution table.
#[test]
fn the_attribution_rows_sum_to_sim_delivered() {
    let mut system = paper_rate();
    system.run_for(Span::secs(5));
    // Rows count at the sender; run on to an instant with nothing in
    // flight (the bursts of ten reports leave gaps), so that sent is
    // delivered.
    let in_flight = |system: &Deployment| {
        let m = system.world.metrics();
        m.counter("sim.sent") - m.counter("sim.delivered")
    };
    while in_flight(&system) > 0 {
        assert!(system.world.step() && system.world.now() < Time(6_000_000));
    }
    let m = system.world.metrics();
    for lost in ["sim.loss_drop", "sim.link_down_drop", "sim.no_link_drop"] {
        assert_eq!(m.counter(lost), 0, "{lost}");
    }
    let rows: u64 = m
        .counters()
        .filter(|(name, _)| {
            name.starts_with("spines.internal.") || name.starts_with("spines.external.")
        })
        .map(|(_, count)| count)
        .sum();
    // Device → proxy reports and write acks, proxy → device commands.
    let acks = m.counter("scada.device_acks");
    assert_eq!(acks, m.counter("scada.commands_actuated"));
    let local = m.counter("scada.updates_sent") + 2 * acks;
    assert_eq!(rows + local, m.counter("sim.delivered"));
    // The two cuts, visible in the rows: a replica's broadcast and a
    // client's submission are group sends, and no hop ack fires a
    // retransmission for having waited.
    let c = |name: &str| m.counter(name);
    assert!(c("spines.internal.group_send") > 3 * c("spines.internal.client_send"));
    assert!(c("spines.external.group_send") >= c("scada.updates_sent"));
    assert_eq!(
        c("spines.internal.tx_retx") + c("spines.external.tx_retx"),
        0
    );
}
