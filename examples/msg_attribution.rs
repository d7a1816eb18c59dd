//! Where the messages of one confirmed operation go: the per-overlay
//! attribution table of DESIGN.md ("Spines overlay"), regenerated from the
//! daemons' `spines.<overlay>.*` counters. The traffic is the benchmark's —
//! ten RTUs, a command every 500 ms, a poll every 2 s, mock signatures,
//! seed 2018 — and the counts are virtual-time exact.
//!
//! Run with: `cargo run --release --example msg_attribution [report-ms] [seconds]`
//! (defaults 200 and 20: the paper's 50 updates/s).

use spire::deployment::{Deployment, DeploymentConfig};
use spire_scada::WorkloadConfig;
use spire_sim::Span;

const ROWS: [(&str, &str); 10] = [
    (
        "client_send",
        "`ClientSend` to one address (process → its daemon)",
    ),
    ("group_send", "`ClientSend` to a group"),
    ("client_ctl", "`ClientAttach` / `ClientJoin`"),
    ("client_deliver", "`ClientDeliver` (daemon → process)"),
    ("tx_data", "daemon → daemon, data only"),
    ("tx_ack_only", "daemon → daemon, **ack only**"),
    ("tx_mixed", "daemon → daemon, ack + data"),
    ("tx_hello", "hellos"),
    ("tx_lsa", "link-state advertisements"),
    ("tx_retx", "retransmissions"),
];

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<u64>());
    let mut arg = |default| args.next().map_or(default, |a| a.expect("a whole number"));
    let (report_ms, seconds) = (arg(200), arg(20));

    let mut cfg = DeploymentConfig::wide_area(2018);
    cfg.trace = false;
    cfg.workload = WorkloadConfig {
        rtus: 10,
        update_interval: Span::millis(report_ms),
        hmis: 1,
        command_interval: Span::millis(500),
        poll_interval: Span::secs(2),
        ..WorkloadConfig::default()
    };
    let mut system = Deployment::build(cfg);
    system.run_for(Span::secs(seconds));
    let report = system.report();
    let m = system.world.metrics();
    let ops = (report.updates_confirmed + report.commands_actuated) as f64;
    let per_op = |name: &str| m.counter(name) as f64 / ops;

    println!("{ops} confirmed ops in {seconds} virtual s, reports every {report_ms} ms\n");
    println!("| per confirmed op | internal overlay | external overlay |");
    println!("|---|---|---|");
    let mut attributed = 0.0;
    for (row, what) in ROWS {
        let (int, ext) = (
            per_op(&format!("spines.internal.{row}")),
            per_op(&format!("spines.external.{row}")),
        );
        attributed += int + ext;
        println!("| {what} | {int:.1} | {ext:.1} |");
    }
    // Device reports and write acks, proxy commands: local, no overlay.
    let local = per_op("scada.updates_sent") + 2.0 * per_op("scada.device_acks");
    println!("| device ↔ proxy (no overlay) | | {local:.1} |");
    println!("| **sum of the rows** | | **{:.2}** |", attributed + local);
    // Rows count at the sender: the difference is in flight at the cut-off.
    println!(
        "| **`sim.delivered`** | | **{:.2}** |",
        per_op("sim.delivered")
    );
}
