//! Proactive recovery in action: every replica is periodically restarted
//! from a clean state and rejoins via proof-carrying state transfer, while
//! the system keeps operating (that is what the `+2k` replicas are for).
//!
//! Run with: `cargo run --release --example proactive_recovery` — it exits
//! 1 unless the run stayed safe and every recovery it started completed
//! state transfer (CI runs it).

use spire::deployment::{Deployment, DeploymentConfig};
use spire_scada::WorkloadConfig;
use spire_sim::{Span, Time};

fn main() {
    let mut cfg = DeploymentConfig::wide_area(23);
    cfg.workload = WorkloadConfig {
        rtus: 6,
        update_interval: Span::millis(500),
        ..Default::default()
    };
    let mut system = Deployment::build(cfg);

    // One recovery every 10 s: the whole cluster is rejuvenated each minute.
    system.schedule_proactive_recovery(Time(10_000_000), Span::secs(10), Time(110_000_000));
    system.run_for(Span::secs(120));

    let report = system.report();
    println!("{}", report.one_line());
    println!(
        "recoveries: {} started, {} completed state transfer",
        report.recoveries.0, report.recoveries.1
    );
    println!(
        "delivery ratio across the whole run: {:.3}",
        report.delivery_ratio()
    );
    println!("silent seconds: {}", report.silent_seconds());

    // Show the latency timeline around recoveries (1-second buckets).
    println!("\nupdates confirmed per second:");
    for (sec, count) in report.throughput_timeline.iter().take(121) {
        if sec % 10 == 0 {
            println!("  t={sec:>3}s  {count} updates");
        }
    }

    let (started, completed) = report.recoveries;
    if !report.safety_ok || completed < started {
        eprintln!(
            "FAILED: safety {}, {completed} of {started} recoveries completed",
            report.safety_ok
        );
        std::process::exit(1);
    }
}
