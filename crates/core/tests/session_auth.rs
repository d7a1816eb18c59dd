//! Per-link HMAC session authentication: sealed frames must authenticate
//! cleanly, replace per-hop signature verifies, and leave the system's
//! behaviour (safety, delivery) intact.

use spire::{Deployment, DeploymentConfig, Report};
use spire_scada::WorkloadConfig;
use spire_sim::Span;

fn run(session_macs: bool) -> Report {
    let mut cfg = DeploymentConfig::wide_area(4242);
    cfg.workload = WorkloadConfig {
        rtus: 3,
        update_interval: Span::millis(400),
        ..Default::default()
    };
    cfg.trace = false;
    cfg.session_macs = session_macs;
    let mut system = Deployment::build(cfg);
    system.run_for(Span::secs(6));
    // Honest replicas send their unsigned messages (pings, state transfer,
    // reconciliation) under their own link MAC only.
    let spoofed = system.world.metrics().counter("prime.bad_link_sender");
    assert_eq!(spoofed, 0, "honest traffic tripped the link-sender rule");
    system.report()
}

#[test]
fn session_macs_replace_per_hop_verifies() {
    let with_macs = run(true);
    let without = run(false);

    // Both configurations must order and deliver.
    assert!(with_macs.safety_ok && without.safety_ok);
    assert!(with_macs.updates_confirmed > 0);
    assert!(without.updates_confirmed > 0);

    // With MACs on, every replica-to-replica frame is sealed and every
    // seal authenticates (honest network, honest replicas).
    assert!(with_macs.auth.mac_ops > 0, "no MACs computed");
    assert!(
        with_macs.auth.mac_auth_hits > 0,
        "no frames MAC-authenticated"
    );
    assert_eq!(with_macs.auth.mac_fail, 0, "spurious MAC failures");

    // With MACs off the counters stay at zero.
    assert_eq!(without.auth.mac_ops, 0);
    assert_eq!(without.auth.mac_auth_hits, 0);

    // The point of the exercise: MAC-authenticated links let receivers
    // skip per-hop signature verification (batch-root and embedded-sig
    // checks), so the per-update verify cost must drop.
    assert!(
        with_macs.verifies_per_update() < without.verifies_per_update(),
        "session MACs did not reduce verifies/update: {:.2} vs {:.2}",
        with_macs.verifies_per_update(),
        without.verifies_per_update()
    );
}
