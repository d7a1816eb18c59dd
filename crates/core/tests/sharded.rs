//! Multi-group sharded-system tests: N Prime groups partitioning the RTU
//! fleet, plus the cross-shard coordinator running 2PC-over-BFT
//! supervisory commands — on both substrates, with and without chaos on
//! the coordinator's links.

use spire::deployment::Deployment;
use spire::sharded::ShardedConfig;
use spire_scada::WorkloadConfig;
use spire_sim::{Span, Time};

fn quick_workload() -> WorkloadConfig {
    WorkloadConfig {
        rtus: 8,
        update_interval: Span::millis(500),
        hmis: 1,
        command_interval: Span::secs(5),
        ..Default::default()
    }
}

fn quick_cfg(shards: u32, seed: u64) -> ShardedConfig {
    let mut cfg = ShardedConfig::wide_area(shards, seed);
    cfg.base.workload = quick_workload();
    cfg
}

fn secs(s: u64) -> Time {
    Time(s * 1_000_000)
}

#[test]
fn two_shards_partition_the_fleet_and_both_deliver() {
    let mut system = Deployment::build_sharded(quick_cfg(2, 1));
    system.install_invariant_checker(Span::secs(1), secs(30));
    system.run_for(Span::secs(30));
    let report = system.report();
    assert!(report.safety_ok, "safety violated");
    assert!(
        report.delivery_ratio() > 0.97,
        "aggregate delivery {} ({} of {})",
        report.delivery_ratio(),
        report.updates_confirmed,
        report.updates_sent
    );
    // Every RTU landed in exactly one group and both groups carry load.
    let m = system.world.metrics();
    let s0 = m.counter("shard0.updates_confirmed");
    let s1 = m.counter("shard1.updates_confirmed");
    assert!(s0 > 0 && s1 > 0, "shard confirms {s0}/{s1}");
    assert_eq!(
        s0 + s1,
        report.updates_confirmed,
        "per-shard counters must partition the aggregate"
    );
    // Every counter is namespaced by the label of the instance that emits
    // it; a bare key would be shared by every group of the deployment.
    let bare: Vec<&str> = m.counter_names().filter(|k| !k.contains('.')).collect();
    assert!(bare.is_empty(), "counters without a label: {bare:?}");
}

#[test]
fn cross_shard_commands_commit_atomically() {
    let mut cfg = quick_cfg(2, 2);
    cfg.cross_rate = 0.3;
    let mut system = Deployment::build_sharded(cfg);
    system.install_invariant_checker(Span::secs(1), secs(40));
    system.run_for(Span::secs(40));
    let m = system.world.metrics();
    let commands = m.counter("xshard.commands");
    let commits = m.counter("xshard.commits");
    assert!(commands >= 3, "too few cross-shard commands: {commands}");
    assert!(commits >= 2, "too few commits: {commits} of {commands}");
    assert_eq!(
        system.xshard().ledger.violation_count(),
        0,
        "atomicity violated"
    );
    let report = system.report();
    assert!(report.safety_ok);
    // Both participants of each committed transaction actually executed
    // it: the ledger saw a full set of matching decisions.
    let counts = system.xshard().ledger.counts();
    assert!(
        counts.committed >= commits,
        "{} < {commits}",
        counts.committed
    );
    assert_eq!(counts.aborted, m.counter("xshard.aborts"));
}

#[test]
fn poisoned_transactions_abort_atomically() {
    let mut cfg = quick_cfg(2, 3);
    cfg.cross_rate = 0.4;
    cfg.poison_every = 2; // every other transaction is rejected at prepare
    let mut system = Deployment::build_sharded(cfg);
    system.install_invariant_checker(Span::secs(1), secs(40));
    system.run_for(Span::secs(40));
    let m = system.world.metrics();
    assert!(m.counter("xshard.commits") > 0, "no commits");
    assert!(m.counter("xshard.aborts") > 0, "no aborts");
    assert!(system.report().safety_ok);
    assert_eq!(system.xshard().ledger.violation_count(), 0);
}

#[test]
fn coordinator_chaos_never_breaks_atomicity() {
    let mut cfg = quick_cfg(2, 4);
    cfg.cross_rate = 0.4;
    let mut system = Deployment::build_sharded(cfg);
    // Drop 75% and duplicate 30% of every frame to/from the coordinator
    // for the middle of the run: prepares, certificates, commits and acks
    // all get lost or replayed. (Loss must be savage — a prepare floods to
    // all 6 replicas and only f+1 replies are needed, so mild loss never
    // even triggers a retry.)
    system.schedule_coordinator_chaos(secs(10), secs(30), 0.75, 0.3);
    system.install_invariant_checker(Span::secs(1), secs(45));
    system.run_for(Span::secs(45));
    let m = system.world.metrics();
    assert!(
        m.counter("xshard.commits") > 0,
        "2PC must make progress through chaos (blocking commit)"
    );
    assert!(m.counter("xshard.retries") > 0, "chaos never bit");
    assert_eq!(
        system.xshard().ledger.violation_count(),
        0,
        "atomicity violated under chaos"
    );
    assert!(system.report().safety_ok);
}

/// A group-0 replica recovers once cross-shard transactions have been
/// decided: its state transfer carries the SCADA master's snapshot with the
/// 2PC participant appended, and it rejoins equal to its peers.
#[test]
fn recovery_restores_the_sharded_snapshot() {
    let mut cfg = quick_cfg(2, 8);
    cfg.cross_rate = 0.3;
    let mut system = Deployment::build_sharded(cfg);
    system.install_invariant_checker(Span::secs(1), secs(40));
    system.run_for(Span::secs(12));
    let decided = system.xshard().ledger.counts();
    assert!(
        decided.committed + decided.aborted > 0,
        "nothing decided yet"
    );
    system.schedule_recovery(2, secs(13));
    system.run_for(Span::secs(28));

    let report = system.report();
    let m = system.world.metrics();
    assert_eq!(report.recovery.started, 1);
    assert!(
        report.recovery.completed >= 1,
        "state transfer never completed"
    );
    assert!(report.recovery.chunks > 0, "no snapshot was transferred");
    assert_eq!(m.counter("prime.bad_state_snapshot"), 0);
    let records = system.groups[0].inspection.records();
    let recovered = &records[&2];
    assert!(!recovered.recovering && recovered.incarnation == 1);
    // Every peer that has executed as far agrees on the application state.
    let peers: Vec<_> = records
        .iter()
        .filter(|(id, rec)| **id != 2 && rec.ops_executed == recovered.ops_executed)
        .collect();
    assert!(peers.len() >= 2, "no peer at op {}", recovered.ops_executed);
    for (id, rec) in peers {
        assert_eq!(rec.app_digest, recovered.app_digest, "replica {id}");
    }
    assert_eq!(system.xshard().ledger.violation_count(), 0);
    assert!(report.safety_ok);
}

#[test]
fn sharded_runs_are_deterministic() {
    let run = |seed| {
        let mut cfg = quick_cfg(2, seed);
        cfg.cross_rate = 0.3;
        let mut system = Deployment::build_sharded(cfg);
        system.run_for(Span::secs(20));
        let m = system.world.metrics();
        (
            m.counter("scada.updates_confirmed"),
            m.counter("shard0.updates_confirmed"),
            m.counter("xshard.commands"),
            m.counter("xshard.commits"),
            m.counter("xshard.aborts"),
        )
    };
    assert_eq!(run(11), run(11), "same seed must reproduce exactly");
}

#[test]
fn sharded_rt_substrate_matches_sim_semantics() {
    let mut cfg = quick_cfg(2, 6);
    cfg.cross_rate = 0.3;
    let system = Deployment::build_sharded(cfg);
    let outcome = system.into_rt(2).run_for(Span::secs(8));
    let report = &outcome.report;
    assert!(report.safety_ok, "rt safety violated");
    assert!(
        report.delivery_ratio() > 0.9,
        "rt delivery {}",
        report.delivery_ratio()
    );
    let m = &outcome.run.metrics;
    assert!(m.counter("shard0.updates_confirmed") > 0);
    assert!(m.counter("shard1.updates_confirmed") > 0);
    assert!(m.counter("xshard.commits") > 0, "no rt cross-shard commits");
}

#[test]
#[should_panic(expected = "not a sharded deployment")]
fn coordinator_chaos_needs_a_coordinator() {
    let mut system = Deployment::build(quick_cfg(1, 7).base);
    system.schedule_coordinator_chaos(secs(1), secs(2), 0.5, 0.0);
}
