//! Multi-group sharded deployments: N independent Prime groups (each
//! `3f + 2k + 1` replicas over its own pair of overlays) partitioning the
//! RTU fleet by a deterministic [`ShardMap`], plus one cross-shard
//! coordinator client running ordered 2PC-over-BFT supervisory commands
//! across groups.
//!
//! Ordering inside one Prime group is sequential — a single group's
//! confirmed-updates/s ceiling does not move no matter how fast the hot
//! path gets. Sharding is the way through: each group orders only its own
//! shard's traffic, so aggregate throughput scales with the group count
//! while the (rare) multi-region supervisory command pays the cross-shard
//! coordination cost explicitly.
//!
//! There is no sharded orchestrator: [`Deployment::build_sharded`]
//! returns the same [`Deployment`] the single-group build does — N
//! [`GroupParts`] in **one** `World` plus the cross-shard parts
//! ([`XShard`]) — so a sharded system is scheduled, checked, run on the
//! simulator, moved to the real-clock runtime with
//! [`Deployment::into_rt`] and reported by the code a single group uses.

use crate::deployment::{
    build_group, key_base, AppFactory, Deployment, DeploymentConfig, GroupParts, GroupSpec, XShard,
};
use spire_crypto::keys::Signer;
use spire_crypto::NodeId;
use spire_prime::{ClientId, ClientRouting, ReplicaKeys};
use spire_scada::{ScadaDirectory, ScadaMaster, XShardContext};
use spire_shard::coordinator::{CoordinatorProcess, GroupLink, XCoordConfig};
use spire_shard::{
    CertVerifier, ShardMap, XParticipant, XShardLedger, COORD_CLIENT_ID, COORD_CLIENT_PORT,
    SHARD_KEY_STRIDE,
};
use spire_sim::{ControlOp, LinkConfig, Span, Time};
use spire_spines::{Dissemination, OverlayId, SpinesPort};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parameters of a sharded deployment.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Per-group layout, workload and protocol knobs. `workload.rtus` is
    /// the **total** RTU fleet, partitioned across groups; `byz` applies
    /// to group 0 only (each group tolerates its own `f`).
    pub base: DeploymentConfig,
    /// Number of replication groups.
    pub shards: u32,
    /// Cross-shard share of supervisory commands, `0.0..1.0` (measured
    /// against the per-group HMI command cadence). `0.0` disables the
    /// coordinator workload.
    pub cross_rate: f64,
    /// Poison every Nth cross-shard transaction (0 = never): poisoned
    /// prepares are rejected by the coordinator group, exercising the
    /// abort path under load.
    pub poison_every: u64,
}

impl ShardedConfig {
    /// A sharded variant of [`DeploymentConfig::wide_area`].
    pub fn wide_area(shards: u32, seed: u64) -> ShardedConfig {
        ShardedConfig {
            base: DeploymentConfig::wide_area(seed),
            shards,
            cross_rate: 0.0,
            poison_every: 0,
        }
    }
}

/// Deterministic cross-shard RTU pairs for the coordinator workload: each
/// group's first couple of RTUs paired with the next group's.
fn cross_pairs(partition: &[Vec<u32>]) -> Vec<(u32, u32)> {
    let n = partition.len();
    if n < 2 {
        return Vec::new();
    }
    let mut pairs = Vec::new();
    for g in 0..n {
        let (a, b) = (&partition[g], &partition[(g + 1) % n]);
        if a.is_empty() || b.is_empty() {
            continue;
        }
        for i in 0..a.len().min(2) {
            pairs.push((a[i], b[i % b.len()]));
        }
    }
    pairs
}

/// New-transaction cadence making cross-shard commands a `cross_rate`
/// fraction of all supervisory commands (`Span::ZERO` disables).
fn cross_interval(cfg: &ShardedConfig, have_pairs: bool) -> Span {
    if cfg.cross_rate <= 0.0 || !have_pairs {
        return Span::ZERO;
    }
    let rate = cfg.cross_rate.min(0.9);
    let cmd_iv_us = cfg.base.workload.command_interval.0.max(1) as f64;
    let intra_per_us = (cfg.shards as f64 * cfg.base.workload.hmis as f64) / cmd_iv_us;
    if intra_per_us <= 0.0 {
        return Span::ZERO;
    }
    let cross_per_us = intra_per_us * rate / (1.0 - rate);
    Span((1.0 / cross_per_us).max(1.0) as u64)
}

impl Deployment {
    /// Builds `cfg.shards` groups and the cross-shard coordinator.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or an invalid base [`SpireConfig`]
    /// (validated exactly as the single-group build does).
    ///
    /// [`SpireConfig`]: crate::config::SpireConfig
    pub fn build_sharded(cfg: ShardedConfig) -> Deployment {
        assert!(cfg.shards >= 1, "at least one shard");
        let map = ShardMap::new(cfg.shards);
        let partition = map.partition(0..cfg.base.workload.rtus);
        let mut specs: Vec<GroupSpec> = (0..cfg.shards)
            .map(|g| GroupSpec {
                key_offset: g * SHARD_KEY_STRIDE,
                label: format!("s{g}-"),
                metric_scope: Some(format!("shard{g}")),
                rtus: partition[g as usize].clone(),
                hmis: cfg.base.workload.hmis,
                byz: if g == 0 {
                    cfg.base.byz.clone()
                } else {
                    BTreeMap::new()
                },
                extra_clients: vec![(COORD_CLIENT_ID, COORD_CLIENT_PORT)],
                // Set below: the application verifies against the key store.
                app_factory: None,
            })
            .collect();
        // One key space, so prepare certificates from any group verify
        // in any other.
        let (mut world, material, keystore) = Deployment::foundation(&cfg.base, &specs);
        let ledger = Arc::new(XShardLedger::new());
        let verifier = CertVerifier {
            keystore: Arc::clone(&keystore),
            stride: SHARD_KEY_STRIDE,
            replica_base: key_base::REPLICA,
            n: cfg.base.spire.total_replicas(),
            client: ClientId(COORD_CLIENT_ID),
            f: cfg.base.spire.f,
            mock: cfg.base.mock_sigs,
        };

        let mut groups: Vec<GroupParts> = Vec::new();
        for (g, spec) in (0..cfg.shards).zip(&mut specs) {
            let group_verifier = verifier.clone();
            let group_ledger = Arc::clone(&ledger);
            let factory: AppFactory = Arc::new(move |dir: &ScadaDirectory| {
                Box::new(ScadaMaster::new(dir.clone()).with_xshard(XShardContext {
                    participant: XParticipant::new(g),
                    verifier: group_verifier.clone(),
                    ledger: Arc::clone(&group_ledger),
                }))
            });
            spec.app_factory = Some(factory);
            groups.push(build_group(
                &mut world, &cfg.base, spec, &material, &keystore,
            ));
        }

        // The atomicity ledger reports through group 0's online checker.
        {
            let drain_ledger = Arc::clone(&ledger);
            groups[0].checker.add_external(
                "xshard-atomicity",
                Arc::new(move || drain_ledger.drain_violations()),
            );
        }

        // ---------- the cross-shard coordinator client ----------
        let links: Vec<GroupLink> = groups
            .iter()
            .map(|parts| {
                let daemon = parts.external.daemon_pid(OverlayId(parts.hmi_site));
                GroupLink {
                    routing: ClientRouting::Spines {
                        port: SpinesPort::new(daemon, parts.client_addrs[&COORD_CLIENT_ID]),
                        addrs: parts.replica_addrs.clone(),
                        mode: Dissemination::Flood,
                    },
                    signer: Signer::new(
                        material.signing_key(NodeId(parts.prime.client_key_base + COORD_CLIENT_ID)),
                        cfg.base.mock_sigs,
                    ),
                    keys: ReplicaKeys {
                        keystore: Arc::clone(&keystore),
                        key_base: parts.prime.replica_key_base,
                        n: parts.prime.n,
                        mock: cfg.base.mock_sigs,
                    },
                }
            })
            .collect();
        let pairs = cross_pairs(&partition);
        let interval = cross_interval(&cfg, !pairs.is_empty());
        let xcfg = XCoordConfig {
            groups: cfg.shards,
            f: cfg.base.spire.f,
        };
        let coordinator = CoordinatorProcess::new(
            xcfg,
            links,
            ClientId(COORD_CLIENT_ID),
            interval,
            map.clone(),
            pairs,
            cfg.poison_every,
        );
        let coordinator_pid = world.add_process("xcoord", Box::new(coordinator));
        for parts in &groups {
            parts
                .external
                .wire_client(&mut world, OverlayId(parts.hmi_site), coordinator_pid);
        }

        let xshard = XShard {
            map,
            coordinator_pid,
            ledger,
        };
        Deployment::assemble(world, cfg.base, groups, Some(xshard))
    }

    /// The cross-shard parts of a sharded build.
    ///
    /// # Panics
    ///
    /// Panics on a deployment built without a coordinator
    /// ([`Deployment::build`]) — asking for them there is a caller bug.
    pub fn xshard(&self) -> &XShard {
        self.xshard
            .as_ref()
            .expect("not a sharded deployment: no cross-shard coordinator")
    }

    /// Schedules a chaos window against the coordinator's access links
    /// (HMI-site external daemon ↔ coordinator, per group) between `from`
    /// and `until`: every frame to/from the coordinator is dropped with
    /// probability `loss` and duplicated with probability `dup`.
    /// Prepares, commits, aborts and acks all get lost or re-delivered —
    /// atomicity must hold regardless (blocking commit retries + per-xid
    /// idempotence). Panics like [`Deployment::xshard`] without a
    /// coordinator.
    pub fn schedule_coordinator_chaos(&mut self, from: Time, until: Time, loss: f64, dup: f64) {
        let coordinator = self.xshard().coordinator_pid;
        let window = |link: LinkConfig| -> Vec<ControlOp> {
            self.groups
                .iter()
                .map(|parts| {
                    let daemon = parts.external.daemon_pid(OverlayId(parts.hmi_site));
                    ControlOp::SetLinkConfig(daemon, coordinator, link)
                })
                .collect()
        };
        let mut ops = window(LinkConfig::local().with_loss(loss).with_dup(dup));
        let restore = window(LinkConfig::local());
        ops.push(ControlOp::Count("xshard.chaos_windows".into(), 1));
        self.schedule_ops(from, ops);
        self.schedule_ops(until, restore);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_pairs_span_groups() {
        let partition = vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]];
        let pairs = cross_pairs(&partition);
        assert!(!pairs.is_empty());
        for (a, b) in &pairs {
            let ga = partition.iter().position(|p| p.contains(a)).unwrap();
            let gb = partition.iter().position(|p| p.contains(b)).unwrap();
            assert_ne!(ga, gb, "pair ({a},{b}) must cross groups");
        }
    }

    #[test]
    fn cross_pairs_need_two_groups() {
        assert!(cross_pairs(&[vec![0, 1, 2]]).is_empty());
    }

    #[test]
    fn cross_interval_scales_with_rate() {
        let mut cfg = ShardedConfig::wide_area(2, 1);
        assert_eq!(cross_interval(&cfg, true), Span::ZERO);
        cfg.cross_rate = 0.1;
        let at_10 = cross_interval(&cfg, true);
        assert!(at_10 > Span::ZERO);
        cfg.cross_rate = 0.5;
        let at_50 = cross_interval(&cfg, true);
        assert!(at_50 < at_10, "higher mix means a shorter interval");
        assert_eq!(cross_interval(&cfg, false), Span::ZERO);
    }
}
