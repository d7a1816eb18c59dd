//! Seeded chaos adversary: reproducible randomized fault schedules.
//!
//! A [`ChaosPlan`] is generated from a seed alone — the same seed always
//! yields the same attack stream, so any failing run is reproducible by
//! its seed (Jepsen-style). The generator mixes every fault class the
//! deployment supports: replica crash/recover churn, rolling proactive
//! recovery, compromises, site DoS and disconnection windows, and
//! wire-fault windows (corruption, duplication, jitter-induced
//! reordering).
//!
//! A [`FaultBudget`] accountant guarantees the plan never exceeds what
//! the protocol tolerates: at most `f` concurrently-Byzantine replicas,
//! at most `f + k` concurrently faulty-or-recovering replicas, one site
//! attack window at a time, and no replica faults while a site is under
//! attack (the paper's threat model is `f` intrusions *plus* one
//! disconnected site, with recovering replicas counted against `k`).
//! Within that envelope, a correct system must stay safe — the online
//! invariant checker enforces exactly that during the run.

use crate::attack::{Attack, Scenario};
use crate::config::SpireConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spire_prime::ByzBehavior;
use spire_sim::{Span, Time};

/// Margin after a recovery completes during which the replica still
/// counts against the fault budget (state transfer takes a few seconds).
const RECOVERY_MARGIN: Span = Span(5_000_000);

/// Tracks which replicas are faulty over which intervals so the plan
/// stays within `f` Byzantine / `f + k` total concurrent faults.
#[derive(Debug, Default)]
pub struct FaultBudget {
    /// `(replica, from, until, byzantine)` fault windows.
    windows: Vec<(u32, Time, Time, bool)>,
    /// Site attack windows `(from, until)`.
    site_windows: Vec<(Time, Time)>,
}

impl FaultBudget {
    fn overlapping(&self, from: Time, until: Time, byz_only: bool) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .windows
            .iter()
            .filter(|(_, f, u, byz)| *f < until && from < *u && (!byz_only || *byz))
            .map(|(id, ..)| *id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn site_busy(&self, from: Time, until: Time) -> bool {
        self.site_windows
            .iter()
            .any(|(f, u)| *f < until && from < *u)
    }

    /// Can `id` become Byzantine over `[from, until)` within budget `f`?
    fn can_compromise(&self, id: u32, from: Time, until: Time, f: u32) -> bool {
        let byz = self.overlapping(from, until, true);
        !byz.contains(&id) && (byz.len() as u32) < f && !self.site_busy(from, until)
    }

    /// Can `id` be down/recovering over `[from, until)` within `f + k`?
    fn can_fault(&self, id: u32, from: Time, until: Time, f: u32, k: u32) -> bool {
        let all = self.overlapping(from, until, false);
        !all.contains(&id) && (all.len() as u32) < f + k && !self.site_busy(from, until)
    }

    /// Can a site attack run over `[from, until)`? Only one at a time,
    /// and never while replica faults are in flight.
    fn can_attack_site(&self, from: Time, until: Time) -> bool {
        !self.site_busy(from, until) && self.overlapping(from, until, false).is_empty()
    }
}

/// A reproducible randomized attack schedule within the fault budget.
#[derive(Debug)]
pub struct ChaosPlan {
    /// The generating seed (reproduces the plan exactly).
    pub seed: u64,
    /// The generated attack stream, in schedule order.
    pub attacks: Vec<Attack>,
    /// Plan horizon.
    pub duration: Span,
    /// Human-readable event log, one line per generated event.
    pub log: Vec<String>,
}

impl ChaosPlan {
    /// Generates the plan for `seed` against the given replication
    /// layout, covering `duration` (events stop ~5 s before the end so
    /// the system settles before final liveness accounting).
    pub fn generate(seed: u64, spire: &SpireConfig, duration: Span) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);
        let n = spire.total_replicas();
        let n_sites = spire.sites.len();
        let (f, k) = (spire.f, spire.k);
        let mut budget = FaultBudget::default();
        let mut attacks = Vec::new();
        let mut log = Vec::new();
        let mut rr_recovery: u32 = rng.gen_range(0..n);
        let horizon = Time(duration.0.saturating_sub(5_000_000));
        let mut t = Time(2_000_000);
        let secs = |t: Time| t.0 as f64 / 1e6;
        while t < horizon {
            let until_cap = horizon;
            match rng.gen_range(0u32..10) {
                // Crash + recover churn (weight 3).
                0..=2 => {
                    let id = rng.gen_range(0..n);
                    let recover_at =
                        Time((t.0 + rng.gen_range(3_000_000u64..8_000_000)).min(until_cap.0));
                    let busy_until = recover_at + RECOVERY_MARGIN;
                    if budget.can_fault(id, t, busy_until, f, k) {
                        budget.windows.push((id, t, busy_until, false));
                        attacks.push(Attack::KillReplica { id, at: t });
                        attacks.push(Attack::Recover { id, at: recover_at });
                        log.push(format!(
                            "{:7.1}s crash replica {id}, recover at {:.1}s",
                            secs(t),
                            secs(recover_at)
                        ));
                    }
                }
                // Rolling proactive recovery (weight 2).
                3..=4 => {
                    let id = rr_recovery % n;
                    let busy_until = t + RECOVERY_MARGIN;
                    if budget.can_fault(id, t, busy_until, f, k) {
                        rr_recovery += 1;
                        budget.windows.push((id, t, busy_until, false));
                        attacks.push(Attack::Recover { id, at: t });
                        log.push(format!(
                            "{:7.1}s proactive recovery of replica {id}",
                            secs(t)
                        ));
                    }
                }
                // Compromise within the f budget, cleaned by a later
                // recovery (weight 2).
                5..=6 => {
                    let id = rng.gen_range(0..n);
                    let recover_at =
                        Time((t.0 + rng.gen_range(8_000_000u64..15_000_000)).min(until_cap.0));
                    let busy_until = recover_at + RECOVERY_MARGIN;
                    if budget.can_compromise(id, t, busy_until, f)
                        && budget.can_fault(id, t, busy_until, f, k)
                    {
                        let behavior = match rng.gen_range(0u32..6) {
                            0 => ByzBehavior::DivergentExec,
                            1 => ByzBehavior::Equivocate,
                            2 => ByzBehavior::AckWithhold,
                            3 => ByzBehavior::Mute,
                            4 => ByzBehavior::CorruptChunks,
                            _ => ByzBehavior::LeaderDelay(Span::millis(800)),
                        };
                        budget.windows.push((id, t, busy_until, true));
                        attacks.push(Attack::Compromise {
                            id,
                            behavior,
                            at: t,
                        });
                        attacks.push(Attack::Recover { id, at: recover_at });
                        log.push(format!(
                            "{:7.1}s compromise replica {id} ({behavior:?}), recover at {:.1}s",
                            secs(t),
                            secs(recover_at)
                        ));
                    }
                }
                // Site DoS or disconnect window (weight 2).
                7..=8 => {
                    let site = rng.gen_range(0..n_sites);
                    let until =
                        Time((t.0 + rng.gen_range(5_000_000u64..10_000_000)).min(until_cap.0));
                    if until > t && budget.can_attack_site(t, until) {
                        budget.site_windows.push((t, until));
                        if rng.gen_bool(0.5) {
                            let loss = rng.gen_range(0.3..0.7);
                            attacks.push(Attack::DosSite {
                                site,
                                from: t,
                                until,
                                loss,
                            });
                            log.push(format!(
                                "{:7.1}s DoS site {site} until {:.1}s (loss {loss:.2})",
                                secs(t),
                                secs(until)
                            ));
                        } else {
                            attacks.push(Attack::DisconnectSite {
                                site,
                                from: t,
                                until,
                            });
                            log.push(format!(
                                "{:7.1}s disconnect site {site} until {:.1}s",
                                secs(t),
                                secs(until)
                            ));
                        }
                    }
                }
                // Wire-fault window: corruption + duplication + jitter
                // reordering; free — consumes no fault budget (weight 1).
                _ => {
                    let site = rng.gen_range(0..n_sites);
                    let until =
                        Time((t.0 + rng.gen_range(5_000_000u64..10_000_000)).min(until_cap.0));
                    if until > t && !budget.site_busy(t, until) {
                        let corrupt = rng.gen_range(0.01..0.05);
                        let dup = rng.gen_range(0.05..0.2);
                        let jitter = Span::millis(rng.gen_range(10..30));
                        attacks.push(Attack::WireFaults {
                            site,
                            from: t,
                            until,
                            corrupt,
                            dup,
                            jitter,
                        });
                        log.push(format!(
                            "{:7.1}s wire faults at site {site} until {:.1}s \
                             (corrupt {corrupt:.3}, dup {dup:.2}, jitter {}ms)",
                            secs(t),
                            secs(until),
                            jitter.0 / 1_000
                        ));
                    }
                }
            }
            t = t + Span(rng.gen_range(3_000_000u64..8_000_000));
        }
        ChaosPlan {
            seed,
            attacks,
            duration,
            log,
        }
    }

    /// Restricts the plan to network-level faults (site DoS/disconnect
    /// and wire-fault windows), dropping every replica crash, recovery
    /// and compromise. Used when an external schedule owns replica churn
    /// — e.g. the rolling proactive-recovery rotation of the endurance
    /// experiment — so the whole `f + k` fault budget stays free for it
    /// while the network still drops, corrupts and reorders the state
    /// transfer's chunk traffic.
    pub fn network_only(mut self) -> ChaosPlan {
        self.attacks.retain(|a| {
            matches!(
                a,
                Attack::DosSite { .. } | Attack::DisconnectSite { .. } | Attack::WireFaults { .. }
            )
        });
        self.log.retain(|l| l.contains("site"));
        self
    }

    /// Wraps the plan as a named [`Scenario`] so the standard runners
    /// (apply + invariant checker + report) drive it unchanged.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            name: format!("chaos seed {}", self.seed),
            attacks: self.attacks.clone(),
            duration: self.duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> ChaosPlan {
        ChaosPlan::generate(seed, &SpireConfig::spread(1, 1, 2), Span::secs(60))
    }

    fn fingerprint(p: &ChaosPlan) -> String {
        p.log.join("\n")
    }

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(fingerprint(&plan(42)), fingerprint(&plan(42)));
        assert_ne!(fingerprint(&plan(42)), fingerprint(&plan(43)));
    }

    #[test]
    fn plans_are_nonempty_and_bounded() {
        for seed in 0..20 {
            let p = plan(seed);
            assert!(!p.attacks.is_empty(), "seed {seed} generated no attacks");
            for a in &p.attacks {
                let at = match a {
                    Attack::Compromise { at, .. }
                    | Attack::KillReplica { at, .. }
                    | Attack::Recover { at, .. } => *at,
                    Attack::DosSite { until, .. }
                    | Attack::DisconnectSite { until, .. }
                    | Attack::WireFaults { until, .. } => *until,
                };
                assert!(at <= Time(60_000_000), "event past horizon in seed {seed}");
            }
        }
    }

    #[test]
    fn network_only_drops_replica_faults() {
        for seed in 0..20 {
            let p = plan(seed).network_only();
            for a in &p.attacks {
                assert!(
                    matches!(
                        a,
                        Attack::DosSite { .. }
                            | Attack::DisconnectSite { .. }
                            | Attack::WireFaults { .. }
                    ),
                    "seed {seed} kept a replica fault: {a:?}"
                );
            }
            assert_eq!(
                p.attacks.len(),
                p.log.len(),
                "log out of sync (seed {seed})"
            );
        }
    }

    #[test]
    fn budget_never_exceeds_f_byzantine() {
        // Reconstruct the byzantine intervals from the generated attacks
        // and verify no instant has more than f concurrent compromises.
        for seed in 0..50 {
            let p = plan(seed);
            let mut events: Vec<(Time, i32)> = Vec::new();
            let mut open: std::collections::BTreeMap<u32, Time> = Default::default();
            for a in &p.attacks {
                match a {
                    Attack::Compromise { id, at, .. } => {
                        open.insert(*id, *at);
                    }
                    Attack::Recover { id, at } => {
                        if let Some(from) = open.remove(id) {
                            events.push((from, 1));
                            events.push((*at, -1));
                        }
                    }
                    _ => {}
                }
            }
            for (_, from) in open {
                events.push((from, 1));
            }
            events.sort_by_key(|(t, d)| (t.0, *d));
            let mut live = 0i32;
            for (_, d) in events {
                live += d;
                assert!(
                    live <= 1,
                    "seed {seed}: more than f=1 concurrent compromises"
                );
            }
        }
    }
}
