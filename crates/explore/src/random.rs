//! Seeded randomized schedule exploration with weighted adversarial
//! choices: reordering (random rather than FIFO delivery), duplication,
//! drops, timer skew, and partition bursts that discard every message
//! crossing a random cut — each model weighs them its own way
//! ([`Model::WEIGHTS`]). Byzantine-leader misbehavior (equivocation,
//! proposal delay) comes from the Prime scenario's behavior assignment,
//! so the random driver composes network-level adversaries with
//! replica-level ones.
//!
//! Exploration runs in *episodes*: each derives its own sub-seed, builds
//! a fresh cluster, and walks up to `steps_per_episode` choices, checking
//! invariants after every one. Any episode is reproducible from
//! `(scenario, seed, episode index)` alone — but failures are reported as
//! the explicit applied schedule, which replays without any RNG at all.

use crate::exhaustive::FoundViolation;
use crate::model::{Adversary, Model, Run};
use crate::schedule::Choice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Parameters for a randomized run.
#[derive(Clone, Debug)]
pub struct RandomParams {
    /// Master seed; episode `i` uses `seed ^ mix(i)`.
    pub seed: u64,
    /// Maximum episodes (`u64::MAX` to rely on `wall_limit`).
    pub episodes: u64,
    /// Choice budget per episode.
    pub steps_per_episode: usize,
    /// Optional wall-clock budget for the whole run.
    pub wall_limit: Option<Duration>,
}

impl Default for RandomParams {
    fn default() -> RandomParams {
        RandomParams {
            seed: 0,
            episodes: 64,
            steps_per_episode: 400,
            wall_limit: None,
        }
    }
}

/// Outcome of a randomized run.
#[derive(Clone, Debug, Default)]
pub struct RandomReport {
    /// Episodes completed (or cut short by a violation / wall limit).
    pub episodes: u64,
    /// Total applied choices across all episodes.
    pub steps: u64,
    /// High-water mark of [`Run::progress`] across episodes (executed ops
    /// for Prime, finished transactions for the cross-shard model).
    pub max_executed: u64,
    /// The first violating schedule, if any (the run stops on it).
    pub violation: Option<FoundViolation>,
}

fn episode_seed(master: u64, episode: u64) -> u64 {
    // splitmix64-style mix so consecutive episodes decorrelate.
    let mut z = master ^ episode.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs randomized exploration until a violation, the episode budget, or
/// the wall limit.
pub fn explore<M: Model>(model: &M, params: &RandomParams) -> RandomReport {
    let mut report = RandomReport::default();
    let started = Instant::now();
    for episode in 0..params.episodes {
        if let Some(limit) = params.wall_limit {
            if started.elapsed() >= limit {
                break;
            }
        }
        let mut rng = StdRng::seed_from_u64(episode_seed(params.seed, episode));
        let mut cluster = model.build();
        let mut applied = 0usize;
        while applied < params.steps_per_episode {
            let choices = pick(&mut rng, M::WEIGHTS, &cluster);
            if choices.is_empty() {
                break;
            }
            for choice in choices {
                if cluster.apply(&choice) {
                    applied += 1;
                    report.steps += 1;
                }
                if !cluster.ok() {
                    report.episodes = episode + 1;
                    report.max_executed = report.max_executed.max(cluster.progress());
                    report.violation = Some(FoundViolation {
                        kinds: cluster.violation_kinds(),
                        schedule: cluster.schedule().to_vec(),
                    });
                    return report;
                }
            }
        }
        report.max_executed = report.max_executed.max(cluster.progress());
        report.episodes = episode + 1;
    }
    report
}

/// Repeatedly explores (bumping the seed each round) and shrinks every
/// violation found, keeping the smallest; stops early once a shrunk
/// schedule has at most `target_len` events, or after `rounds` rounds.
///
/// Delta debugging only finds a *local* minimum, and how small it lands
/// depends on the shape of the starting schedule — hunting across a few
/// seeds reliably reaches near-global minima (e.g. the seeded quorum bug
/// shrinks to ~12 events) where a single unlucky seed plateaus at ~30.
pub fn hunt<M: Model>(
    model: &M,
    base: &RandomParams,
    rounds: u64,
    target_len: usize,
) -> Option<FoundViolation> {
    let started = Instant::now();
    let mut best: Option<FoundViolation> = None;
    for round in 0..rounds {
        let mut params = base.clone();
        params.seed = base.seed.wrapping_add(round);
        if let Some(limit) = base.wall_limit {
            let left = limit.saturating_sub(started.elapsed());
            if left.is_zero() {
                break;
            }
            params.wall_limit = Some(left);
        }
        let Some(found) = explore(model, &params).violation else {
            continue;
        };
        let shrunk = crate::shrink::shrink(model, &found.schedule);
        let kinds = crate::shrink::reproduces(model, &shrunk)
            .expect("shrunk schedule must still reproduce");
        if best
            .as_ref()
            .map(|b| shrunk.len() < b.schedule.len())
            .unwrap_or(true)
        {
            best = Some(FoundViolation {
                schedule: shrunk,
                kinds,
            });
        }
        if best
            .as_ref()
            .map(|b| b.schedule.len() <= target_len)
            .unwrap_or(false)
        {
            break;
        }
    }
    best
}

/// Picks the next choice(s) by weighted category: one roll selects the
/// category from `weights`, whose own draws (if any) follow. Partition
/// bursts return several `Drop`s at once; every other category returns
/// one choice.
fn pick(rng: &mut StdRng, weights: &[(Adversary, u32)], cluster: &impl Run) -> Vec<Choice> {
    let pending = cluster.pending_keys();
    let timers = cluster.armed_timers();
    let ops = cluster.uninjected_ops();
    let roll: u32 = rng.gen_range(0..100);
    let mut upto = 0;
    let category = weights.iter().find_map(|&(category, weight)| {
        upto += weight;
        (roll < upto).then_some(category)
    });
    match category {
        Some(Adversary::Inject) if !ops.is_empty() => {
            vec![Choice::Inject {
                op: ops[rng.gen_range(0..ops.len())],
            }]
        }
        Some(Adversary::Fifo) if !pending.is_empty() => {
            vec![Choice::Deliver {
                key: cluster.oldest_pending().expect("pending nonempty"),
            }]
        }
        Some(Adversary::Reorder) if !pending.is_empty() => {
            vec![Choice::Deliver {
                key: pending[rng.gen_range(0..pending.len())].clone(),
            }]
        }
        Some(Adversary::FireNext) if !timers.is_empty() => {
            let (replica, tag, _) = timers[0];
            vec![Choice::Fire { replica, tag }]
        }
        Some(Adversary::Duplicate) if !pending.is_empty() => {
            vec![Choice::Duplicate {
                key: pending[rng.gen_range(0..pending.len())].clone(),
            }]
        }
        Some(Adversary::Drop) if !pending.is_empty() => {
            vec![Choice::Drop {
                key: pending[rng.gen_range(0..pending.len())].clone(),
            }]
        }
        Some(Adversary::Partition) if !pending.is_empty() => {
            let side_mask: u32 = rng.gen();
            let crossing: Vec<Choice> = pending
                .iter()
                .filter(|key| {
                    let from_side = (side_mask >> (key.from % 32)) & 1;
                    let to_side = (side_mask >> (key.to % 32)) & 1;
                    from_side != to_side
                })
                .map(|key| Choice::Drop { key: key.clone() })
                .collect();
            if crossing.is_empty() {
                fallback(cluster)
            } else {
                crossing
            }
        }
        Some(Adversary::Skew) if !timers.is_empty() => {
            let (replica, tag, _) = timers[rng.gen_range(0..timers.len())];
            vec![Choice::Fire { replica, tag }]
        }
        // Chosen category empty right now — do something useful instead.
        _ => fallback(cluster),
    }
}

fn fallback(cluster: &impl Run) -> Vec<Choice> {
    if let Some(key) = cluster.oldest_pending() {
        return vec![Choice::Deliver { key }];
    }
    if let Some(&(replica, tag, _)) = cluster.armed_timers().first() {
        return vec![Choice::Fire { replica, tag }];
    }
    if let Some(&op) = cluster.uninjected_ops().first() {
        return vec![Choice::Inject { op }];
    }
    Vec::new()
}
