//! SHARD: multi-group scaling sweep plus cross-shard 2PC legs.
//! `--smoke` runs the reduced CI matrix (2 groups, sim + rt, short legs);
//! the full run demands >= 3x aggregate scaling from 1 -> 4 groups.
//! SPIRE_SHARD_SECS scales the sweep legs; SPIRE_SHARD_JSON overrides the
//! JSON output path; SPIRE_SHARD_CPU_US overrides the modeled per-message
//! replica CPU time (the saturation ceiling); SPIRE_SHARD_RTUS the total
//! offered load.
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let secs = spire_bench::env_u64("SPIRE_SHARD_SECS", if smoke { 20 } else { 30 });
    let path = std::env::var("SPIRE_SHARD_JSON").unwrap_or_else(|_| "BENCH_PR9.json".to_string());
    if !spire_bench::experiments::shard_scaling(secs, smoke, Some(&path)) {
        std::process::exit(1);
    }
}
