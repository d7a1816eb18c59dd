#!/usr/bin/env bash
# Quick self-check of the benchmark itself, for a CI job to call from the
# repository root: the unit tests, then every workload and both passes at
# 3 s per pass with the per-layer loops cut to a tenth (~1 minute in all).
# Numbers from a smoke run are not comparable with anything.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --smoke --out benchmark/results/smoke
