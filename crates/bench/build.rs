//! Stamps the bench binaries with the git revision they were built from,
//! so experiment summaries and report JSON can be told apart across PRs.

use std::process::Command;

fn main() {
    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=SPIRE_GIT_REV={rev}");
    // Re-stamp when HEAD moves: `HEAD` changes on a checkout, its reflog on
    // every commit to the branch it names (best effort: the paths only
    // exist in a checkout; missing paths are ignored by cargo).
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    println!("cargo:rerun-if-changed=../../.git/logs/HEAD");
}
