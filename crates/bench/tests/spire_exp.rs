//! The `spire-exp` driver and the experiment table behind it, and the
//! documents that tell a reader what to run.

use spire_bench::experiments::TABLE;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn spire_exp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spire-exp"))
        .args(args)
        .output()
        .expect("spire-exp runs")
}

#[test]
fn table_names_are_unique_and_none_shadows_all() {
    let names: BTreeSet<&str> = TABLE.iter().map(|exp| exp.name).collect();
    assert_eq!(names.len(), TABLE.len(), "duplicate experiment name");
    assert!(!names.contains("all"));
    for exp in TABLE {
        assert!(!exp.doc.is_empty(), "{} has no doc line", exp.name);
    }
}

#[test]
fn list_prints_every_row() {
    let out = spire_exp(&["--list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    for exp in TABLE {
        assert!(
            text.lines()
                .any(|l| l.starts_with(exp.name) && l.ends_with(exp.doc)),
            "--list misses {}",
            exp.name
        );
    }
}

#[test]
fn usage_errors_exit_2_and_a_table_run_exits_0() {
    assert_eq!(spire_exp(&["no-such-experiment"]).status.code(), Some(2));
    assert_eq!(spire_exp(&[]).status.code(), Some(2));
    // A flag the experiment does not take is refused, not ignored.
    assert_eq!(
        spire_exp(&["t1", "--json", "x.json"]).status.code(),
        Some(2)
    );
    assert_eq!(spire_exp(&["t2", "--secs"]).status.code(), Some(2));
    assert_eq!(spire_exp(&["t2", "--secs=soon"]).status.code(), Some(2));
    assert_eq!(spire_exp(&["t1", "7"]).status.code(), Some(2));
    let out = spire_exp(&["planner", "1", "1", "2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("minimum replicas (3f+2k+1): 6"));
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// File stems under every `src/bin/` of the workspace.
fn binary_targets() -> BTreeSet<String> {
    let root = repo_root();
    let mut dirs = vec![root.join("src/bin")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(entry.expect("entry").path().join("src/bin"));
    }
    let mut bins = BTreeSet::new();
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                bins.insert(path.file_stem().unwrap().to_string_lossy().into_owned());
            }
        }
    }
    bins
}

/// Nobody can run the Actions workflow here, and the docs are not
/// compiled: every `--bin <x>` they name must be a binary target and every
/// `spire-exp <name>` a table row, or the command they show does not exist.
#[test]
fn ci_and_docs_name_only_real_binaries_and_experiments() {
    let bins = binary_targets();
    assert!(bins.contains("spire-exp") && bins.contains("run_scenario"));
    let rows: BTreeSet<&str> = TABLE.iter().map(|exp| exp.name).collect();
    // A name as written in prose or a command: quotes and punctuation off.
    let clean = |w: &str| {
        w.trim_matches(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '<')))
            .to_string()
    };
    let mut bad = Vec::new();
    for file in [
        ".github/workflows/ci.yml",
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(repo_root().join(file))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let words: Vec<&str> = text.split_whitespace().collect();
        for (i, word) in words.iter().enumerate() {
            let mut next = words.get(i + 1).copied().unwrap_or("");
            if *word == "--bin" {
                let name = clean(next);
                if !name.starts_with('<') && !bins.contains(&name) {
                    bad.push(format!("{file}: --bin {name}"));
                }
            } else if word.trim_start_matches(['`', '(', '$']) == "spire-exp"
                || word.ends_with("/spire-exp")
            {
                // `cargo run --bin spire-exp -- <name>`.
                if next == "--" {
                    next = words.get(i + 2).copied().unwrap_or("");
                }
                let name = clean(next);
                let placeholder = name.is_empty() || name.starts_with(['<', '-']);
                if !placeholder && name != "all" && !rows.contains(name.as_str()) {
                    bad.push(format!("{file}: spire-exp {name}"));
                }
            }
        }
    }
    assert!(
        bad.is_empty(),
        "names that do not exist:\n{}",
        bad.join("\n")
    );
}
