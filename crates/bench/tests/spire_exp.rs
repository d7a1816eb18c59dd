//! The `spire-exp` driver and the experiment table behind it, and the
//! documents that tell a reader what to run.

use spire_bench::experiments::TABLE;
use spire_sim::json::Json;
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
    assert_eq!(spire_exp(&["t1", "--secs", "5"]).status.code(), Some(2));
    assert_eq!(spire_exp(&["t2", "--secs"]).status.code(), Some(2));
    assert_eq!(spire_exp(&["t2", "--secs=soon"]).status.code(), Some(2));
    assert_eq!(spire_exp(&["t1", "7"]).status.code(), Some(2));
    assert_eq!(spire_exp(&["all", "--json", "x"]).status.code(), Some(2));
    assert_eq!(
        spire_exp(&["planner", "1", "1", "2"]).status.code(),
        Some(0)
    );
}

/// `--json PATH` applies to every row; the file is the summary the table
/// was printed from.
#[test]
fn json_is_written_for_a_row_that_only_prints_a_table() {
    let path = std::env::temp_dir().join(format!("spire-exp-t1-{}.json", std::process::id()));
    let out = spire_exp(&["t1", "--json", path.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("summary written");
    std::fs::remove_file(&path).expect("removed");
    let doc = spire_sim::json::parse(&text).expect("summary is JSON");
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("t1"));
    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
    // f = 1, k = 1: the paper's six replicas, over four sites or more.
    assert_eq!(rows.len(), 9);
    assert_eq!(rows[1].get("spire"), Some(&Json::Num(6)));
    assert_eq!(rows[1].get("over_4_sites"), Some(&Json::Num(6)));
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The first untagged fenced block under the EXPERIMENTS.md heading that
/// names `spire-exp <name>`: what the tool printed, verbatim.
fn recorded_output(doc: &str, name: &str) -> String {
    let heading = format!("(`spire-exp {name}`)");
    let section = doc
        .split("\n## ")
        .find(|section| section.lines().next().is_some_and(|l| l.contains(&heading)))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no heading naming {heading}"));
    // Fences alternate open / close; only an opening one carries a tag.
    let mut fences = section.split("\n```");
    fences.next();
    while let (Some(block), Some(_after)) = (fences.next(), fences.next()) {
        if let Some(untagged) = block.strip_prefix('\n') {
            return format!("{untagged}\n");
        }
    }
    panic!("no untagged fenced block under {heading}");
}

/// EXPERIMENTS.md's "Measured" blocks are the tool's output, not a
/// transcription: the two rows that measure nothing must match byte for
/// byte, and every row's block opens with the title that row prints.
#[test]
fn experiments_md_records_what_the_tool_prints() {
    let doc = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    for args in [&["t1"][..], &["planner", "1", "1", "2"]] {
        let out = spire_exp(args);
        assert_eq!(out.status.code(), Some(0));
        let printed = String::from_utf8(out.stdout).expect("utf8");
        assert_eq!(
            printed,
            recorded_output(&doc, args[0]),
            "spire-exp {args:?}"
        );
    }
    for exp in TABLE {
        // "T2: long-running ..." prints "== T2: wide-area long run ... ==".
        let id = exp
            .doc
            .split(':')
            .next()
            .expect("doc line starts with an id");
        let block = recorded_output(&doc, exp.name);
        let first = block.lines().find(|l| !l.is_empty()).unwrap_or("");
        assert!(
            first.starts_with(&format!("== {id}")) && first.ends_with(" =="),
            "the block under `spire-exp {}` opens with {first:?}, not the {id} title",
            exp.name
        );
    }
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
