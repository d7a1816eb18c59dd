//! Shared helpers for the Spire experiment harness.
//!
//! Every table/figure of the paper's evaluation is one row of
//! [`experiments::TABLE`], run by the `spire-exp` binary (`spire-exp
//! --list`; DESIGN.md has the index).

pub mod experiments;

use spire_sim::json::Json;

/// Git revision the harness was built from (stamped by `build.rs`;
/// `"unknown"` outside a checkout).
pub fn git_rev() -> &'static str {
    env!("SPIRE_GIT_REV")
}

/// A size line of `/proc/self/status` (`"VmRSS"`, `"VmHWM"`) in MiB,
/// rounded to 0.1; NaN where the file or the line is missing (not Linux).
pub(crate) fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<f64>()
            .ok()
    });
    kib.map_or(f64::NAN, |kib| (kib / 102.4).round() / 10.0)
}

/// Prints a table header followed by a separator line.
fn header(title: &str, columns: &str) {
    println!("\n== {title} ==");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().max(20)));
}

/// The value at `path` in `row` (dots descend into nested objects).
fn lookup<'a>(row: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(row, |v, key| v.get(key))
}

/// One table cell: the value at `path` as text — floats to at most three
/// decimals, `-` for null, NaN or a missing key.
fn cell(row: &Json, path: &str) -> String {
    match lookup(row, path) {
        Some(Json::Float(v)) if v.is_finite() => {
            let text = format!("{v:.3}");
            text.trim_end_matches('0').trim_end_matches('.').to_string()
        }
        Some(Json::Str(s)) => s.clone(),
        None | Some(Json::Null | Json::Float(_)) => "-".to_string(),
        Some(other) => other.to_string(),
    }
}

/// Prints `rows` as an aligned table with one column per word of
/// `columns`, each a key (or dotted path) into the row objects — the same
/// objects an experiment's `--json` summary carries, so the table and the
/// JSON cannot list different columns.
pub fn print_rows(title: &str, columns: &str, rows: &[Json]) {
    let columns: Vec<&str> = columns.split_whitespace().collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| columns.iter().map(|c| cell(row, c)).collect())
        .collect();
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, name)| {
            cells
                .iter()
                .map(|r| r[i].len())
                .fold(name.len(), usize::max)
        })
        .collect();
    // Text reads from the left, numbers line up on the right.
    let is_text = |column: &&str| {
        let mut values = rows.iter().filter_map(|row| lookup(row, column));
        values.any(|v| matches!(v, Json::Str(_)))
    };
    let text: Vec<bool> = columns.iter().map(is_text).collect();
    let line = |texts: Vec<&str>| {
        let padded: Vec<String> = (texts.iter().zip(&widths).zip(&text))
            .map(|((cell, width), text)| {
                if *text {
                    format!("{cell:<width$}")
                } else {
                    format!("{cell:>width$}")
                }
            })
            .collect();
        format!("  {}", padded.join(" | ").trim_end())
    };
    header(title, &line(columns.clone()));
    for row in &cells {
        println!("{}", line(row.iter().map(String::as_str).collect()));
    }
}

/// Prints a flat object — a summary, or one row — as `key  value` lines
/// under `title` (nested values as compact JSON).
pub fn print_fields(title: &str, summary: &Json) {
    let Json::Obj(fields) = summary else { return };
    header(title, "field                            value");
    for (key, _) in fields {
        println!("{key:<32} {}", cell(summary, key));
    }
}

/// Buckets timestamped samples into fixed windows, returning
/// `(window_start_s, count, mean)` rows.
pub fn bucket_timeline(
    samples: &[(spire_sim::Time, f64)],
    window_s: u64,
    horizon_s: u64,
) -> Vec<(u64, usize, f64)> {
    let mut rows = Vec::new();
    let mut start = 0u64;
    while start < horizon_s {
        let end = start + window_s;
        let window: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| t.0 >= start * 1_000_000 && t.0 < end * 1_000_000)
            .map(|(_, v)| *v)
            .collect();
        let mean = if window.is_empty() {
            0.0
        } else {
            window.iter().sum::<f64>() / window.len() as f64
        };
        rows.push((start, window.len(), mean));
        start = end;
    }
    rows
}

/// Runs `run(item)` for every item, each on its own thread, and collects
/// the results in item order. (Each run builds its own simulation world.)
pub fn parallel_runs<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    run: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || run(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_sim::Time;

    #[test]
    fn bucketing() {
        let samples = vec![
            (Time(500_000), 10.0),
            (Time(1_500_000), 20.0),
            (Time(1_700_000), 40.0),
        ];
        let rows = bucket_timeline(&samples, 1, 3);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (0, 1, 10.0));
        assert_eq!(rows[1].1, 2);
        assert!((rows[1].2 - 30.0).abs() < 1e-9);
        assert_eq!(rows[2].1, 0);
    }

    #[test]
    fn cells_follow_dotted_paths_and_dash_out_what_is_missing() {
        let row = Json::obj([
            ("n", Json::Num(7)),
            ("ratio", Json::Float(0.97123)),
            ("whole", Json::Float(50.0)),
            ("nan", Json::Float(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("xshard", Json::obj([("committed", Json::Num(5))])),
        ]);
        assert_eq!(cell(&row, "n"), "7");
        assert_eq!(cell(&row, "ratio"), "0.971");
        assert_eq!(cell(&row, "whole"), "50");
        assert_eq!(cell(&row, "nan"), "-");
        assert_eq!(cell(&row, "ok"), "true");
        assert_eq!(cell(&row, "xshard.committed"), "5");
        assert_eq!(cell(&row, "xshard.absent"), "-");
    }

    #[test]
    fn parallel_runs_preserve_order() {
        let doubled = parallel_runs(0..8usize, |i| i * 2);
        assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }
}
