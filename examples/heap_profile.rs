//! Live heap by call site, from a sampling allocator: what the process
//! still holds after a run at the benchmark's `sim_pipeline` rate (ten
//! RTUs reporting every 50 ms, a command every 500 ms, a poll every 2 s,
//! mock signatures, the invariant checker every second) on
//! `DeploymentConfig::wide_area(seed)`.
//!
//! Every allocation of 512 KiB or more is sampled at its size; of the
//! smaller ones, one is sampled per 512 KiB allocated, weighted 512 KiB. A
//! sample stays live until its block is freed. At the end the live samples
//! are grouped by the first two frames in the workspace's crates, so a row
//! estimates the bytes a call site holds, to within a few samples.
//!
//! Run with:
//! `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo run --release --example heap_profile -- [--secs N] [--seed S] [--top K]`
//! (defaults 30 virtual seconds, seed 2018, 25 rows). Without line tables
//! the rows name functions but no lines.

use spire::deployment::{Deployment, DeploymentConfig};
use spire_scada::WorkloadConfig;
use spire_sim::{Span, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// The sampling period, in bytes allocated.
const PERIOD: usize = 512 * 1024;

struct Sampler;

#[global_allocator]
static SAMPLER: Sampler = Sampler;

thread_local! {
    /// Set while this thread records or drops a sample: the profiler's own
    /// allocations are neither sampled nor looked up.
    static BUSY: Cell<bool> = const { Cell::new(false) };
    /// Bytes of small allocations left until the next sample.
    static UNTIL: Cell<usize> = const { Cell::new(PERIOD) };
}

/// A sampled block still allocated: its weight and where it came from.
struct Sample {
    bytes: usize,
    trace: Backtrace,
}

/// Live samples by block address. A panic cannot leave the map half
/// updated (an allocation failure aborts), so a poisoned lock is taken as
/// it is.
static LIVE: Mutex<Option<HashMap<usize, Sample>>> = Mutex::new(None);

/// Runs `f` with this thread marked busy, unless it already is.
fn unless_busy(f: impl FnOnce()) {
    let _ = BUSY.try_with(|busy| {
        if !busy.replace(true) {
            f();
            busy.set(false);
        }
    });
}

/// The weight a new block of `size` bytes is sampled at, or 0.
fn weight(size: usize) -> usize {
    if size >= PERIOD {
        return size;
    }
    UNTIL
        .try_with(|until| {
            let left = until.get();
            if size < left {
                until.set(left - size);
                0
            } else {
                until.set(left + PERIOD - size);
                PERIOD
            }
        })
        .unwrap_or(0)
}

fn record(ptr: *mut u8, size: usize) {
    let bytes = weight(size);
    if bytes == 0 {
        return;
    }
    unless_busy(|| {
        let trace = Backtrace::force_capture();
        let mut live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        let live = live.get_or_insert_with(HashMap::new);
        live.insert(ptr as usize, Sample { bytes, trace });
    });
}

fn forget(ptr: *mut u8) {
    unless_busy(|| {
        let mut live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(live) = live.as_mut() {
            live.remove(&(ptr as usize));
        }
    });
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returned, so `System`'s guarantees carry over. The
// bookkeeping around each call uses a block's address only as a map key:
// it never reads, writes or frees the block, and its own allocations go to
// this allocator with the thread marked busy, so they neither recurse into
// the bookkeeping nor take the lock it holds.
unsafe impl GlobalAlloc for Sampler {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record(ptr, layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record(ptr, layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        forget(ptr);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            forget(ptr);
            record(moved, new_size);
        }
        moved
    }
}

/// The first two frames of `trace` in the workspace's crates, innermost
/// first, each as `function (file:line)`. With line tables a frame is the
/// workspace's when its file is under `crates/`; without, when its symbol
/// starts with a workspace crate's name.
fn call_site(trace: &Backtrace) -> String {
    let text = trace.to_string();
    let mut lines = text.lines().map(str::trim).peekable();
    let mut frames = Vec::new();
    while let Some(line) = lines.next() {
        let Some((_, function)) = line.split_once(": ") else {
            continue;
        };
        let at = lines
            .peek()
            .and_then(|next| next.strip_prefix("at "))
            .map(|at| at.rsplit_once(':').map_or(at, |(file_line, _)| file_line));
        let ours = match at {
            Some(at) => at.contains("crates/"),
            None => function.trim_start_matches('<').starts_with("spire"),
        };
        if !ours {
            continue;
        }
        // Generic arguments make a row unreadable and say little here.
        let name = match function.find('<') {
            Some(0) | None => function,
            Some(cut) => &function[..cut],
        };
        frames.push(match at {
            Some(at) => format!("{name} ({})", &at[at.find("crates/").unwrap_or(0)..]),
            None => name.to_string(),
        });
        if frames.len() == 2 {
            break;
        }
    }
    if frames.is_empty() {
        "(outside the workspace's crates)".to_string()
    } else {
        frames.join("\n      <- ")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB, where the
/// kernel reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let (mut secs, mut seed, mut top) = (30u64, 2018u64, 25usize);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || -> u64 {
            let v = args.next().and_then(|v| v.parse().ok());
            v.unwrap_or_else(|| {
                eprintln!("{flag} takes a whole number");
                std::process::exit(2)
            })
        };
        match flag.as_str() {
            "--secs" => secs = value(),
            "--seed" => seed = value(),
            "--top" => top = value() as usize,
            _ => {
                eprintln!("usage: heap_profile [--secs N] [--seed S] [--top K]");
                std::process::exit(2)
            }
        }
    }

    let mut cfg = DeploymentConfig::wide_area(seed);
    cfg.trace = false;
    cfg.workload = WorkloadConfig {
        rtus: 10,
        update_interval: Span::millis(50),
        hmis: 1,
        command_interval: Span::millis(500),
        poll_interval: Span::secs(2),
        ..WorkloadConfig::default()
    };
    let mut system = Deployment::build(cfg);
    // The benchmark's invariant checker, at its one-second period.
    system.install_invariant_checker(Span::secs(1), Time(secs * 1_000_000));
    system.run_for(Span::secs(secs));
    let report = system.report();
    // Read before symbolizing, which maps the debug info.
    let peak = peak_rss_mb();

    // From here on nothing is sampled: the table's own allocations stay
    // out of it.
    let _ = BUSY.try_with(|busy| busy.set(true));
    let samples = LIVE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default();
    let mut by_site: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for sample in samples.values() {
        let row = by_site.entry(call_site(&sample.trace)).or_default();
        row.0 += sample.bytes;
        row.1 += 1;
    }
    let mut rows: Vec<(String, (usize, usize))> = by_site.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
    let total: usize = rows.iter().map(|(_, (bytes, _))| bytes).sum();

    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    println!(
        "seed {seed}, {secs} virtual s at 200 updates/s: {} updates confirmed",
        report.updates_confirmed
    );
    if let Some(peak) = peak {
        println!("peak RSS {peak:.2} MiB");
    }
    println!(
        "live heap sampled every {} KiB: {:.2} MiB in {} samples\n",
        PERIOD / 1024,
        mib(total),
        samples.len()
    );
    println!("{:>9} {:>7}  call site (<- its caller)", "MiB", "samples");
    for (site, (bytes, count)) in rows.iter().take(top) {
        println!("{:>9.2} {count:>7}  {site}", mib(*bytes));
    }
    if rows.len() > top {
        let rest: usize = rows[top..].iter().map(|(_, (bytes, _))| bytes).sum();
        println!(
            "{:>9.2} {:>7}  ({} more sites)",
            mib(rest),
            "",
            rows.len() - top
        );
    }
}
