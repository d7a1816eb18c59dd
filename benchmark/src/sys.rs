//! What the operating system knows about this process and host.

/// CPU time (user + system) this process has consumed, in milliseconds,
/// threads that already exited included. `/proc/self/stat` counts in
/// USER_HZ ticks, which Linux fixes at 100 per second for user space.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11) // fields 3..=13 precede utime (14) and stime (15)
        .take(2)
        .map(|f| f.parse::<u64>().expect("utime/stime are integers"))
        .sum();
    ticks as f64 * 10.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// rt worker threads every rt run uses: one per core, at most four (the
/// paper's replicas are quad-core machines; more workers than cores only
/// adds context switches).
pub fn rt_workers() -> usize {
    nproc().min(4)
}

/// First line of a command's standard output, or `"unknown"`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
