//! The experiment driver: `spire-exp <name> [args]` runs one row of
//! [`spire_bench::experiments::TABLE`], `spire-exp all [--scale N]` runs
//! every row at reduced scale, `spire-exp --list` prints the table.
//!
//! Arguments are `--flag VALUE` or `--flag=VALUE` — `--secs`, `--msgs`,
//! `--substrate`, `--json`, `--scale` (see [`Args`]) — plus the bare
//! `--trace`, and bare numbers where a doc line shows them. Every
//! experiment takes `--scale`, `--json` and `--trace`; beyond those it
//! takes what its doc line names, and `spire-exp` refuses the rest.
//!
//! Exit code: 0 on success, 1 when an experiment's own pass criteria fail
//! or its summary cannot be written, 2 on a usage error.

use spire::deployment::Substrate;
use spire_bench::experiments::{Args, Experiment, Outcome, TABLE};

fn usage_error(msg: &str) -> ! {
    eprintln!("spire-exp: {msg}");
    eprintln!("usage: spire-exp <name>|all [args]; spire-exp --list names every experiment");
    std::process::exit(2);
}

fn list() {
    for exp in TABLE {
        println!("{:<14} {}", exp.name, exp.doc);
    }
    println!(
        "{:<14} every experiment above at reduced scale [--scale 1]",
        "all"
    );
    println!("\n--scale N runs any experiment's reduced-scale variant, durations times N");
    println!("--json PATH writes any experiment's summary (its rows) to PATH");
    println!("--trace records every deployment run, writing spire-trace-<tag>.json[l] in cwd");
}

/// Parses everything after the experiment name, refusing a flag that
/// `usage` does not name.
fn parse(usage: &str, mut rest: impl Iterator<Item = String>) -> Args {
    let mut args = Args::default();
    // Bare numbers are taken where the usage has a group like `[SEED ...]`.
    let takes_numbers = usage
        .split('[')
        .skip(1)
        .any(|group| group.starts_with(char::is_uppercase));
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if !takes_numbers {
                usage_error(&format!("unexpected argument {arg:?} (takes: {usage})"));
            }
            match arg.parse() {
                Ok(n) => args.positional.push(n),
                Err(_) => usage_error(&format!("bad number {arg:?}")),
            }
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        if !usage.contains(flag.as_str()) {
            usage_error(&format!("{flag} does not apply here (takes: {usage})"));
        }
        if flag == "--trace" {
            if inline.is_some() {
                usage_error("--trace takes no value");
            }
            args.trace = true;
            continue;
        }
        let Some(value) = inline.or_else(|| rest.next()) else {
            usage_error(&format!("{flag} needs a value"));
        };
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("bad {flag} value {value:?}")))
        };
        match flag.as_str() {
            "--secs" => args.secs = Some(number()),
            "--msgs" => {
                let msgs = u32::try_from(number()).ok().filter(|n| *n <= 1_000_000);
                args.msgs = Some(msgs.unwrap_or_else(|| usage_error("--msgs is at most 1000000")))
            }
            "--scale" => args.scale = Some(number()),
            "--json" => args.json = Some(value),
            "--substrate" => {
                args.substrate = Substrate::parse(&value).unwrap_or_else(|| {
                    usage_error(&format!(
                        "bad --substrate {value:?}: expected sim, rt or rt:N"
                    ))
                })
            }
            _ => usage_error(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// Runs one experiment; true when it passed and its summary (if asked
/// for) was written.
fn run(exp: &Experiment, args: &Args) -> bool {
    let Outcome { mut ok, summary } = (exp.run)(args);
    // A measurement ends with where it was taken; a calculator has no host.
    if let Some(cores) = summary.get("cores") {
        println!(
            "\n{}: git_rev {}, {cores} core(s)",
            exp.name,
            spire_bench::git_rev()
        );
    }
    if let Some(path) = &args.json {
        match std::fs::write(path, format!("{summary}\n")) {
            Ok(()) => println!("{} summary -> {path}", exp.name),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        usage_error("no experiment named");
    };
    let ok = match name.as_str() {
        "--list" => {
            list();
            true
        }
        "all" => {
            let mut args = parse("[--scale 1] [--trace]", argv);
            let scale = *args.scale.get_or_insert(1);
            println!("Spire evaluation experiments (scale factor {scale}); see EXPERIMENTS.md");
            // Every row runs even after a failure, so one run shows them all.
            let mut ok = true;
            for exp in TABLE {
                ok &= run(exp, &args);
            }
            ok
        }
        name => match TABLE.iter().find(|exp| exp.name == name) {
            // These apply to every experiment, so no doc line repeats them.
            Some(exp) => {
                let usage = format!("{} [--scale N] [--json PATH] [--trace]", exp.doc);
                run(exp, &parse(&usage, argv))
            }
            None => usage_error(&format!("no experiment named {name:?}")),
        },
    };
    if !ok {
        std::process::exit(1);
    }
}
