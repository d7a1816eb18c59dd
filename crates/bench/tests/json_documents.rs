//! Every JSON document the workspace emits goes through `spire_sim::json`,
//! so a hostile label — a quote, a newline, a control character — comes
//! back verbatim from `json::parse` whichever emitter carried it.

use bytes::Bytes;
use spire::deployment::{Deployment, DeploymentConfig, Substrate};
use spire::report::Provenance;
use spire_bench::experiments::{endurance_summary, rt_row, shard_row, Args, SoakMemory, TABLE};
use spire_explore::{Artifact, Choice};
use spire_scada::WorkloadConfig;
use spire_sim::json::{parse, Json};
use spire_sim::{Context, Process, ProcessId, Span};

const HOSTILE: &str = "a\"b\n\u{1}";

/// Fires a timer every 100 ms, so the flight recorder always holds events
/// attributed to this process.
struct Ticker;

impl Process for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Span::millis(100), 1);
    }
    fn on_message(&mut self, _: &mut Context<'_>, _: ProcessId, _: &Bytes) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        ctx.set_timer(Span::millis(100), tag);
    }
}

/// A traced two-RTU deployment with the hostile-named ticker in it.
fn hostile_system() -> Deployment {
    let mut cfg = DeploymentConfig::wide_area(7);
    cfg.trace = true;
    cfg.workload = WorkloadConfig {
        rtus: 2,
        update_interval: Span::millis(500),
        ..Default::default()
    };
    let mut system = Deployment::build(cfg);
    system.world.add_process(HOSTILE, Box::new(Ticker));
    system
}

#[test]
fn hostile_labels_read_back_verbatim_from_every_emitter() {
    let mut system = hostile_system();
    system.run_for(Span::secs(2));
    let report = system.report();
    assert!(report.updates_confirmed > 0, "the deployment ran");

    // Report, with hostile provenance.
    let prov = Provenance::of(HOSTILE, 1, HOSTILE);
    let doc = parse(&report.to_json_with(&prov)).expect("report is JSON");
    assert_eq!(doc.get("substrate").and_then(Json::as_str), Some(HOSTILE));
    assert_eq!(doc.get("git_rev").and_then(Json::as_str), Some(HOSTILE));
    assert_eq!(
        doc.get("updates_confirmed").and_then(Json::as_u64),
        Some(report.updates_confirmed)
    );

    // The trace exports of a run on each substrate.
    let rt = hostile_system().run(Substrate::Rt { threads: 2 }, Span::secs(2), None);
    for (substrate, trace) in [("sim", system.world.tracer()), ("rt", &rt.run.trace)] {
        // JSONL flight-recorder export: every line parses, some name the
        // process.
        let jsonl = trace.events_jsonl();
        let mut named = 0;
        for line in jsonl.lines() {
            let event = parse(line).unwrap_or_else(|e| panic!("{substrate}: {e}: {line}"));
            if event.get("proc").and_then(Json::as_str) == Some(HOSTILE) {
                named += 1;
            }
        }
        assert!(named > 0, "{substrate}: no JSONL event names the process");

        // Chrome trace: one array; the process's lane is named verbatim.
        let chrome = parse(&trace.chrome_trace()).expect("chrome trace is JSON");
        let lanes = chrome.as_arr().expect("an array of trace events");
        assert!(
            lanes.iter().any(|ev| {
                ev.get("name").and_then(Json::as_str) == Some("thread_name")
                    && ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        == Some(HOSTILE)
            }),
            "{substrate}: no lane carries the process name"
        );
    }

    // Explorer replay artifact.
    let artifact = Artifact {
        scenario: HOSTILE.to_string(),
        f: 1,
        k: 0,
        ops: 1,
        seed: u64::MAX,
        seeded_bug: false,
        violations: vec![HOSTILE.to_string()],
        events: vec![Choice::Inject { op: 0 }],
    };
    let text = artifact.to_json_string();
    assert_eq!(
        parse(&text).expect("artifact is JSON").get("scenario"),
        Some(&Json::from(HOSTILE))
    );
    assert_eq!(Artifact::from_json_str(&text).expect("parses"), artifact);

    // One row of each experiment summary.
    let memory = SoakMemory {
        po_retained: (f64::NAN, f64::NAN),
        rss_mb: vec![f64::NAN, 12.5],
        peak_rss_mb: f64::NAN,
    };
    for row in [
        rt_row(HOSTILE, 500, 4.0, &report, 0.25, 1),
        shard_row(HOSTILE, 1, 0.1, false, 2, &report),
        endurance_summary(HOSTILE, &report, 2, 0, &memory, 1.0, false),
    ] {
        let doc = parse(&row.to_string()).expect("row is JSON");
        assert_eq!(doc.get("substrate").and_then(Json::as_str), Some(HOSTILE));
    }
}

/// The summaries of the rows cheap enough to run here parse back, carry
/// the head and hold one object per table row.
#[test]
fn experiment_summaries_parse_back_with_their_rows() {
    let msgs = Args {
        msgs: Some(20),
        ..Args::default()
    };
    for (name, args, rows) in [
        ("t1", Args::default(), 9),
        ("planner", Args::default(), 4),
        ("f6", msgs.clone(), 5),
        ("a1", msgs, 2),
    ] {
        let exp = TABLE.iter().find(|exp| exp.name == name).expect("in TABLE");
        let outcome = (exp.run)(&args);
        assert!(outcome.ok, "{name}");
        let doc = parse(&outcome.summary.to_string()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(name));
        assert!(doc.get("git_rev").and_then(Json::as_str).is_some());
        let held = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(held.len(), rows, "{name}");
        assert!(held.iter().all(|row| matches!(row, Json::Obj(_))));
    }
}
