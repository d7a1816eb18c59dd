//! Committed-corpus regression: the wire-frame corpus lives as checked-in
//! byte files under `tests/corpus/`, pinned against the in-tree builders
//! (any encoder change shows up as drift here, never silently), and every
//! entry is replayed through a live injector -> sink process pair on both
//! substrates — the discrete-event simulator and the real-clock runtime —
//! with identical decode accounting required on each.
//!
//! To regenerate after a *deliberate* wire-format change:
//! `cargo test -p spire --test corpus_replay regenerate_corpus -- --ignored`

mod common;

use bytes::Bytes;
use spire_prime::msg::{decode_frame, decode_group_sealed, decode_multi, decode_sealed};
use spire_prime::{KvOp, ReplyCert};
use spire_rt::{RtConfig, RtHooks, Runtime};
use spire_scada::{ModbusFrame, RtuReadout, ScadaNotify, ScadaOp};
use spire_shard::msg::parse_reply;
use spire_shard::ShardMsg;
use spire_sim::{Context, LinkConfig, Process, ProcessId, Span, Wire, World};
use spire_spines::OverlayMsg;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn file_name(category: &str, idx: usize) -> String {
    format!("{category}_{idx:02}.bin")
}

/// Reads every committed corpus file in builder order. Panics with a
/// regeneration hint if one is missing.
fn committed_corpus() -> Vec<Bytes> {
    let dir = corpus_dir();
    let mut frames = Vec::new();
    for (category, built) in common::full_corpus() {
        for idx in 0..built.len() {
            let path = dir.join(file_name(category, idx));
            let bytes = std::fs::read(&path).unwrap_or_else(|e| {
                panic!(
                    "missing corpus file {} ({e}); run the ignored \
                     regenerate_corpus test to (re)create it",
                    path.display()
                )
            });
            frames.push(Bytes::from(bytes));
        }
    }
    frames
}

/// Writes the builder corpus to `tests/corpus/`. Ignored by default:
/// regeneration must be a deliberate act after a wire-format change.
#[test]
#[ignore = "regenerates the committed corpus; run only after a deliberate wire change"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (category, built) in common::full_corpus() {
        for (idx, frame) in built.iter().enumerate() {
            std::fs::write(dir.join(file_name(category, idx)), frame).expect("write corpus file");
        }
    }
}

#[test]
fn committed_corpus_matches_builders() {
    let dir = corpus_dir();
    let mut expected_names = Vec::new();
    for (category, built) in common::full_corpus() {
        assert!(!built.is_empty(), "{category} corpus is empty");
        for (idx, frame) in built.iter().enumerate() {
            let name = file_name(category, idx);
            let path = dir.join(&name);
            let committed = std::fs::read(&path).unwrap_or_else(|e| {
                panic!(
                    "missing corpus file {} ({e}); run the ignored \
                     regenerate_corpus test to (re)create it",
                    path.display()
                )
            });
            assert_eq!(
                committed.as_slice(),
                frame.as_ref(),
                "corpus drift in {name}: the committed bytes no longer match \
                 the builder — if the wire change was deliberate, regenerate"
            );
            expected_names.push(name);
        }
    }
    // No orphans: every committed file is owned by a builder entry.
    for entry in std::fs::read_dir(&dir).expect("corpus dir readable") {
        let name = entry.expect("dir entry").file_name().into_string().unwrap();
        assert!(
            expected_names.contains(&name),
            "orphan corpus file {name}: no builder produces it"
        );
    }
}

/// Per-frame decode accounting, identical on the host and inside the
/// substrate sink: each decoder is tried independently.
fn classify(bytes: &[u8]) -> [(&'static str, bool); 9] {
    let prime_ok = matches!(decode_sealed(bytes), Ok(Some(_)))
        || matches!(decode_group_sealed(bytes), Ok(Some(_)))
        || matches!(decode_multi(&Bytes::copy_from_slice(bytes)), Ok(Some(_)))
        || decode_frame(bytes).is_ok();
    let shard_ok = ShardMsg::decode(bytes).is_ok()
        || parse_reply(bytes).is_some()
        || ReplyCert::decode(bytes).is_ok();
    [
        ("corpus.prime_ok", prime_ok),
        ("corpus.overlay_ok", OverlayMsg::decode(bytes).is_ok()),
        ("corpus.scada_ok", ScadaOp::decode(bytes).is_ok()),
        ("corpus.modbus_ok", ModbusFrame::decode(bytes).is_ok()),
        ("corpus.shard_ok", shard_ok),
        ("corpus.kv_ok", KvOp::decode(bytes).is_ok()),
        ("corpus.notify_ok", ScadaNotify::decode_all(bytes).is_ok()),
        ("corpus.readout_ok", RtuReadout::decode_all(bytes).is_ok()),
        (
            "corpus.snapshot_ok",
            common::fresh_apps()
                .iter_mut()
                .any(|app| app.restore(bytes).is_ok()),
        ),
    ]
}

/// Every committed frame decodes under its own category's decoder, and the
/// frames over a count cap or of a retired tag decode under none.
#[test]
fn committed_corpus_is_accepted_by_category_and_overcap_rejected() {
    let dir = corpus_dir();
    for (category, built) in common::full_corpus() {
        for idx in 0..built.len() {
            let name = file_name(category, idx);
            let bytes = std::fs::read(dir.join(&name)).expect("corpus file readable");
            let accepted = classify(&bytes);
            if category == "overcap" || category == "retired" {
                assert!(
                    accepted.iter().all(|(_, ok)| !ok),
                    "{name} is over a count cap or of a retired tag \
                     and must stay rejected: {accepted:?}"
                );
            } else {
                let counter = format!("corpus.{category}_ok");
                assert!(
                    accepted.iter().any(|(c, ok)| *c == counter && *ok),
                    "{name} is rejected by its own decoder"
                );
            }
        }
    }
}

/// Sends every corpus frame to the sink, one per millisecond (the stagger
/// exercises real timer scheduling on the rt substrate).
struct Injector {
    sink: ProcessId,
    frames: Vec<Bytes>,
    next: usize,
}

impl Process for Injector {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(Span::millis(1), 1);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if let Some(frame) = self.frames.get(self.next) {
            ctx.send(self.sink, frame.clone());
            ctx.count("corpus.sent", 1);
            self.next += 1;
            ctx.set_timer(Span::millis(1), 1);
        }
    }
}

/// Runs every received frame through every decoder and counts accepts.
struct Sink;

impl Process for Sink {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
        ctx.count("corpus.received", 1);
        for (counter, ok) in classify(bytes) {
            if ok {
                ctx.count(counter, 1);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}
}

fn corpus_world(frames: Vec<Bytes>, seed: u64) -> World {
    let mut world = World::new(seed);
    let sink = world.add_process("sink", Box::new(Sink));
    let injector = world.add_process(
        "injector",
        Box::new(Injector {
            sink,
            frames,
            next: 0,
        }),
    );
    // A loss-free local link: replay must be about decoding, not luck.
    world.add_link(injector, sink, LinkConfig::local());
    world
}

/// The expected counter values for a full replay of `frames`.
fn expectations(frames: &[Bytes]) -> Vec<(&'static str, u64)> {
    let mut expected = vec![("corpus.received", frames.len() as u64)];
    for frame in frames {
        for (counter, ok) in classify(frame) {
            match expected.iter_mut().find(|(c, _)| *c == counter) {
                Some((_, n)) => *n += ok as u64,
                None => expected.push((counter, ok as u64)),
            }
        }
    }
    expected
}

#[test]
fn corpus_replays_identically_on_both_substrates() {
    let frames = committed_corpus();
    // Every layer's decoder must accept at least one committed frame —
    // otherwise the replay proves nothing about that layer.
    let expected = expectations(&frames);
    for (counter, count) in &expected {
        assert!(*count > 0, "no corpus frame decodes under {counter}");
    }
    let horizon = Span::millis(200 + frames.len() as u64 * 2);

    // Simulator substrate.
    let mut world = corpus_world(frames.clone(), 11);
    world.run_for(horizon);
    for (counter, count) in &expected {
        assert_eq!(
            world.metrics().counter(counter),
            *count,
            "sim substrate: {counter} mismatch"
        );
    }

    // Real-clock runtime substrate, same fabric shape.
    let world = corpus_world(frames, 11);
    let rt = Runtime::from_fabric_with(
        world.into_fabric(),
        RtConfig::with_threads(2),
        RtHooks::default(),
    );
    let run = rt.run_for(horizon);
    for (counter, count) in &expected {
        assert_eq!(
            run.metrics.counter(counter),
            *count,
            "rt substrate: {counter} mismatch"
        );
    }
}
