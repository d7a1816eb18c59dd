//! Decoder-totality corpus fuzz: every wire decoder in the stack must be
//! total — malformed, truncated, extended or bit-flipped frames return
//! `Err`/`None`, never panic. The chaos wire-fault injector and a real
//! network attacker both deliver exactly these inputs.
//!
//! The corpus (shared via `common::full_corpus`, committed as bytes under
//! `tests/corpus/` — see `corpus_replay.rs`) is a set of frames from every
//! protocol layer (Prime messages and envelopes, Spines overlay messages,
//! SCADA ops, notifications and read-outs, Modbus device frames,
//! cross-shard payloads, KV ops, application snapshots); each is run
//! through a seeded stream of random mutations and fed to every decoder
//! and every application's `restore` — and to the one handler every
//! client shares, a
//! [`ClientSession`], bare and as an overlay delivery: it must not panic
//! and must accept nothing. Seeded, so a failure reproduces.

mod common;

use bytes::Bytes;
use common::full_corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spire_crypto::keys::{KeyMaterial, Signer};
use spire_crypto::{KeyStore, NodeId};
use spire_prime::{
    decode_enclosed, ClientId, ClientRouting, ClientSession, KvOp, KvReply, PrimeConfig, PrimeMsg,
    ReplyCert,
};
use spire_scada::{ModbusFrame, RtuReadout, ScadaNotify, ScadaOp};
use spire_shard::ShardMsg;
use spire_sim::{Context, LinkConfig, Process, ProcessId, Span, Wire, World};
use spire_spines::{Dissemination, OverlayAddr, OverlayId, OverlayMsg, SpinesPort};
use std::sync::Arc;

/// One random mutation of `frame`: bit flip, truncation, extension,
/// random splice, or full replacement.
fn mutate(rng: &mut StdRng, frame: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    match rng.gen_range(0u32..5) {
        // Flip 1-8 random bits.
        0 => {
            for _ in 0..rng.gen_range(1..=8) {
                if out.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1u8 << rng.gen_range(0..8);
            }
        }
        // Truncate to a random prefix.
        1 => out.truncate(rng.gen_range(0..=out.len())),
        // Extend with random tail bytes.
        2 => {
            for _ in 0..rng.gen_range(1..64) {
                out.push(rng.gen());
            }
        }
        // Splice random bytes over a random window.
        3 => {
            if !out.is_empty() {
                let start = rng.gen_range(0..out.len());
                let end = rng.gen_range(start..=out.len().min(start + 16));
                for b in &mut out[start..end] {
                    *b = rng.gen();
                }
            }
        }
        // Fully random frame (arbitrary length, arbitrary content).
        _ => {
            out.clear();
            for _ in 0..rng.gen_range(0..256) {
                out.push(rng.gen());
            }
        }
    }
    out
}

/// Feed a (possibly mangled) frame to every decoder in the stack. Each
/// must return without panicking; the results are irrelevant.
fn decode_everything(bytes: &[u8]) {
    let _ = PrimeMsg::decode(bytes);
    let _ = decode_enclosed(bytes);
    let _ = OverlayMsg::decode(bytes);
    let _ = ScadaOp::decode(bytes);
    let _ = ScadaNotify::decode_all(bytes);
    let _ = RtuReadout::decode_all(bytes);
    let _ = ModbusFrame::decode(bytes);
    let _ = ShardMsg::decode(bytes);
    let _ = spire_shard::msg::parse_reply(bytes);
    let _ = ReplyCert::decode(bytes);
    let _ = KvOp::decode(bytes);
    let _ = KvReply::decode(bytes);
    let shared = Bytes::copy_from_slice(bytes);
    let _ = spire_prime::msg::decode_multi(&shared);
    let _ = spire_prime::msg::decode_sealed(bytes);
    let _ = spire_prime::msg::decode_group_sealed(bytes);
    let _ = spire_spines::SpinesPort::decode_deliver(&shared);
    // A commit certificate's frames are decoded again by its handler.
    if let Ok(PrimeMsg::CommitCert { frames, .. }) = PrimeMsg::decode(bytes) {
        for frame in &frames {
            let _ = spire_prime::msg::decode_frame(frame);
        }
    }
    for mut app in common::fresh_apps() {
        let _ = app.restore(bytes);
    }
}

fn whole_corpus() -> impl Iterator<Item = Bytes> {
    full_corpus().into_iter().flat_map(|(_, frames)| frames)
}

/// Every corpus frame and 400 seeded mutations of each (fixed seed: a
/// failing mutation reproduces).
fn mutated_corpus() -> impl Iterator<Item = Bytes> {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    whole_corpus().flat_map(move |frame| {
        let mangled: Vec<Bytes> = (0..400)
            .map(|_| Bytes::from(mutate(&mut rng, &frame)))
            .collect();
        std::iter::once(frame).chain(mangled)
    })
}

#[test]
fn decoders_are_total_under_mutation() {
    for frame in mutated_corpus() {
        decode_everything(&frame);
    }
}

/// Client 7 — the client the corpus's `Reply` and `Notify` name — with an
/// operation outstanding under the `cseq` that `Reply` carries, fed every
/// frame twice: as it is over direct links, and wrapped in a delivery from
/// its daemon over an overlay port.
struct FuzzedClient {
    direct: ClientSession,
    overlay: ClientSession,
    daemon: ProcessId,
    frames: Vec<Bytes>,
}

impl Process for FuzzedClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..3 {
            self.direct.submit(ctx, Bytes::from_static(b"op"));
            self.overlay.submit(ctx, Bytes::from_static(b"op"));
        }
        for frame in std::mem::take(&mut self.frames) {
            let wrapped = OverlayMsg::ClientDeliver {
                src: OverlayId(0),
                src_port: 100,
                payload: frame.clone(),
            };
            let accepted = [
                self.direct.on_message(ctx, self.daemon, &frame),
                self.overlay.on_message(ctx, self.daemon, &wrapped.encode()),
            ];
            assert_eq!(accepted, [None, None], "accepted {frame:?}");
            ctx.count("fuzz.fed", 1);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}
}

/// No byte sequence from the network can panic the handler or make it
/// accept anything: the corpus signatures are filler, and nothing a
/// mutation produces verifies under a replica's key.
#[test]
fn the_client_session_is_total_and_accepts_nothing_under_mutation() {
    let cfg = PrimeConfig::new(1, 1);
    let material = KeyMaterial::new([0x55u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 3000));
    let daemon = ProcessId(0);
    let session = |routing| {
        let key = material.signing_key(NodeId(cfg.client_key_base + 7));
        let signer = Signer::new(key, false);
        ClientSession::new(&cfg, ClientId(7), signer, routing, Arc::clone(&keystore))
    };
    let addr = OverlayAddr {
        node: OverlayId(1),
        port: 40,
    };
    let frames: Vec<Bytes> = mutated_corpus().collect();
    let fed = frames.len() as u64;
    let client = FuzzedClient {
        direct: session(ClientRouting::Direct(vec![daemon])),
        overlay: session(ClientRouting::Spines {
            port: SpinesPort::new(daemon, addr),
            addrs: Vec::new(),
            mode: Dissemination::Flood,
        }),
        daemon,
        frames,
    };
    let mut world = World::new(1);
    struct Deaf;
    impl Process for Deaf {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}
    }
    assert_eq!(world.add_process("daemon", Box::new(Deaf)), daemon);
    let client = world.add_process("client", Box::new(client));
    world.add_link(daemon, client, LinkConfig::local());
    world.run_for(Span::millis(1));
    let m = world.metrics();
    assert_eq!(m.counter("fuzz.fed"), fed);
    // Both sessions saw the corpus's own `Reply` and `Notify` to client 7,
    // plain and inside envelopes, and rejected their filler signatures.
    assert!(m.counter("client.bad_reply_auth") >= 4);
    assert_eq!(m.counter("client.quorums"), 0);
}

#[test]
fn truncated_prefixes_never_panic() {
    // Exhaustive prefix truncation of every corpus frame — the most common
    // real-world corruption (partial read) gets full coverage.
    for frame in whole_corpus() {
        for len in 0..frame.len() {
            decode_everything(&frame[..len]);
        }
    }
}
