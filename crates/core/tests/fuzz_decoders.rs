//! Decoder-totality corpus fuzz: every wire decoder in the stack must be
//! total — malformed, truncated, extended or bit-flipped frames return
//! `Err`/`None`, never panic. The chaos wire-fault injector and a real
//! network attacker both deliver exactly these inputs.
//!
//! The corpus (shared via `common::full_corpus`, committed as bytes under
//! `tests/corpus/` — see `corpus_replay.rs`) is a set of frames from every
//! protocol layer (Prime messages and envelopes, Spines overlay messages,
//! SCADA ops, Modbus device frames, cross-shard payloads, KV ops); each is
//! run through a seeded stream of random mutations and fed to every
//! decoder. Seeded, so a failure reproduces.

mod common;

use bytes::Bytes;
use common::full_corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spire_prime::{decode_enclosed, KvOp, KvReply, PrimeMsg, ReplyCert};
use spire_scada::{ModbusFrame, ScadaOp};
use spire_shard::ShardMsg;
use spire_spines::OverlayMsg;

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
}

fn whole_corpus() -> impl Iterator<Item = Bytes> {
    full_corpus().into_iter().flat_map(|(_, frames)| frames)
}

#[test]
fn decoders_are_total_under_mutation() {
    let corpus: Vec<Bytes> = whole_corpus().collect();
    // Fixed seed: a failing mutation reproduces. 400 mutations per corpus
    // frame, each fed to every decoder.
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for frame in &corpus {
        decode_everything(frame);
        for _ in 0..400 {
            let mangled = mutate(&mut rng, frame);
            decode_everything(&mangled);
        }
    }
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
