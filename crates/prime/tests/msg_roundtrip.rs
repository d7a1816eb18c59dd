//! Seeded roundtrip property tests for the Prime wire format: every
//! [`PrimeMsg`] variant (including deeply-nested NewView/ViewState
//! payloads), batch-attested frames, and link-sealed envelopes must
//! survive `encode -> decode` bit-for-bit.
//!
//! Uses a small hand-rolled generator over a seeded `StdRng` (vendored
//! `rand` only — no new dependencies), so failures reproduce exactly:
//! every case is addressed by `(variant index, sample index)` under the
//! fixed master seed.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spire_crypto::BatchAttestation;
use spire_prime::msg::{
    decode_frame, decode_multi, decode_sealed, encode_batched, encode_multi, seal_frame, AruVector,
    CheckpointMsg, ClientOp, Frame, Matrix, PreparedClaim, PrimeMsg, SummaryRow, ViewStateMsg,
};
use spire_prime::{ClientId, ReplicaId};

const MASTER_SEED: u64 = 0x0005_EED0_FA11;
const SAMPLES_PER_VARIANT: u64 = 40;
const VARIANTS: u64 = 23;

fn sig64(rng: &mut StdRng) -> [u8; 64] {
    let mut sig = [0u8; 64];
    rng.fill(&mut sig[..]);
    sig
}

fn digest32(rng: &mut StdRng) -> [u8; 32] {
    let mut d = [0u8; 32];
    rng.fill(&mut d[..]);
    d
}

fn payload(rng: &mut StdRng, max: usize) -> Bytes {
    let len = rng.gen_range(0..=max);
    let mut buf = vec![0u8; len];
    rng.fill(&mut buf[..]);
    Bytes::from(buf)
}

fn client_op(rng: &mut StdRng) -> ClientOp {
    ClientOp {
        client: ClientId(rng.gen_range(0..64)),
        cseq: rng.gen(),
        payload: payload(rng, 48),
        sig: sig64(rng),
    }
}

fn aru_vector(rng: &mut StdRng) -> AruVector {
    let n = rng.gen_range(0..8);
    AruVector((0..n).map(|_| rng.gen()).collect())
}

fn summary_row(rng: &mut StdRng) -> SummaryRow {
    SummaryRow {
        replica: ReplicaId(rng.gen_range(0..32)),
        sseq: rng.gen(),
        vector: aru_vector(rng),
        sig: sig64(rng),
    }
}

fn matrix(rng: &mut StdRng) -> Matrix {
    let rows = rng.gen_range(0..5);
    Matrix {
        rows: (0..rows).map(|_| summary_row(rng)).collect(),
    }
}

fn checkpoint(rng: &mut StdRng) -> CheckpointMsg {
    CheckpointMsg {
        replica: ReplicaId(rng.gen_range(0..32)),
        seq: rng.gen(),
        digest: digest32(rng),
        sig: sig64(rng),
    }
}

fn view_state(rng: &mut StdRng) -> ViewStateMsg {
    let claims = rng.gen_range(0..4);
    let prepared = (0..claims)
        .map(|_| PreparedClaim {
            view: rng.gen(),
            seq: rng.gen(),
            matrix: matrix(rng),
        })
        .collect();
    ViewStateMsg {
        replica: ReplicaId(rng.gen_range(0..32)),
        view: rng.gen(),
        last_committed: rng.gen(),
        prepared,
        sig: sig64(rng),
    }
}

/// A random instance of variant `variant` (0-based over all 23).
fn gen_msg(rng: &mut StdRng, variant: u64) -> PrimeMsg {
    match variant {
        0 => PrimeMsg::Op(client_op(rng)),
        1 => PrimeMsg::PoRequest {
            origin: ReplicaId(rng.gen_range(0..32)),
            po_seq: rng.gen(),
            ops: {
                let n = rng.gen_range(0..4);
                (0..n).map(|_| client_op(rng)).collect()
            },
            sig: sig64(rng),
        },
        2 => PrimeMsg::PoAck {
            replica: ReplicaId(rng.gen_range(0..32)),
            origin: ReplicaId(rng.gen_range(0..32)),
            po_seq: rng.gen(),
            digest: digest32(rng),
            sig: sig64(rng),
        },
        3 => PrimeMsg::PoSummary(summary_row(rng)),
        4 => PrimeMsg::PrePrepare {
            view: rng.gen(),
            seq: rng.gen(),
            matrix: matrix(rng),
            sig: sig64(rng),
        },
        5 => PrimeMsg::Prepare {
            replica: ReplicaId(rng.gen_range(0..32)),
            view: rng.gen(),
            seq: rng.gen(),
            digest: digest32(rng),
            sig: sig64(rng),
        },
        6 => PrimeMsg::Commit {
            replica: ReplicaId(rng.gen_range(0..32)),
            view: rng.gen(),
            seq: rng.gen(),
            digest: digest32(rng),
            sig: sig64(rng),
        },
        7 => PrimeMsg::Ping {
            replica: ReplicaId(rng.gen_range(0..32)),
            nonce: rng.gen(),
        },
        8 => PrimeMsg::Pong {
            replica: ReplicaId(rng.gen_range(0..32)),
            nonce: rng.gen(),
        },
        9 => PrimeMsg::Suspect {
            replica: ReplicaId(rng.gen_range(0..32)),
            view: rng.gen(),
            sig: sig64(rng),
        },
        10 => PrimeMsg::ViewState(view_state(rng)),
        11 => PrimeMsg::NewView {
            view: rng.gen(),
            states: {
                let n = rng.gen_range(0..4);
                (0..n).map(|_| view_state(rng)).collect()
            },
            sig: sig64(rng),
        },
        12 => PrimeMsg::Checkpoint(checkpoint(rng)),
        13 => PrimeMsg::StateReq {
            replica: ReplicaId(rng.gen_range(0..32)),
            have_seq: rng.gen(),
            commit_aru: rng.gen(),
            nonce: rng.gen(),
            sig: sig64(rng),
        },
        14 => PrimeMsg::CommitCert {
            seq: rng.gen(),
            view: rng.gen(),
            matrix: matrix(rng),
            frames: {
                let n = rng.gen_range(0..5);
                (0..n).map(|_| payload(rng, 96)).collect()
            },
        },
        15 => PrimeMsg::ReconReq {
            replica: ReplicaId(rng.gen_range(0..32)),
            origin: ReplicaId(rng.gen_range(0..32)),
            po_seq: rng.gen(),
        },
        16 => PrimeMsg::Notify {
            replica: ReplicaId(rng.gen_range(0..32)),
            client: ClientId(rng.gen_range(0..64)),
            nseq: rng.gen(),
            payload: payload(rng, 64),
            sig: sig64(rng),
        },
        17 => PrimeMsg::Reply {
            replica: ReplicaId(rng.gen_range(0..32)),
            client: ClientId(rng.gen_range(0..64)),
            cseq: rng.gen(),
            result: payload(rng, 64),
            sig: sig64(rng),
        },
        18 => PrimeMsg::PoAckMulti {
            replica: ReplicaId(rng.gen_range(0..32)),
            entries: {
                let n = rng.gen_range(0..6);
                (0..n)
                    .map(|_| (ReplicaId(rng.gen_range(0..32)), rng.gen(), digest32(rng)))
                    .collect()
            },
            sig: sig64(rng),
        },
        19 => PrimeMsg::CommitMulti {
            replica: ReplicaId(rng.gen_range(0..32)),
            view: rng.gen(),
            entries: {
                let n = rng.gen_range(0..6);
                (0..n).map(|_| (rng.gen(), digest32(rng))).collect()
            },
            sig: sig64(rng),
        },
        20 => PrimeMsg::StateMeta {
            replica: ReplicaId(rng.gen_range(0..32)),
            nonce: rng.gen(),
            commit_aru: rng.gen(),
            checkpoint_seq: rng.gen(),
            total_len: rng.gen(),
            chunk_digests: {
                let n = rng.gen_range(0..5);
                (0..n).map(|_| digest32(rng)).collect()
            },
            proof: {
                let n = rng.gen_range(0..3);
                (0..n).map(|_| checkpoint(rng)).collect()
            },
            requester_po_high: rng.gen(),
            requester_sseq_high: rng.gen(),
            sig: sig64(rng),
        },
        21 => PrimeMsg::StateChunk {
            checkpoint_seq: rng.gen(),
            chunk: rng.gen(),
            data: payload(rng, 96),
        },
        22 => PrimeMsg::StateChunkReq {
            replica: ReplicaId(rng.gen_range(0..32)),
            checkpoint_seq: rng.gen(),
            chunks: {
                let n = rng.gen_range(0..6);
                (0..n).map(|_| rng.gen()).collect()
            },
        },
        _ => unreachable!("variant index out of range"),
    }
}

#[test]
fn every_variant_roundtrips() {
    for variant in 0..VARIANTS {
        for sample in 0..SAMPLES_PER_VARIANT {
            let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ (variant << 32) ^ sample);
            let msg = gen_msg(&mut rng, variant);
            let encoded = msg.encode();
            let decoded = PrimeMsg::decode(&encoded).unwrap_or_else(|e| {
                panic!("variant {variant} sample {sample} failed to decode: {e:?}")
            });
            assert_eq!(
                decoded, msg,
                "variant {variant} sample {sample} did not roundtrip"
            );
        }
    }
}

#[test]
fn batched_frames_roundtrip() {
    for variant in 0..VARIANTS {
        let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ 0x0BA7_C4ED ^ variant);
        let msg = gen_msg(&mut rng, variant);
        let attestation = BatchAttestation {
            leaf_index: rng.gen_range(0..8),
            leaf_count: rng.gen_range(8..16),
            path: (0..rng.gen_range(0..4))
                .map(|_| digest32(&mut rng))
                .collect(),
            root_sig: sig64(&mut rng),
        };
        let signer = ReplicaId(rng.gen_range(0..32));
        let encoded = msg.encode();
        let framed = encode_batched(signer, &attestation, &encoded);
        match decode_frame(&framed).expect("batched frame decodes") {
            Frame::Batched {
                signer: got_signer,
                attestation: got_attestation,
                msg: got_msg,
                msg_digest,
            } => {
                assert_eq!(got_signer, signer);
                assert_eq!(got_attestation, attestation);
                assert_eq!(got_msg, msg);
                assert_eq!(msg_digest, spire_crypto::digest(&encoded));
            }
            Frame::Plain(_) => panic!("variant {variant}: batched frame parsed as plain"),
        }
    }
}

#[test]
fn sealed_frames_roundtrip() {
    for variant in 0..VARIANTS {
        let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ 0x005E_A1ED ^ variant);
        let msg = gen_msg(&mut rng, variant);
        let sender = ReplicaId(rng.gen_range(0..32));
        let key: [u8; 32] = digest32(&mut rng);
        let inner = msg.encode();
        let sealed = seal_frame(sender, &key, &inner);
        let parsed = decode_sealed(&sealed)
            .expect("sealed frame parses")
            .expect("tagged as sealed");
        assert_eq!(parsed.sender, sender);
        assert!(parsed.verify(&key), "variant {variant}: MAC must verify");
        let mut wrong = key;
        wrong[0] ^= 1;
        assert!(
            !parsed.verify(&wrong),
            "variant {variant}: wrong key must fail"
        );
        match decode_frame(parsed.inner).expect("inner frame decodes") {
            Frame::Plain(got) => assert_eq!(got, msg),
            Frame::Batched { .. } => panic!("variant {variant}: inner parsed as batched"),
        }
        // A plain frame is never mistaken for a sealed envelope.
        assert!(decode_sealed(&inner).expect("parses").is_none() || inner[0] == 254);
    }
}

#[test]
fn multi_frame_containers_roundtrip() {
    // Random mixes of variants packed into one container (then sealed,
    // like the replica's link-batched flush) must split back into the
    // identical frames.
    for round in 0..VARIANTS {
        let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ 0x00F1_EE75 ^ round);
        let count = rng.gen_range(1..6);
        let msgs: Vec<PrimeMsg> = (0..count)
            .map(|_| {
                let variant = rng.gen_range(0..VARIANTS);
                gen_msg(&mut rng, variant)
            })
            .collect();
        let encoded: Vec<Bytes> = msgs.iter().map(|m| m.encode()).collect();
        let container = encode_multi(&encoded);
        let sender = ReplicaId(rng.gen_range(0..32));
        let key: [u8; 32] = digest32(&mut rng);
        let sealed = seal_frame(sender, &key, &container);
        let parsed = decode_sealed(&sealed)
            .expect("sealed container parses")
            .expect("tagged as sealed");
        assert!(parsed.verify(&key), "round {round}: MAC must verify");
        let inner = Bytes::copy_from_slice(parsed.inner);
        let frames = decode_multi(&inner)
            .expect("container parses")
            .expect("tagged as multi");
        assert_eq!(frames.len(), msgs.len());
        for (frame, msg) in frames.iter().zip(&msgs) {
            match decode_frame(frame).expect("sub-frame decodes") {
                Frame::Plain(got) => assert_eq!(&got, msg, "round {round}"),
                Frame::Batched { .. } => panic!("round {round}: sub-frame parsed as batched"),
            }
        }
        // Single plain frames are never mistaken for containers.
        assert!(decode_multi(&encoded[0]).expect("parses").is_none());
    }
}
