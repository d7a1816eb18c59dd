//! Criterion micro-benchmarks of the building blocks: crypto primitives,
//! protocol codecs, the SCADA state machine and overlay path computation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spire_crypto::keys::Signer;
use spire_crypto::{KeyMaterial, NodeId};
use spire_prime::{ClientId, ClientOp, PrimeMsg, ReplicaId};
use spire_scada::{ScadaDirectory, ScadaMaster, ScadaOp};
use spire_spines::{OverlayId, Topology};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data = vec![0xabu8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha256_1k", |b| {
        b.iter(|| spire_crypto::sha2::Sha256::digest(std::hint::black_box(&data)))
    });
    group.bench_function("hmac_sha256_1k", |b| {
        b.iter(|| spire_crypto::hmac::hmac_sha256(b"key", std::hint::black_box(&data)))
    });
    group.finish();

    let material = KeyMaterial::new([1u8; 32]);
    let key = material.signing_key(NodeId(0));
    let msg = b"PO-REQUEST r2 seq 17";
    let sig = key.sign(msg);
    let pk = key.verifying_key();
    let mut group = c.benchmark_group("ed25519");
    group.bench_function("sign", |b| b.iter(|| key.sign(std::hint::black_box(msg))));
    group.bench_function("verify", |b| {
        b.iter(|| pk.verify(std::hint::black_box(msg), &sig))
    });
    group.finish();

    let mut group = c.benchmark_group("merkle");
    let leaves: Vec<Vec<u8>> = (0..256u32).map(|i| i.to_le_bytes().to_vec()).collect();
    group.bench_function("build_256", |b| {
        b.iter(|| spire_crypto::merkle::MerkleTree::build(leaves.iter().map(|l| l.as_slice())))
    });
    group.finish();
}

fn bench_batch_auth(c: &mut Criterion) {
    use spire_crypto::keys::verify64;
    use spire_crypto::{BatchSigner, KeyStore};

    let material = KeyMaterial::new([3u8; 32]);
    let node = NodeId(1000);
    let signer = Signer::new(material.signing_key(node), false);
    let store = KeyStore::for_nodes(&material, 2048);
    let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 96]).collect();
    let digests: Vec<[u8; 32]> = msgs
        .iter()
        .map(|m| spire_crypto::sha2::Sha256::digest(m))
        .collect();

    // The amortization claim: one Merkle flush over 16 vote digests must
    // beat 16 individual ed25519 signatures.
    let mut group = c.benchmark_group("batch_auth");
    group.bench_function("sign_16_individually", |b| {
        b.iter(|| {
            for m in &msgs {
                std::hint::black_box(signer.sign64(std::hint::black_box(m)));
            }
        })
    });
    group.bench_function("batch_sign_16", |b| {
        b.iter(|| {
            let mut batcher = BatchSigner::new();
            for d in &digests {
                batcher.push(std::hint::black_box(*d));
            }
            std::hint::black_box(batcher.flush(&signer))
        })
    });

    // Receiver side: verifying a message through its inclusion proof
    // (path recompute + root signature check) vs a bare signature check.
    let mut batcher = BatchSigner::new();
    for d in &digests {
        batcher.push(*d);
    }
    let batch = batcher.flush(&signer).unwrap();
    let attestation = batch.attestation(7);
    let bare_sig = signer.sign64(&msgs[7]);
    group.bench_function("verify_bare", |b| {
        b.iter(|| {
            verify64(
                &store,
                node,
                std::hint::black_box(&msgs[7]),
                &bare_sig,
                false,
            )
        })
    });
    group.bench_function("verify_with_proof_16", |b| {
        b.iter(|| attestation.verify(&store, node, std::hint::black_box(&digests[7]), false))
    });
    group.finish();
}

fn bench_erasure(c: &mut Criterion) {
    let data = vec![0xabu8; 64 * 1024];
    let mut group = c.benchmark_group("erasure_64k");
    group.throughput(Throughput::Bytes(64 * 1024));
    group.bench_function("encode_k2_n6", |b| {
        b.iter(|| spire_crypto::erasure::encode(std::hint::black_box(&data), 2, 6).unwrap())
    });
    let shares = spire_crypto::erasure::encode(&data, 2, 6).unwrap();
    let parity = vec![shares[4].clone(), shares[5].clone()];
    group.bench_function("decode_parity_only", |b| {
        b.iter(|| spire_crypto::erasure::decode(std::hint::black_box(&parity), 2).unwrap())
    });
    group.finish();
}

fn bench_prime_codec(c: &mut Criterion) {
    let material = KeyMaterial::new([2u8; 32]);
    let signer = Signer::new(material.signing_key(NodeId(2000)), false);
    let op = ClientOp::signed(ClientId(0), 1, bytes::Bytes::from(vec![0u8; 64]), &signer);
    let msg = PrimeMsg::PoRequest {
        origin: ReplicaId(0),
        po_seq: 1,
        ops: vec![op; 16],
        sig: [7; 64],
    };
    let encoded = msg.encode();
    let mut group = c.benchmark_group("prime_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_po_request_16ops", |b| {
        b.iter(|| std::hint::black_box(&msg).encode())
    });
    group.bench_function("decode_po_request_16ops", |b| {
        b.iter(|| PrimeMsg::decode(std::hint::black_box(&encoded)).unwrap())
    });
    group.finish();
}

fn bench_scada_master(c: &mut Criterion) {
    use spire_prime::Application;
    let mut master = ScadaMaster::new(ScadaDirectory::default());
    let op = ScadaOp::DeviceUpdate {
        rtu: 1,
        ts_us: 42,
        registers: (0..8).map(|i| (i, i * 100)).collect(),
        breakers: vec![(0, true), (1, false)],
    }
    .encode();
    c.bench_function("scada_apply_update", |b| {
        b.iter(|| master.execute(std::hint::black_box(&op)))
    });
}

fn bench_tracing(c: &mut Criterion) {
    use spire_sim::{span_key, Histogram, SpanPhase, Time, TraceKind, Tracer};
    let mut group = c.benchmark_group("tracing");
    // The disabled path is the one on every message hot path; it must be
    // branch-only (no allocation, no histogram work).
    let mut disabled = Tracer::disabled();
    group.bench_function("record_disabled", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            disabled.record(
                Time(t),
                std::hint::black_box(TraceKind::MsgSend {
                    from: 1,
                    to: 2,
                    len: 64,
                }),
            )
        })
    });
    let mut enabled = Tracer::disabled();
    enabled.enable(65_536);
    group.bench_function("record_enabled", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            enabled.record(
                Time(t),
                std::hint::black_box(TraceKind::MsgSend {
                    from: 1,
                    to: 2,
                    len: 64,
                }),
            )
        })
    });
    let mut span_tracer = Tracer::disabled();
    span_tracer.enable(65_536);
    group.bench_function("span_mark_confirm", |b| {
        let mut cseq = 0u64;
        b.iter(|| {
            cseq += 1;
            let key = span_key(7, cseq);
            span_tracer.mark(Time(cseq), 1, key, SpanPhase::Submit);
            span_tracer.mark(Time(cseq + 3), 2, key, SpanPhase::Confirm)
        })
    });
    let mut hist = Histogram::default();
    group.bench_function("histogram_observe", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.observe(std::hint::black_box(v >> 40))
        })
    });
    group.finish();
}

fn bench_topology(c: &mut Criterion) {
    let topology = Topology::full_mesh(24, 10);
    let mut group = c.benchmark_group("spines_routing");
    group.bench_function("dijkstra_24_mesh", |b| {
        b.iter(|| topology.shortest_path(OverlayId(0), OverlayId(23)))
    });
    group.bench_function("disjoint3_24_mesh", |b| {
        b.iter(|| topology.disjoint_paths(OverlayId(0), OverlayId(23), 3))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_batch_auth,
    bench_erasure,
    bench_prime_codec,
    bench_scada_master,
    bench_tracing,
    bench_topology
);
criterion_main!(benches);
