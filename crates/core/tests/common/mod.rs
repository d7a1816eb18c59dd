//! Shared wire-frame corpus: one *valid* frame set per protocol layer
//! (every Prime message, sealed / Merkle-batched / multi-frame envelopes,
//! every Spines overlay message, SCADA ops, Modbus device frames, the
//! cross-shard payloads, KV ops, the SCADA master's notifications and
//! read-outs, application snapshots) plus one frame over each decoder
//! count cap and one per retired wire tag, which must stay rejected.
//!
//! New entries go at the *end* of their category: files are addressed by
//! index, so appending never renames a committed file.
//!
//! Two consumers: `fuzz_decoders.rs` mutates these frames to prove the
//! decoders total, and `corpus_replay.rs` pins their exact bytes as
//! committed files under `tests/corpus/` and replays them through live
//! processes on both substrates. Changing any encoder shows up as a
//! corpus-drift failure there — regenerate the files deliberately, never
//! silently.

// Each integration-test binary compiles this module separately and uses
// a different subset of it.
#![allow(dead_code)]

use bytes::Bytes;
use spire_crypto::batch::BatchAttestation;
use spire_crypto::KeyStore;
use spire_prime::msg::{
    encode_batched, encode_multi, seal_frame, seal_frame_for_all, CheckpointMsg, Matrix,
    PreparedClaim, SummaryRow, ViewStateMsg,
};
use spire_prime::{
    Application, ClientId, ClientOp, CounterApp, HashChainApp, KvApp, KvOp, PrimeMsg, ReplicaId,
    ReplyCert,
};
use spire_scada::{
    CommandAction, ModbusFrame, ScadaDirectory, ScadaMaster, ScadaOp, XShardContext,
};
use spire_shard::msg::{cmd_kind, encode_ack, encode_prepared, encode_rejected, DECISION_COMMIT};
use spire_shard::{CertVerifier, ShardCmd, ShardMsg, XParticipant, XShardLedger};
use spire_sim::{Wire, WireWriter};
use spire_spines::msg::DataMsg;
use spire_spines::{Dissemination, OverlayId, OverlayMsg};
use std::sync::Arc;

pub fn prime_corpus() -> Vec<Bytes> {
    let op = ClientOp {
        client: ClientId(3),
        cseq: 17,
        payload: Bytes::from_static(b"update"),
        sig: [7u8; 64],
    };
    let row = SummaryRow {
        replica: ReplicaId(1),
        sseq: 9,
        vector: spire_prime::msg::AruVector(vec![4, 5, 6, 0, 1, 2]),
        sig: [9u8; 64],
    };
    let msgs = vec![
        PrimeMsg::Op(op.clone()),
        PrimeMsg::PoRequest {
            origin: ReplicaId(0),
            po_seq: 12,
            ops: vec![op.clone(), op.clone()],
            sig: [1u8; 64],
        },
        PrimeMsg::PoAck {
            replica: ReplicaId(2),
            origin: ReplicaId(0),
            po_seq: 12,
            digest: [3u8; 32],
            sig: [2u8; 64],
        },
        PrimeMsg::PoSummary(row.clone()),
        PrimeMsg::PrePrepare {
            view: 1,
            seq: 40,
            matrix: Matrix {
                rows: vec![row.clone(), row.clone()],
            },
            sig: [4u8; 64],
        },
        PrimeMsg::Prepare {
            replica: ReplicaId(4),
            view: 1,
            seq: 40,
            digest: [5u8; 32],
            sig: [5u8; 64],
        },
        PrimeMsg::Commit {
            replica: ReplicaId(4),
            view: 1,
            seq: 40,
            digest: [5u8; 32],
            sig: [6u8; 64],
        },
        PrimeMsg::Ping {
            replica: ReplicaId(1),
            nonce: 777,
        },
        PrimeMsg::Pong {
            replica: ReplicaId(2),
            nonce: 777,
        },
        PrimeMsg::Suspect {
            replica: ReplicaId(3),
            view: 2,
            sig: [8u8; 64],
        },
        PrimeMsg::Checkpoint(CheckpointMsg {
            replica: ReplicaId(0),
            seq: 50,
            digest: [11u8; 32],
            sig: [12u8; 64],
        }),
        PrimeMsg::StateReq {
            replica: ReplicaId(5),
            have_seq: 25,
            commit_aru: 27,
            nonce: 4_000_000,
            sig: [13u8; 64],
        },
        PrimeMsg::ReconReq {
            replica: ReplicaId(1),
            origin: ReplicaId(3),
            po_seq: 8,
        },
        PrimeMsg::Notify {
            replica: ReplicaId(0),
            client: ClientId(7),
            nseq: 3,
            payload: Bytes::from_static(b"breaker"),
            sig: [14u8; 64],
        },
        PrimeMsg::Reply {
            replica: ReplicaId(0),
            client: ClientId(7),
            cseq: 3,
            result: Bytes::from_static(b"ok"),
            sig: [15u8; 64],
        },
    ];
    let mut frames: Vec<Bytes> = msgs.iter().map(|m| m.encode()).collect();
    // Sealed session envelope and a Merkle-batched frame over a vote.
    let inner = msgs[6].encode();
    frames.push(seal_frame(ReplicaId(4), &[42u8; 32], &inner));
    let attestation = BatchAttestation {
        leaf_index: 1,
        leaf_count: 4,
        path: vec![[21u8; 32], [22u8; 32]],
        root_sig: [23u8; 64],
    };
    frames.push(encode_batched(ReplicaId(4), &attestation, &inner));

    // View change, state transfer and the cumulative votes, then a
    // multi-frame container over two of them.
    let checkpoint = CheckpointMsg {
        replica: ReplicaId(2),
        seq: 50,
        digest: [11u8; 32],
        sig: [16u8; 64],
    };
    let state = ViewStateMsg {
        replica: ReplicaId(3),
        view: 2,
        last_committed: 40,
        prepared: vec![
            PreparedClaim {
                view: 1,
                seq: 41,
                matrix: Matrix {
                    rows: vec![row.clone()],
                },
            },
            PreparedClaim {
                view: 1,
                seq: 42,
                matrix: Matrix { rows: vec![] },
            },
        ],
        sig: [17u8; 64],
    };
    let more = [
        PrimeMsg::ViewState(state.clone()),
        PrimeMsg::NewView {
            view: 2,
            states: vec![
                state.clone(),
                ViewStateMsg {
                    replica: ReplicaId(4),
                    prepared: vec![],
                    ..state
                },
            ],
            sig: [18u8; 64],
        },
        // A commit certificate over the vote above, nested plain,
        // batch-attested and (never accepted there) sealed.
        PrimeMsg::CommitCert {
            seq: 40,
            view: 1,
            matrix: Matrix { rows: vec![row] },
            frames: vec![
                inner.clone(),
                encode_batched(ReplicaId(4), &attestation, &inner),
                seal_frame(ReplicaId(4), &[42u8; 32], &inner),
            ],
        },
        PrimeMsg::PoAckMulti {
            replica: ReplicaId(2),
            entries: vec![(ReplicaId(0), 7, [1u8; 32]), (ReplicaId(3), 9, [2u8; 32])],
            sig: [19u8; 64],
        },
        PrimeMsg::CommitMulti {
            replica: ReplicaId(4),
            view: 2,
            entries: vec![(41, [4u8; 32]), (42, [5u8; 32]), (43, [6u8; 32])],
            sig: [20u8; 64],
        },
        PrimeMsg::StateMeta {
            replica: ReplicaId(1),
            nonce: 4_000_000,
            commit_aru: 53,
            checkpoint_seq: 50,
            total_len: 2500,
            chunk_digests: vec![[1u8; 32], [2u8; 32], [3u8; 32]],
            proof: vec![checkpoint],
            requester_po_high: 17,
            requester_sseq_high: 5,
            sig: [21u8; 64],
        },
        PrimeMsg::StateChunk {
            checkpoint_seq: 50,
            chunk: 1,
            data: Bytes::from_static(b"chunk bytes"),
        },
        PrimeMsg::StateChunkReq {
            replica: ReplicaId(5),
            checkpoint_seq: 50,
            chunks: vec![0, 2, 7],
        },
    ];
    frames.extend(more.iter().map(|m| m.encode()));
    frames.push(encode_multi(&[inner.clone(), more[3].encode()]));
    // The group seal: one envelope for all four peers of replica 2.
    let keys: Vec<[u8; 32]> = (0..4u8).map(|r| [0x40 + r; 32]).collect();
    frames.push(seal_frame_for_all(ReplicaId(2), &keys, &inner));
    frames
}

pub fn overlay_corpus() -> Vec<Bytes> {
    let data = DataMsg {
        src: OverlayId(0),
        src_port: 2,
        dst: OverlayId(6),
        dst_port: 1,
        seq: 55,
        mode: Dissemination::DisjointPaths(3),
        ttl: 12,
        route: vec![OverlayId(0), OverlayId(4), OverlayId(6)],
        route_idx: 1,
        reliable: true,
        payload: Bytes::from_static(b"prime frame inside"),
    };
    let group_data = DataMsg {
        dst: OverlayId::GROUP,
        dst_port: 1,
        mode: Dissemination::Flood,
        route: Vec::new(),
        route_idx: 0,
        ..data.clone()
    };
    [
        OverlayMsg::Hello {
            from: OverlayId(3),
            seq: 10,
        },
        OverlayMsg::Lsa {
            origin: OverlayId(2),
            seq: 4,
            neighbors: vec![(OverlayId(1), 10), (OverlayId(3), 12)],
            sig: [31u8; 64],
        },
        OverlayMsg::Data {
            frame_id: 99,
            msg: data,
        },
        OverlayMsg::HopAck { frame_id: 99 },
        OverlayMsg::ClientAttach { port: 7 },
        OverlayMsg::ClientSend {
            dst: OverlayId(6),
            dst_port: 1,
            mode: Dissemination::Flood,
            reliable: false,
            payload: Bytes::from_static(b"payload"),
        },
        OverlayMsg::ClientDeliver {
            src: OverlayId(0),
            src_port: 2,
            payload: Bytes::from_static(b"payload"),
        },
        OverlayMsg::HopAckMulti {
            frame_ids: vec![98, 99, u64::MAX],
        },
        OverlayMsg::Batch {
            frames: vec![
                OverlayMsg::HopAck { frame_id: 99 }.encode(),
                OverlayMsg::Hello {
                    from: OverlayId(3),
                    seq: 11,
                }
                .encode(),
            ],
        },
        OverlayMsg::ClientJoin { group: 1 },
        OverlayMsg::Data {
            frame_id: 100,
            msg: group_data,
        },
    ]
    .iter()
    .map(|m| m.encode())
    .collect()
}

pub fn scada_corpus() -> Vec<Bytes> {
    [
        ScadaOp::DeviceUpdate {
            rtu: 2,
            ts_us: 1_500_000,
            registers: vec![(0, 230), (1, 49)],
            breakers: vec![(0, true), (1, false)],
        },
        ScadaOp::Command {
            rtu: 2,
            ts_us: 1_600_000,
            action: CommandAction::OpenBreaker(1),
        },
        ScadaOp::Command {
            rtu: 3,
            ts_us: 1_700_000,
            action: CommandAction::SetRegister(4, 500),
        },
        ScadaOp::ReadState { rtu: 1 },
    ]
    .iter()
    .map(|m| m.encode())
    .collect()
}

pub fn modbus_corpus() -> Vec<Bytes> {
    [
        ModbusFrame::ReadRegisters {
            txn: 1,
            addr: 0,
            count: 8,
        },
        ModbusFrame::ReadResponse {
            txn: 1,
            addr: 0,
            values: vec![230, 49, 500],
        },
        ModbusFrame::WriteCoil {
            txn: 2,
            coil: 1,
            on: false,
        },
        ModbusFrame::WriteRegister {
            txn: 3,
            addr: 4,
            value: 500,
        },
        ModbusFrame::WriteAck { txn: 3 },
        ModbusFrame::Report {
            ts_us: 1_000_000,
            registers: vec![(0, 230)],
            coils: vec![(0, true)],
        },
    ]
    .iter()
    .map(|m| m.encode())
    .collect()
}

fn shard_cmds(n: u32) -> Vec<ShardCmd> {
    (0..n)
        .map(|i| ShardCmd {
            shard: i % 3,
            rtu: 10 + i,
            kind: cmd_kind::SET_REGISTER,
            a: 40,
            b: 9000,
        })
        .collect()
}

fn reply_cert(frames: usize) -> ReplyCert {
    ReplyCert {
        result: Bytes::from(encode_prepared(7, &[8u8; 32])),
        frames: (0..frames).map(|i| Bytes::from(vec![i as u8; 3])).collect(),
    }
}

/// Every cross-shard operation payload, the three reply payloads and a
/// standalone reply certificate.
pub fn shard_corpus() -> Vec<Bytes> {
    vec![
        ShardMsg::XPrepare {
            xid: 7,
            coord_shard: 0,
            ts_us: 123_456,
            shards: vec![0, 2],
            cmds: shard_cmds(2),
            poison: false,
        }
        .encode(),
        ShardMsg::XCommit {
            xid: 7,
            coord_shard: 0,
            ts_us: 123_456,
            shards: vec![0, 2],
            cmds: shard_cmds(2),
            cert: reply_cert(2),
        }
        .encode(),
        ShardMsg::XAbort {
            xid: 9,
            coord_shard: 1,
            shards: vec![1, 3],
        }
        .encode(),
        Bytes::from(encode_prepared(7, &[8u8; 32])),
        Bytes::from(encode_rejected(9)),
        Bytes::from(encode_ack(7, DECISION_COMMIT)),
        reply_cert(2).encode(),
    ]
}

/// One frame over each decoder count cap (65 shards, 257 commands, 65
/// certificate frames, 65 authenticator slots), built by the real encoders. Every decoder must
/// keep rejecting these.
pub fn overcap_corpus() -> Vec<Bytes> {
    vec![
        ShardMsg::XAbort {
            xid: 1,
            coord_shard: 0,
            shards: (0..65).collect(),
        }
        .encode(),
        ShardMsg::XPrepare {
            xid: 2,
            coord_shard: 0,
            ts_us: 1,
            shards: vec![0],
            cmds: shard_cmds(257),
            poison: false,
        }
        .encode(),
        reply_cert(65).encode(),
        seal_frame_for_all(ReplicaId(0), &[[7u8; 32]; 65], b"inner"),
    ]
}

/// Frames of wire tags that are no longer assigned, written field by field
/// since no encoder produces them any more. Every decoder must keep
/// rejecting these, so a retired tag is never silently reused.
///
/// `retired_00`: `PrimeMsg` tag 15, the whole-snapshot `StateResp` that
/// chunked state transfer superseded (laid out as the bytes `prime_19.bin`
/// held; only the snapshot bytes differ).
/// `retired_01`: `PrimeMsg` tag 18, the suffix vote that commit
/// certificates superseded (the bytes `prime_19.bin` held before the
/// certificate took its slot).
pub fn retired_corpus() -> Vec<Bytes> {
    let checkpoint = CheckpointMsg {
        replica: ReplicaId(2),
        seq: 50,
        digest: [11u8; 32],
        sig: [16u8; 64],
    };
    let mut w = WireWriter::new();
    // tag | replica, checkpoint_seq | the responder's piece of the
    // snapshot (index, pieces needed, bytes) | proof | view,
    // requester_po_high, requester_sseq_high
    15u8.write(&mut w);
    (ReplicaId(1), 50u64).write(&mut w);
    (1u8, 2u8, Bytes::from_static(b"snapshot piece")).write(&mut w);
    vec![checkpoint.clone(), checkpoint].write(&mut w);
    (2u64, 17u64, 5u64).write(&mut w);
    let state_resp = w.finish();
    // tag | replica, seq | matrix
    let mut w = WireWriter::new();
    18u8.write(&mut w);
    (ReplicaId(2), 51u64).write(&mut w);
    Matrix { rows: vec![] }.write(&mut w);
    vec![state_resp, w.finish()]
}

pub fn kv_corpus() -> Vec<Bytes> {
    [
        KvOp::Cas {
            key: "breaker/7".into(),
            expected: Some("open".into()),
            new: "closed".into(),
        },
        KvOp::Cas {
            key: "breaker/7".into(),
            expected: None,
            new: "closed".into(),
        },
    ]
    .iter()
    .map(|op| Bytes::from(op.encode()))
    .collect()
}

/// A master wired to RTU 2's proxy (client 102) and one HMI (client 500),
/// sharded as group 0 when `sharded`.
fn scada_master(sharded: bool) -> ScadaMaster {
    let directory = ScadaDirectory {
        rtu_proxy: [(2, 102)].into(),
        hmis: vec![500],
    };
    let master = ScadaMaster::new(directory);
    if !sharded {
        return master;
    }
    master.with_xshard(XShardContext {
        participant: XParticipant::new(0),
        verifier: CertVerifier {
            keystore: Arc::new(KeyStore::new()),
            stride: spire_shard::SHARD_KEY_STRIDE,
            replica_base: 1000,
            n: 6,
            client: ClientId(spire_shard::COORD_CLIENT_ID),
            f: 1,
            mock: true,
        },
        ledger: Arc::new(XShardLedger::new()),
    })
}

/// RTU 2 reports, its breaker 0 flips, and one command of each
/// `CommandAction` is ordered; returns the notification payloads.
fn drive_master(master: &mut ScadaMaster) -> Vec<Bytes> {
    let mut ops: Vec<ScadaOp> = [true, false]
        .map(|closed| ScadaOp::DeviceUpdate {
            rtu: 2,
            ts_us: 1_500_000,
            registers: vec![(0, 230), (1, 49)],
            breakers: vec![(0, closed), (1, false)],
        })
        .into();
    for action in [
        CommandAction::OpenBreaker(1),
        CommandAction::CloseBreaker(1),
        CommandAction::SetRegister(4, 500),
    ] {
        ops.push(ScadaOp::Command {
            rtu: 2,
            ts_us: 1_600_000,
            action,
        });
    }
    ops.iter()
        .flat_map(|op| master.execute(&op.encode()).notifications)
        .map(|n| Bytes::from(n.payload))
        .collect()
}

/// The master's notification payloads: a breaker event to an HMI, then
/// one command per `CommandAction` to RTU 2's proxy.
pub fn notify_corpus() -> Vec<Bytes> {
    drive_master(&mut scada_master(false))
}

/// `ReadState` replies: a known RTU (registers and breakers), then one the
/// master never heard from.
pub fn readout_corpus() -> Vec<Bytes> {
    let mut master = scada_master(false);
    drive_master(&mut master);
    [2, 9]
        .map(|rtu| Bytes::from(master.execute(&ScadaOp::ReadState { rtu }.encode()).reply))
        .into()
}

/// Application snapshots: a SCADA master empty, populated, and populated
/// with a 2PC participant holding a prepared and a decided transaction;
/// a KV store; a hash chain.
pub fn snapshot_corpus() -> Vec<Bytes> {
    let mut populated = scada_master(false);
    drive_master(&mut populated);
    let mut sharded = scada_master(true);
    drive_master(&mut sharded);
    for op in [
        ShardMsg::XPrepare {
            xid: 7,
            coord_shard: 0,
            ts_us: 123_456,
            shards: vec![0, 2],
            cmds: shard_cmds(2),
            poison: false,
        },
        ShardMsg::XAbort {
            xid: 9,
            coord_shard: 1,
            shards: vec![0, 3],
        },
    ] {
        sharded.execute(&op.encode());
    }
    let mut kv = KvApp::new();
    for op in kv_corpus() {
        kv.execute(&op);
    }
    let mut chain = HashChainApp::new();
    chain.execute(b"x");
    chain.execute(b"y");
    [
        scada_master(false).snapshot(),
        populated.snapshot(),
        sharded.snapshot(),
        kv.snapshot(),
        chain.snapshot(),
    ]
    .map(Bytes::from)
    .into()
}

/// A fresh instance of every `Application`: the three reference apps, and
/// the SCADA master single and sharded.
pub fn fresh_apps() -> [Box<dyn Application>; 5] {
    [
        Box::new(CounterApp::default()),
        Box::new(HashChainApp::new()),
        Box::new(KvApp::new()),
        Box::new(scada_master(false)),
        Box::new(scada_master(true)),
    ]
}

/// `(category, frames)` for every layer, in the committed-file order.
pub fn full_corpus() -> Vec<(&'static str, Vec<Bytes>)> {
    vec![
        ("prime", prime_corpus()),
        ("overlay", overlay_corpus()),
        ("scada", scada_corpus()),
        ("modbus", modbus_corpus()),
        ("shard", shard_corpus()),
        ("overcap", overcap_corpus()),
        ("retired", retired_corpus()),
        ("kv", kv_corpus()),
        ("notify", notify_corpus()),
        ("readout", readout_corpus()),
        ("snapshot", snapshot_corpus()),
    ]
}
