//! Prime as a general BFT library: a replicated key-value store with
//! compare-and-swap, tolerating one Byzantine replica — no SCADA involved.
//!
//! Run with: `cargo run --release --example kv_store`

use bytes::Bytes;
use spire_repro::spire_crypto::keys::Signer;
use spire_repro::spire_crypto::{KeyMaterial, KeyStore, NodeId};
use spire_repro::spire_prime::{
    Accepted, ByzBehavior, ClientId, ClientRouting, ClientSession, Inspection, KvApp, KvOp,
    KvReply, PrimeConfig, Replica, ReplicaId,
};
use spire_repro::spire_sim::{Context, LinkConfig, Process, ProcessId, Span, World};
use std::sync::Arc;

/// A scripted KV client: PUT, overwrite via CAS, failed CAS, GET; checks
/// every reply against the expected value once f+1 replicas agree.
struct KvClient {
    session: ClientSession,
    script: Vec<(KvOp, KvReply)>,
}

impl KvClient {
    /// Submits the script entry the session's next sequence number names
    /// (entry `i` travels as `cseq = i + 1`), if there is one left.
    fn submit_next(&mut self, ctx: &mut Context<'_>) {
        if let Some((op, _)) = self.script.get(self.session.next_cseq() as usize - 1) {
            self.session.submit(ctx, Bytes::from(op.encode()));
        }
    }
}

impl Process for KvClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.session.start(ctx);
        self.submit_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        let Some(Accepted::Reply { cseq, result, .. }) = self.session.on_message(ctx, from, bytes)
        else {
            return;
        };
        let (op, expected) = &self.script[(cseq - 1) as usize];
        let reply = KvReply::decode(&result).expect("reply decodes");
        assert_eq!(&reply, expected, "unexpected reply for {op:?}");
        ctx.count("kv.verified", 1);
        // Pipeline: next op only after the previous confirmed (strict
        // sequential consistency for the demo).
        self.submit_next(ctx);
    }
}

fn main() {
    let cfg = PrimeConfig::new(1, 0); // f=1, n=4, classic BFT sizing
    let mut world = World::new(2025);
    let material = KeyMaterial::new([4u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 3000));
    let inspection = Inspection::new();

    let first = world.process_count() as u32;
    let replica_pids: Vec<ProcessId> = (0..cfg.n).map(|i| ProcessId(first + i)).collect();
    let client_pid = ProcessId(first + cfg.n);
    for i in 0..cfg.n {
        let signer = Signer::new(
            material.signing_key(NodeId(cfg.replica_key_base + i)),
            false,
        );
        let net = spire_repro::spire_prime::DirectNet {
            replicas: replica_pids.clone(),
            clients: [(0u32, client_pid)].into_iter().collect(),
        };
        // Replica 3 is compromised and executes corrupted ops; f+1 matching
        // replies from the honest replicas mask it completely.
        let behavior = if i == 3 {
            ByzBehavior::DivergentExec
        } else {
            ByzBehavior::Honest
        };
        let replica = Replica::new(
            cfg.clone(),
            ReplicaId(i),
            behavior,
            Arc::clone(&keystore),
            signer,
            Box::new(net),
            Box::new(KvApp::new()),
            false,
        )
        .with_inspection(inspection.clone());
        world.add_process(&format!("kv-replica-{i}"), Box::new(replica));
    }

    let put = |k: &str, v: &str| KvOp::Put {
        key: k.into(),
        value: v.into(),
    };
    let script = vec![
        (put("grid/frequency", "50.02"), KvReply::Ok),
        (
            KvOp::Get {
                key: "grid/frequency".into(),
            },
            KvReply::Value(Some("50.02".into())),
        ),
        (
            KvOp::Cas {
                key: "grid/frequency".into(),
                expected: Some("50.02".into()),
                new: "49.98".into(),
            },
            KvReply::Ok,
        ),
        (
            KvOp::Cas {
                key: "grid/frequency".into(),
                expected: Some("50.02".into()),
                new: "0".into(),
            },
            KvReply::CasFailed(Some("49.98".into())),
        ),
        (put("grid/mode", "islanded"), KvReply::Ok),
        (
            KvOp::Delete {
                key: "grid/mode".into(),
            },
            KvReply::Ok,
        ),
        (
            KvOp::Get {
                key: "grid/mode".into(),
            },
            KvReply::Value(None),
        ),
    ];
    let script_len = script.len() as u64;
    let signer = Signer::new(material.signing_key(NodeId(cfg.client_key_base)), false);
    let routing = ClientRouting::Direct(replica_pids.clone());
    let session = ClientSession::new(&cfg, ClientId(0), signer, routing, keystore);
    let client = KvClient { session, script };
    let got = world.add_process("kv-client", Box::new(client));
    assert_eq!(got, client_pid);
    let link = LinkConfig::lan();
    for i in 0..replica_pids.len() {
        for j in (i + 1)..replica_pids.len() {
            world.add_link(replica_pids[i], replica_pids[j], link);
        }
        world.add_link(client_pid, replica_pids[i], link);
    }

    world.run_for(Span::secs(20));
    let verified = world.metrics().counter("kv.verified");
    println!("replicated KV store (n=4, replica 3 Byzantine):");
    println!("  {verified}/{script_len} scripted ops confirmed with the expected replies");
    let records = inspection.records();
    println!(
        "  honest replicas agree: {}",
        records[&0].app_digest == records[&1].app_digest
            && records[&1].app_digest == records[&2].app_digest
    );
    println!(
        "  compromised replica diverged internally: {}",
        records[&3].app_digest != records[&0].app_digest
    );
    inspection.check_safety(&[0, 1, 2]).expect("safety");
    assert_eq!(verified, script_len);
    println!("  ordering safety check over honest replicas: OK");
}
