//! A test client that submits signed operations to the replica group and
//! accepts results once `f + 1` matching replies arrive.

use crate::config::{ClientId, PrimeConfig, ReplicaId};
use crate::msg::{ClientOp, PrimeMsg};
use bytes::Bytes;
use spire_crypto::keys::Signer;
use spire_sim::{Context, Process, ProcessId, Span, Time};
use std::collections::BTreeMap;

const TIMER_SEND: u64 = 1;

/// Routing used by the client to reach replicas.
pub enum ClientRouting {
    /// Direct sim links to each replica process.
    Direct(Vec<ProcessId>),
    /// Through a Spines port (payload-level addressing handled elsewhere).
    Spines {
        /// Local overlay port.
        port: spire_spines::SpinesPort,
        /// Per-replica overlay addresses.
        addrs: Vec<spire_spines::OverlayAddr>,
        /// Dissemination mode.
        mode: spire_spines::Dissemination,
    },
}

impl ClientRouting {
    /// Submits one encoded message to every replica. Over a flooding
    /// overlay that is a single dissemination to the replica group
    /// ([`crate::net::REPLICA_GROUP`]: the replicas at `addrs` are its
    /// members); the routed modes have no groups and send to each address.
    pub fn send_all(&self, ctx: &mut Context<'_>, msg: Bytes) {
        use spire_spines::Dissemination::Flood;
        match self {
            ClientRouting::Direct(replicas) => {
                for pid in replicas {
                    ctx.send(*pid, msg.clone());
                }
            }
            ClientRouting::Spines {
                port, mode: Flood, ..
            } => port.send_group(ctx, crate::net::REPLICA_GROUP, true, msg),
            ClientRouting::Spines { port, addrs, mode } => {
                for addr in addrs {
                    port.send(ctx, *addr, *mode, true, msg.clone());
                }
            }
        }
    }
}

/// A workload-driving client process.
///
/// Sends one signed op every `interval` (up to `count`; 0 = unlimited),
/// records end-to-end latency in the metric series `<label>.latency_ms`,
/// and counts accepted ops in `<label>.accepted`.
pub struct TestClient {
    cfg: PrimeConfig,
    id: ClientId,
    signer: Signer,
    routing: ClientRouting,
    interval: Span,
    count: u64,
    payload_size: usize,
    label: String,

    next_cseq: u64,
    sent_at: BTreeMap<u64, Time>,
    replies: BTreeMap<u64, BTreeMap<u32, Vec<u8>>>,
    accepted: BTreeMap<u64, bool>,
}

impl TestClient {
    /// Creates a client.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: PrimeConfig,
        id: ClientId,
        signer: Signer,
        routing: ClientRouting,
        interval: Span,
        count: u64,
        label: &str,
    ) -> TestClient {
        TestClient {
            cfg,
            id,
            signer,
            routing,
            interval,
            count,
            payload_size: 16,
            label: label.to_string(),
            next_cseq: 0,
            sent_at: BTreeMap::new(),
            replies: BTreeMap::new(),
            accepted: BTreeMap::new(),
        }
    }

    /// Sets the op payload size in bytes.
    pub fn with_payload_size(mut self, size: usize) -> TestClient {
        self.payload_size = size;
        self
    }

    fn send_op(&mut self, ctx: &mut Context<'_>) {
        self.next_cseq += 1;
        let cseq = self.next_cseq;
        let mut payload = vec![0u8; self.payload_size.max(8)];
        payload[..8].copy_from_slice(&ctx.now().0.to_le_bytes());
        let op = ClientOp::signed(self.id, cseq, Bytes::from(payload), &self.signer);
        let msg = PrimeMsg::Op(op).encode();
        self.sent_at.insert(cseq, ctx.now());
        self.routing.send_all(ctx, msg);
        ctx.count(&format!("{}.sent", self.label), 1);
    }

    fn on_reply(&mut self, ctx: &mut Context<'_>, replica: ReplicaId, cseq: u64, result: &[u8]) {
        if self.accepted.get(&cseq).copied().unwrap_or(false) {
            return;
        }
        let replies = self.replies.entry(cseq).or_default();
        replies.insert(replica.0, result.to_vec());
        // Accept once f+1 replicas sent the same result.
        let mut tallies: BTreeMap<&[u8], usize> = BTreeMap::new();
        for r in replies.values() {
            *tallies.entry(r.as_slice()).or_insert(0) += 1;
        }
        let needed = (self.cfg.f + 1) as usize;
        if tallies.values().any(|count| *count >= needed) {
            self.accepted.insert(cseq, true);
            if let Some(sent) = self.sent_at.get(&cseq) {
                let latency_ms = ctx.now().since(*sent).as_millis_f64();
                ctx.record(&format!("{}.latency_ms", self.label), latency_ms);
            }
            ctx.count(&format!("{}.accepted", self.label), 1);
            self.replies.remove(&cseq);
        }
    }
}

impl Process for TestClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let ClientRouting::Spines { port, .. } = &self.routing {
            port.attach(ctx);
        }
        ctx.set_timer(self.interval, TIMER_SEND);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
        let payload = match &self.routing {
            ClientRouting::Direct(_) => bytes.clone(),
            ClientRouting::Spines { .. } => match spire_spines::SpinesPort::decode_deliver(bytes) {
                Some((_, payload)) => payload,
                None => return,
            },
        };
        let Ok(msg) = crate::msg::decode_enclosed(&payload) else {
            return;
        };
        if let PrimeMsg::Reply {
            replica,
            client,
            cseq,
            result,
            ..
        } = msg
        {
            if client == self.id {
                self.on_reply(ctx, replica, cseq, &result);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == TIMER_SEND && (self.count == 0 || self.next_cseq < self.count) {
            self.send_op(ctx);
            ctx.set_timer(self.interval, TIMER_SEND);
        }
    }
}

impl std::fmt::Debug for TestClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestClient")
            .field("id", &self.id)
            .field("sent", &self.next_cseq)
            .finish()
    }
}
