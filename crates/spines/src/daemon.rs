//! The Spines overlay daemon.
//!
//! Each daemon maintains authenticated links to its overlay neighbors,
//! floods signed link-state advertisements, and forwards application
//! traffic under three dissemination modes (shortest path, k edge-disjoint
//! paths, constrained flooding). Two mechanisms provide the paper's
//! *network-attack resilience*:
//!
//! 1. **Authentication** — every daemon-to-daemon frame carries an HMAC
//!    keyed per link, and every LSA is signed by its origin; injected or
//!    corrupted traffic is dropped at the first hop.
//! 2. **Per-source fairness** — flooded traffic is rate-limited per source
//!    with a token bucket, so a single compromised client or daemon cannot
//!    starve other sources (Spines' fair resource allocation).
//!
//! Hop-by-hop reliability (ack + retransmit) recovers from lossy links.
//! Data frames and hop acks bound for the same neighbor coalesce into
//! link-level batches sealed by one HMAC per flush window (see
//! [`BATCH_WINDOW`]) — constrained flooding otherwise
//! amplifies every application message into one authenticated frame and
//! one ack per overlay edge. A hop ack never pays for a frame of its own
//! while data can carry it: it leaves beside the next data flushed to the
//! same neighbor, or at the daemon's next retransmission scan, whichever
//! comes first. The scan runs every 10 ms, so with one link round trip the
//! ack is back well inside the 60 ms retransmission timeout (see
//! `RETRANSMIT_INTERVAL`).
//!
//! **Duplicate suppression** works at two levels. A reliable frame's id
//! is its sender's frame counter, and it arrives over a link whose HMAC
//! names the sender, so the hop level keeps one fixed-size window per
//! neighbor (`SeenWindow`, the anti-replay window of IPsec): the highest
//! id received on that link and a bit for each of the 65,536 ids ending
//! there, 8 KB per link that carries reliable traffic. Only that neighbor
//! can move its window, so no neighbor can mark another link's frames as
//! seen. An id below the window's floor (65,536 or more below the top) is
//! treated as new. The busiest daemon of the benchmark's `sim_pipeline`
//! workload (200 updates/s) assigns 227,012 frame ids across its links in
//! the 28 s its devices send, about 8,100 a second, so the window reaches
//! back about 8 s, close to the ~10 s a frame is retransmitted before its
//! sender gives up. A retransmission older than that costs at most one
//! redundant forward, because final delivery is deduplicated by the flood
//! key `(src, src_port, seq)`. The same window does that work there: one
//! per stream `(src, src_port)` over its `seq`s (`FloodSeen`), for the
//! first 256 streams a daemon sees. That key is not authenticated — a
//! [`DataMsg`] carries no source signature, and any daemon on the path can
//! write any `src` — so whatever a window cannot decide goes to a set of
//! the last 100,000 keys (`SEEN_CAP`) instead of counting as new: a key
//! below its stream's floor, and every key of a stream past the limit. One
//! forged far-ahead `seq` therefore moves its stream onto that set, where
//! it is deduplicated as every stream was before the windows, and forged
//! streams past the limit cost the same. On honest runs the set stays
//! empty (`spines.flood_overflow` counts the keys it decides).
//!
//! **Multicast groups.** A client joins a group on its daemon
//! ([`OverlayMsg::ClientJoin`]); a message flooded to
//! [`OverlayId::GROUP`] is delivered by every daemon to its local members
//! (never back to the sending client) and always forwarded, so one
//! dissemination reaches every member. Membership is local knowledge: the
//! flood visits every daemon anyway, so nothing is advertised. Groups exist
//! under [`Dissemination::Flood`] only; under the routed modes a group
//! destination is dropped and counted.

use crate::msg::{lsa_signing_bytes, DataMsg, Dissemination, OverlayMsg};
use crate::topology::{OverlayId, Topology};
use bytes::Bytes;
use spire_crypto::ed25519::Signature;
use spire_crypto::hmac::{hmac_sha256, verify_hmac_sha256};
use spire_crypto::{KeyStore, NodeId, SigningKey};
use spire_sim::{BoundedSet, Context, Process, ProcessId, Span, Time, TraceKind};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const TIMER_HELLO: u64 = 1;
const TIMER_LSA: u64 = 2;
const TIMER_RETX: u64 = 3;
const TIMER_FLUSH: u64 = 4;

/// Interval between hello probes.
const HELLO_INTERVAL: Span = Span::millis(500);
/// A neighbor is declared dead if silent for this long.
const DEAD_AFTER: Span = Span::millis(1_800);
/// Interval between periodic LSA refreshes.
const LSA_INTERVAL: Span = Span::secs(5);
/// Link-state advertisements older than this are aged out of the database
/// (a crashed daemon's stale adjacency must not linger).
const LSA_MAX_AGE: Span = Span::secs(16);
/// Retransmission scan interval for reliable frames. The scan also flushes
/// the hop acks that no data frame has carried, so a receiver holds an ack
/// at most this long. On the slowest link (15 ms one way plus up to 5 ms
/// jitter) the sender hears the ack at most 40 ms of round trip + 10 ms =
/// 50 ms after sending, 10 ms inside [`RETRANSMIT_TIMEOUT`].
const RETRANSMIT_INTERVAL: Span = Span::millis(10);
/// Retransmission timeout for a reliable frame.
const RETRANSMIT_TIMEOUT: Span = Span::millis(60);
/// Give up after this many retransmissions. With exponential backoff (60 ms
/// doubling, 2 s cap) twelve retries span roughly ten seconds: enough for
/// liveness detection to update routes and the re-route path to kick in.
const MAX_RETRIES: u32 = 12;
/// Flush a neighbor's stage early once this many frames are queued,
/// bounding batch size and staging memory under load.
const BATCH_MAX_FRAMES: usize = 32;

/// Hop-level link batching: data frames bound for the same neighbor are
/// staged for up to this window and flushed as one [`OverlayMsg::Batch`]
/// under a single link HMAC, led by every hop ack staged for that
/// neighbor. A staged ack opens the window too, but leaves only beside
/// data; with none, it waits for the next retransmission scan. Real
/// Spines packs messages into link-level packets the same way; without
/// it, flooding amplifies every application message into one
/// authenticated frame per overlay edge *plus* one ack per frame.
pub const BATCH_WINDOW: Span = Span::millis(1);

/// Tuning knobs for a daemon.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Initial TTL for data messages.
    pub default_ttl: u8,
    /// Sustained flood forwarding rate allowed per source (messages/sec).
    pub flood_rate_per_source: f64,
    /// Burst allowance per source (messages).
    pub flood_burst: f64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            default_ttl: 32,
            flood_rate_per_source: 5_000.0,
            flood_burst: 500.0,
        }
    }
}

/// Fault model of a daemon, for attack-injection experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DaemonBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Forwards control traffic but silently drops all data (blackhole).
    Blackhole,
    /// Flips a byte in every forwarded data payload. The hop HMAC catches
    /// it only if the corruption happens before authentication — a
    /// compromised daemon re-MACs — so end-to-end protection is what
    /// detects it: a replica verifies a client op's signature and a peer's
    /// signature, attestation or session MAC, and a client verifies each
    /// reply's author before counting it (`client.bad_reply_auth`).
    Corrupting,
}

/// One row of the per-overlay message attribution: every message a daemon
/// emits, and every message a client hands it, is counted under exactly one
/// of these as `spines.<label>.<row>`.
#[derive(Clone, Copy)]
enum Row {
    /// `ClientSend` to one address.
    ClientSend,
    /// `ClientSend` to a group.
    GroupSend,
    /// `ClientAttach` / `ClientJoin`.
    ClientCtl,
    /// `ClientDeliver` handed to a local client.
    ClientDeliver,
    /// Sealed to a neighbor: data frames only.
    TxData,
    /// Sealed to a neighbor: hop acks only.
    TxAckOnly,
    /// Sealed to a neighbor: hop acks and data frames together.
    TxMixed,
    /// Sealed to a neighbor: a hello probe.
    TxHello,
    /// Sealed to a neighbor: a link-state advertisement.
    TxLsa,
    /// Sealed to a neighbor: a retransmitted data frame.
    TxRetx,
}

const ROW_NAMES: [&str; 10] = [
    "client_send",
    "group_send",
    "client_ctl",
    "client_deliver",
    "tx_data",
    "tx_ack_only",
    "tx_mixed",
    "tx_hello",
    "tx_lsa",
    "tx_retx",
];

fn row_keys(label: &str) -> Vec<String> {
    let key = |name: &&str| format!("spines.{label}.{name}");
    ROW_NAMES.iter().map(key).collect()
}

struct NeighborState {
    pid: ProcessId,
    link_key: [u8; 32],
    weight: u32,
    last_heard: Time,
    alive: bool,
    /// Reliable frame ids already received on this link.
    seen: SeenWindow,
}

/// Ids a [`SeenWindow`] remembers below its top, the top included.
const WINDOW_IDS: u64 = 1 << 16;
const WINDOW_WORDS: usize = (WINDOW_IDS / 64) as usize;

/// The hop-level duplicate filter of one link: an anti-replay sliding
/// window (RFC 4303 §3.4.3) over the frame ids the neighbor sends. It
/// holds the highest id received and one bit per id for the
/// [`WINDOW_IDS`] ids ending there, in a ring indexed by `id %
/// WINDOW_IDS`. The bitmap (8 KB) is allocated on the first reliable
/// frame, so a link that carries none costs nothing.
#[derive(Default)]
struct SeenWindow {
    top: u64,
    bits: Vec<u64>,
}

impl SeenWindow {
    /// Records `id`: `Some(false)` if it was already recorded, `Some(true)`
    /// if not, `None` if it lies below the window's floor and cannot be
    /// told apart. An id above the top slides the window up to it; an id
    /// inside the window is a duplicate exactly when its bit is set.
    fn check(&mut self, id: u64) -> Option<bool> {
        if self.bits.is_empty() {
            self.bits = vec![0; WINDOW_WORDS];
            self.top = id;
        } else if id > self.top {
            self.slide_to(id);
        } else if self.top - id >= WINDOW_IDS {
            return None;
        }
        let bit = (id % WINDOW_IDS) as usize;
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        Some(fresh)
    }

    /// Records `id`; false if it was already recorded. An id below the
    /// window's floor is new, and left unrecorded.
    fn insert(&mut self, id: u64) -> bool {
        self.check(id).unwrap_or(true)
    }

    /// Moves the top up to `id`, clearing the bits of the ids it passes.
    /// Counts the ids left to clear rather than stepping an id past them,
    /// so a top at `u64::MAX` cannot overflow.
    fn slide_to(&mut self, id: u64) {
        let mut left = id - self.top;
        if left >= WINDOW_IDS {
            self.bits.fill(0);
        } else {
            let mut bit = ((self.top + 1) % WINDOW_IDS) as usize;
            while left > 0 {
                if bit.is_multiple_of(64) && left >= 64 {
                    self.bits[bit / 64] = 0;
                    (bit, left) = (bit + 64, left - 64);
                } else {
                    self.bits[bit / 64] &= !(1u64 << (bit % 64));
                    (bit, left) = (bit + 1, left - 1);
                }
                bit %= WINDOW_IDS as usize;
            }
        }
        self.top = id;
    }
}

/// Flood-key streams `(src, src_port)` a daemon keeps a window for.
const MAX_STREAMS: usize = 256;

/// The final-delivery duplicate filter over flood keys `(src, src_port,
/// seq)`: a [`SeenWindow`] per stream `(src, src_port)` over its `seq`s,
/// for the first [`MAX_STREAMS`] streams, and a set of the last
/// [`SEEN_CAP`] keys for whatever no window can decide — a key below its
/// stream's floor, or any key of a stream past the limit.
struct FloodSeen {
    windows: BTreeMap<(u16, u16), SeenWindow>,
    overflow: BoundedSet<(u16, u16, u64)>,
}

impl FloodSeen {
    fn new() -> FloodSeen {
        FloodSeen {
            windows: BTreeMap::new(),
            overflow: BoundedSet::new(SEEN_CAP),
        }
    }

    /// Records `key`; false if it was seen before. It goes to its stream's
    /// window (opened while fewer than [`MAX_STREAMS`] exist); a key no
    /// window can decide goes to the overflow set, and `on_overflow` runs.
    fn insert(&mut self, key: (u16, u16, u64), on_overflow: impl FnOnce()) -> bool {
        let (src, port, seq) = key;
        let streams = self.windows.len();
        let decided = match self.windows.entry((src, port)) {
            Entry::Occupied(window) => window.into_mut().check(seq),
            Entry::Vacant(slot) if streams < MAX_STREAMS => {
                slot.insert(SeenWindow::default()).check(seq)
            }
            Entry::Vacant(_) => None,
        };
        decided.unwrap_or_else(|| {
            on_overflow();
            self.overflow.insert(key)
        })
    }
}

struct LsaEntry {
    seq: u64,
    neighbors: Vec<(OverlayId, u32)>,
    /// When this advertisement was accepted (for aging).
    received_at: Time,
}

struct PendingFrame {
    to_overlay: OverlayId,
    msg: DataMsg,
    /// Encoded wire body, *without* the link HMAC: the first transmission
    /// rides a batch (one HMAC per batch), so retransmissions — the rare
    /// path — re-seal individually from this.
    body: Bytes,
    retries: u32,
    next_at: Time,
    /// Current retransmission timeout (doubles per retry, capped).
    rto: Span,
}

struct TokenBucket {
    tokens: f64,
    last: Time,
}

/// A Spines overlay daemon (a [`Process`] in the simulation).
pub struct Daemon {
    me: OverlayId,
    cfg: DaemonConfig,
    behavior: DaemonBehavior,
    signing: SigningKey,
    keystore: Arc<KeyStore>,
    /// crypto NodeId of overlay node i is `key_base + i`.
    key_base: u32,
    neighbors: BTreeMap<OverlayId, NeighborState>,
    pid_to_overlay: BTreeMap<ProcessId, OverlayId>,
    clients: BTreeMap<u16, ProcessId>,
    /// Local members of each multicast group. By process, not by port, so
    /// a join does not depend on the client's attach having arrived first
    /// (the real-clock substrate does not keep the two in order).
    groups: BTreeMap<u16, BTreeSet<ProcessId>>,
    /// Label-prefixed counter keys, indexed by [`Row`].
    row_keys: Vec<String>,
    lsa_db: BTreeMap<OverlayId, LsaEntry>,
    my_lsa_seq: u64,
    routes: Option<Topology>,
    flood_seen: FloodSeen,
    pending: BTreeMap<u64, PendingFrame>,
    next_frame: u64,
    send_seq: BTreeMap<u16, u64>,
    buckets: BTreeMap<OverlayId, TokenBucket>,
    hello_seq: u64,
    /// Per-neighbor staged frames awaiting the next batch flush.
    stage: BTreeMap<OverlayId, Vec<Bytes>>,
    /// Per-neighbor staged hop acks, flushed as one cumulative ack.
    staged_acks: BTreeMap<OverlayId, Vec<u64>>,
    /// Whether a TIMER_FLUSH is already pending.
    flush_scheduled: bool,
}

/// Flood keys the overflow set of [`FloodSeen`] remembers.
const SEEN_CAP: usize = 100_000;

impl Daemon {
    /// Creates a daemon.
    ///
    /// `neighbors` maps each overlay neighbor to its simulation process and
    /// link weight; `link_keys` carries the shared per-link HMAC keys.
    /// `key_base` maps overlay ids into the [`KeyStore`] id space.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: OverlayId,
        cfg: DaemonConfig,
        behavior: DaemonBehavior,
        signing: SigningKey,
        keystore: Arc<KeyStore>,
        key_base: u32,
        neighbors: Vec<(OverlayId, ProcessId, u32, [u8; 32])>,
    ) -> Daemon {
        let mut neighbor_map = BTreeMap::new();
        let mut pid_to_overlay = BTreeMap::new();
        for (id, pid, weight, link_key) in neighbors {
            pid_to_overlay.insert(pid, id);
            neighbor_map.insert(
                id,
                NeighborState {
                    pid,
                    link_key,
                    weight,
                    last_heard: Time::ZERO,
                    alive: true,
                    seen: SeenWindow::default(),
                },
            );
        }
        Daemon {
            me,
            cfg,
            behavior,
            signing,
            keystore,
            key_base,
            neighbors: neighbor_map,
            pid_to_overlay,
            clients: BTreeMap::new(),
            groups: BTreeMap::new(),
            row_keys: row_keys("overlay"),
            lsa_db: BTreeMap::new(),
            my_lsa_seq: 0,
            routes: None,
            flood_seen: FloodSeen::new(),
            pending: BTreeMap::new(),
            next_frame: 0,
            send_seq: BTreeMap::new(),
            buckets: BTreeMap::new(),
            hello_seq: 0,
            stage: BTreeMap::new(),
            staged_acks: BTreeMap::new(),
            flush_scheduled: false,
        }
    }

    /// Names the overlay this daemon belongs to in its `spines.<label>.*`
    /// attribution counters (default `"overlay"`).
    pub fn with_label(mut self, label: &str) -> Daemon {
        self.row_keys = row_keys(label);
        self
    }

    fn count_row(&self, ctx: &mut Context<'_>, row: Row) {
        ctx.count(&self.row_keys[row as usize], 1);
    }

    fn crypto_id(&self, overlay: OverlayId) -> NodeId {
        NodeId(self.key_base + overlay.0 as u32)
    }

    /// Seals an encoded body with the neighbor's link HMAC and sends it:
    /// the one place a daemon emits to another daemon.
    fn seal_to(&self, ctx: &mut Context<'_>, neighbor: OverlayId, body: &[u8], row: Row) {
        let Some(state) = self.neighbors.get(&neighbor) else {
            return;
        };
        let tag = hmac_sha256(&state.link_key, body);
        let mut framed = Vec::with_capacity(body.len() + 32);
        framed.extend_from_slice(body);
        framed.extend_from_slice(&tag);
        ctx.send(state.pid, Bytes::from(framed));
        self.count_row(ctx, row);
    }

    fn frame_to(&self, ctx: &mut Context<'_>, neighbor: OverlayId, msg: &OverlayMsg, row: Row) {
        self.seal_to(ctx, neighbor, &msg.encode(), row);
    }

    /// Queues an encoded frame for the neighbor's next batch flush.
    fn stage_frame(&mut self, ctx: &mut Context<'_>, neighbor: OverlayId, body: Bytes) {
        let queued = {
            let stage = self.stage.entry(neighbor).or_default();
            stage.push(body);
            stage.len()
        };
        if queued >= BATCH_MAX_FRAMES {
            self.flush_neighbor(ctx, neighbor);
        } else {
            self.schedule_flush(ctx);
        }
    }

    fn schedule_flush(&mut self, ctx: &mut Context<'_>) {
        if !self.flush_scheduled {
            self.flush_scheduled = true;
            ctx.set_timer(BATCH_WINDOW, TIMER_FLUSH);
        }
    }

    /// Flushes one neighbor's staged acks + frames as a single sealed batch.
    /// Acks go first so the sender's retransmission table drains promptly.
    fn flush_neighbor(&mut self, ctx: &mut Context<'_>, neighbor: OverlayId) {
        let acks = self.staged_acks.remove(&neighbor).unwrap_or_default();
        let mut frames = self.stage.remove(&neighbor).unwrap_or_default();
        let row = match (acks.is_empty(), frames.is_empty()) {
            (true, _) => Row::TxData,
            (false, true) => Row::TxAckOnly,
            (false, false) => Row::TxMixed,
        };
        if !acks.is_empty() {
            let ack = if acks.len() == 1 {
                OverlayMsg::HopAck { frame_id: acks[0] }
            } else {
                OverlayMsg::HopAckMulti { frame_ids: acks }
            };
            frames.insert(0, ack.encode());
        }
        match frames.len() {
            0 => {}
            1 => self.seal_to(ctx, neighbor, &frames[0], row),
            n => {
                ctx.count("spines.link_batches", 1);
                ctx.count("spines.link_batched_frames", n as u64);
                let body = OverlayMsg::Batch { frames }.encode();
                self.seal_to(ctx, neighbor, &body, row);
            }
        }
    }

    /// The batch window's flush: every neighbor with staged data, each with
    /// its staged acks in front. Acks with no data beside them stay staged
    /// for the next data bound that way or the next retransmission scan.
    fn flush_stages(&mut self, ctx: &mut Context<'_>) {
        let targets: Vec<OverlayId> = self.stage.keys().copied().collect();
        for n in targets {
            self.flush_neighbor(ctx, n);
        }
    }

    /// The retransmission scan's flush: every neighbor still holding acks.
    fn flush_acks(&mut self, ctx: &mut Context<'_>) {
        let targets: Vec<OverlayId> = self.staged_acks.keys().copied().collect();
        for n in targets {
            self.flush_neighbor(ctx, n);
        }
    }

    /// Sends a data frame to a neighbor, registering it for retransmission
    /// if reliability was requested.
    fn send_data_frame(&mut self, ctx: &mut Context<'_>, neighbor: OverlayId, msg: DataMsg) {
        if self.behavior == DaemonBehavior::Blackhole && msg.src != self.me {
            ctx.count("spines.blackholed", 1);
            return;
        }
        let mut msg = msg;
        if self.behavior == DaemonBehavior::Corrupting && !msg.payload.is_empty() {
            let mut corrupted = msg.payload.to_vec();
            corrupted[0] ^= 0xff;
            msg.payload = Bytes::from(corrupted);
            ctx.count("spines.corrupted", 1);
        }
        ctx.trace(TraceKind::OverlayHop {
            daemon: ctx.id().0,
            src: msg.src.0,
            dst: msg.dst.0,
            ttl: msg.ttl,
        });
        let frame_id = ((self.me.0 as u64) << 40) | self.next_frame;
        self.next_frame += 1;
        let body = if msg.reliable {
            if !self.neighbors.contains_key(&neighbor) {
                return;
            }
            let wire = OverlayMsg::Data {
                frame_id,
                msg: msg.clone(),
            };
            let body = wire.encode();
            self.pending.insert(
                frame_id,
                PendingFrame {
                    to_overlay: neighbor,
                    msg,
                    body: body.clone(),
                    retries: 0,
                    next_at: ctx.now() + RETRANSMIT_TIMEOUT,
                    rto: RETRANSMIT_TIMEOUT,
                },
            );
            body
        } else {
            OverlayMsg::Data { frame_id, msg }.encode()
        };
        self.stage_frame(ctx, neighbor, body);
    }

    fn regenerate_lsa(&mut self, ctx: &mut Context<'_>) {
        self.my_lsa_seq += 1;
        let neighbors: Vec<(OverlayId, u32)> = self
            .neighbors
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(id, s)| (*id, s.weight))
            .collect();
        let bytes = lsa_signing_bytes(self.me, self.my_lsa_seq, &neighbors);
        let sig = self.signing.sign(&bytes);
        let lsa = OverlayMsg::Lsa {
            origin: self.me,
            seq: self.my_lsa_seq,
            neighbors: neighbors.clone(),
            sig: sig.to_bytes(),
        };
        self.lsa_db.insert(
            self.me,
            LsaEntry {
                seq: self.my_lsa_seq,
                neighbors,
                received_at: ctx.now(),
            },
        );
        self.routes = None;
        let targets: Vec<OverlayId> = self.alive_neighbors();
        for n in targets {
            self.frame_to(ctx, n, &lsa, Row::TxLsa);
        }
    }

    fn alive_neighbors(&self) -> Vec<OverlayId> {
        self.neighbors
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Builds the routing topology from the LSA database. An edge is used
    /// only if *both* endpoints advertise it, so a single lying daemon
    /// cannot fabricate adjacencies to attract traffic.
    fn topology(&mut self) -> &Topology {
        if self.routes.is_none() {
            let mut t = Topology::new();
            t.add_node(self.me);
            for origin in self.lsa_db.keys() {
                t.add_node(*origin);
            }
            let claims: Vec<(OverlayId, OverlayId, u32)> = self
                .lsa_db
                .iter()
                .flat_map(|(origin, entry)| {
                    entry.neighbors.iter().map(move |(n, w)| (*origin, *n, *w))
                })
                .collect();
            for (a, b, w) in &claims {
                if a < b {
                    let reverse = self
                        .lsa_db
                        .get(b)
                        .map(|e| e.neighbors.iter().any(|(n, _)| n == a))
                        .unwrap_or(false);
                    if reverse {
                        t.add_edge(*a, *b, *w);
                    }
                }
            }
            self.routes = Some(t);
        }
        self.routes.as_ref().unwrap()
    }

    /// Records a flood key; false if it was seen before.
    fn mark_flood_seen(&mut self, ctx: &mut Context<'_>, key: (u16, u16, u64)) -> bool {
        let overflow = || ctx.count("spines.flood_overflow", 1);
        self.flood_seen.insert(key, overflow)
    }

    fn take_flood_token(&mut self, now: Time, source: OverlayId) -> bool {
        let bucket = self.buckets.entry(source).or_insert(TokenBucket {
            tokens: self.cfg.flood_burst,
            last: now,
        });
        let dt = now.since(bucket.last).as_secs_f64();
        bucket.last = now;
        bucket.tokens =
            (bucket.tokens + dt * self.cfg.flood_rate_per_source).min(self.cfg.flood_burst);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn deliver_local(&self, ctx: &mut Context<'_>, msg: &DataMsg) {
        match self.clients.get(&msg.dst_port) {
            Some(client) => self.deliver_to(ctx, msg, *client),
            None => ctx.count("spines.no_client_drop", 1),
        }
    }

    /// Hands `msg` to a local client: the one place a daemon emits to one.
    fn deliver_to(&self, ctx: &mut Context<'_>, msg: &DataMsg, client: ProcessId) {
        let deliver = OverlayMsg::ClientDeliver {
            src: msg.src,
            src_port: msg.src_port,
            payload: msg.payload.clone(),
        };
        ctx.send(client, deliver.encode());
        ctx.count("spines.delivered", 1);
        self.count_row(ctx, Row::ClientDeliver);
    }

    /// Hands a group message to every local member of group `msg.dst_port`
    /// except the client that sent it.
    fn deliver_group(&self, ctx: &mut Context<'_>, msg: &DataMsg) {
        let Some(members) = self.groups.get(&msg.dst_port) else {
            return;
        };
        let local = msg.src == self.me;
        let sender = self.clients.get(&msg.src_port).filter(|_| local);
        for member in members {
            if Some(member) != sender {
                self.deliver_to(ctx, msg, *member);
            }
        }
    }

    /// Core forwarding logic shared by locally originated and transit data.
    fn route_data(&mut self, ctx: &mut Context<'_>, mut msg: DataMsg, from_hop: Option<OverlayId>) {
        if msg.dst == OverlayId::GROUP && msg.mode != Dissemination::Flood {
            ctx.count("spines.group_not_flood_drop", 1);
            return;
        }
        match msg.mode {
            Dissemination::Flood => {
                let key = (msg.src.0, msg.src_port, msg.seq);
                if !self.mark_flood_seen(ctx, key) {
                    return;
                }
                if msg.dst == OverlayId::GROUP {
                    // Members may sit behind any daemon: deliver here and
                    // keep flooding.
                    self.deliver_group(ctx, &msg);
                } else if msg.dst == self.me {
                    self.deliver_local(ctx, &msg);
                    return;
                }
                // Per-source fairness: a flooding source cannot consume more
                // than its token rate at this daemon.
                if !self.take_flood_token(ctx.now(), msg.src) {
                    ctx.count("spines.flood_rate_limited", 1);
                    return;
                }
                if msg.ttl == 0 {
                    ctx.count("spines.ttl_drop", 1);
                    return;
                }
                msg.ttl -= 1;
                for n in self.alive_neighbors() {
                    if Some(n) != from_hop {
                        self.send_data_frame(ctx, n, msg.clone());
                    }
                }
            }
            Dissemination::Shortest => {
                if msg.dst == self.me {
                    let key = (msg.src.0, msg.src_port, msg.seq);
                    if self.mark_flood_seen(ctx, key) {
                        self.deliver_local(ctx, &msg);
                    }
                    return;
                }
                if msg.ttl == 0 {
                    ctx.count("spines.ttl_drop", 1);
                    return;
                }
                msg.ttl -= 1;
                let me = self.me;
                let dst = msg.dst;
                let next = self.topology().next_hop(me, dst);
                match next {
                    Some(n) => self.send_data_frame(ctx, n, msg),
                    None => ctx.count("spines.no_route_drop", 1),
                }
            }
            Dissemination::DisjointPaths(_) => {
                if msg.dst == self.me {
                    let key = (msg.src.0, msg.src_port, msg.seq);
                    if self.mark_flood_seen(ctx, key) {
                        self.deliver_local(ctx, &msg);
                    }
                    return;
                }
                if msg.ttl == 0 {
                    ctx.count("spines.ttl_drop", 1);
                    return;
                }
                msg.ttl -= 1;
                let idx = msg.route_idx as usize;
                if idx < msg.route.len() {
                    let next = msg.route[idx];
                    msg.route_idx += 1;
                    self.send_data_frame(ctx, next, msg);
                } else {
                    ctx.count("spines.bad_route_drop", 1);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn originate(
        &mut self,
        ctx: &mut Context<'_>,
        src_port: u16,
        dst: OverlayId,
        dst_port: u16,
        mode: Dissemination,
        reliable: bool,
        payload: Bytes,
    ) {
        let seq = {
            let counter = self.send_seq.entry(src_port).or_insert(0);
            *counter += 1;
            *counter
        };
        let base = DataMsg {
            src: self.me,
            src_port,
            dst,
            dst_port,
            seq,
            mode,
            ttl: self.cfg.default_ttl,
            route: Vec::new(),
            route_idx: 0,
            reliable,
            payload,
        };
        match mode {
            // (A group destination has no source route; `route_data` drops it.)
            Dissemination::DisjointPaths(k) if dst != OverlayId::GROUP => {
                if dst == self.me {
                    let mut msg = base;
                    msg.mode = Dissemination::Shortest;
                    self.route_data(ctx, msg, None);
                    return;
                }
                let me = self.me;
                let paths = self.topology().disjoint_paths(me, dst, k.max(1) as usize);
                if paths.is_empty() {
                    ctx.count("spines.no_route_drop", 1);
                    return;
                }
                for path in paths {
                    let mut msg = base.clone();
                    msg.route = path;
                    msg.route_idx = 1; // position of the hop after us
                    let next = msg.route[1];
                    msg.route_idx = 2;
                    msg.ttl = self.cfg.default_ttl;
                    self.send_data_frame(ctx, next, msg);
                }
            }
            _ => self.route_data(ctx, base, None),
        }
    }

    /// An ack counts only from the link the frame was sent on: another
    /// neighbor must not cancel its retransmission.
    fn on_hop_ack(&mut self, ctx: &mut Context<'_>, from: OverlayId, frame_id: u64) {
        match self.pending.get(&frame_id) {
            Some(frame) if frame.to_overlay == from => {
                self.pending.remove(&frame_id);
            }
            Some(_) => ctx.count("spines.foreign_ack_drop", 1),
            None => {}
        }
    }

    fn on_neighbor_msg(&mut self, ctx: &mut Context<'_>, from: OverlayId, msg: OverlayMsg) {
        match msg {
            OverlayMsg::Hello {
                from: h_from,
                seq: _,
            } => {
                if h_from != from {
                    ctx.count("spines.hello_spoof_drop", 1);
                    return;
                }
                let newly_alive = {
                    let Some(state) = self.neighbors.get_mut(&from) else {
                        return;
                    };
                    let previous = state.last_heard;
                    state.last_heard = ctx.now();
                    if state.alive {
                        false
                    } else {
                        // Damping: a congested link leaking the occasional
                        // hello must not flap alive; require two hellos in
                        // quick succession before reviving.
                        let stable = ctx.now().since(previous) <= HELLO_INTERVAL.times(2);
                        if stable {
                            state.alive = true;
                        }
                        stable
                    }
                };
                if newly_alive {
                    self.regenerate_lsa(ctx);
                }
            }
            OverlayMsg::Lsa {
                origin,
                seq,
                neighbors,
                sig,
            } => {
                if origin == self.me {
                    return;
                }
                let known = self.lsa_db.get(&origin).map(|e| e.seq).unwrap_or(0);
                if seq <= known {
                    return;
                }
                let bytes = lsa_signing_bytes(origin, seq, &neighbors);
                let signature = Signature::from_bytes(sig);
                if !self
                    .keystore
                    .verify(self.crypto_id(origin), &bytes, &signature)
                {
                    ctx.count("spines.lsa_bad_sig", 1);
                    return;
                }
                self.lsa_db.insert(
                    origin,
                    LsaEntry {
                        seq,
                        neighbors,
                        received_at: ctx.now(),
                    },
                );
                self.routes = None;
                // Flood onward.
                let lsa = OverlayMsg::Lsa {
                    origin,
                    seq,
                    neighbors: self.lsa_db[&origin].neighbors.clone(),
                    sig,
                };
                for n in self.alive_neighbors() {
                    if n != from {
                        self.frame_to(ctx, n, &lsa, Row::TxLsa);
                    }
                }
            }
            OverlayMsg::Data { frame_id, msg } => {
                if msg.reliable {
                    // Cumulative ack: it rides the next data flushed back
                    // to `from`, or the next retransmission scan. It still
                    // opens the batch window: data staged behind it leaves
                    // when that window closes.
                    self.staged_acks.entry(from).or_default().push(frame_id);
                    self.schedule_flush(ctx);
                    let link = self.neighbors.get_mut(&from);
                    if !link.is_some_and(|link| link.seen.insert(frame_id)) {
                        return; // duplicate retransmission
                    }
                }
                self.route_data(ctx, msg, Some(from));
            }
            OverlayMsg::HopAck { frame_id } => self.on_hop_ack(ctx, from, frame_id),
            OverlayMsg::HopAckMulti { frame_ids } => {
                for frame_id in frame_ids {
                    self.on_hop_ack(ctx, from, frame_id);
                }
            }
            OverlayMsg::Batch { frames } => {
                for body in frames {
                    match OverlayMsg::decode(&body) {
                        // Refuse nesting: a forwarded batch-of-batches could
                        // otherwise recurse unboundedly.
                        Ok(OverlayMsg::Batch { .. }) => {
                            ctx.count("spines.nested_batch_drop", 1);
                        }
                        Ok(sub) => self.on_neighbor_msg(ctx, from, sub),
                        Err(_) => ctx.count("spines.decode_fail", 1),
                    }
                }
            }
            _ => ctx.count("spines.unexpected_neighbor_msg", 1),
        }
    }

    fn on_client_msg(&mut self, ctx: &mut Context<'_>, from: ProcessId, msg: OverlayMsg) {
        match msg {
            OverlayMsg::ClientAttach { port } => {
                self.count_row(ctx, Row::ClientCtl);
                self.clients.insert(port, from);
            }
            OverlayMsg::ClientJoin { group } => {
                self.count_row(ctx, Row::ClientCtl);
                self.groups.entry(group).or_default().insert(from);
            }
            OverlayMsg::ClientSend {
                dst,
                dst_port,
                mode,
                reliable,
                payload,
            } => {
                let group = dst == OverlayId::GROUP;
                self.count_row(
                    ctx,
                    if group {
                        Row::GroupSend
                    } else {
                        Row::ClientSend
                    },
                );
                // Identify the sending client's port (must be attached).
                let Some(src_port) = self
                    .clients
                    .iter()
                    .find(|(_, pid)| **pid == from)
                    .map(|(port, _)| *port)
                else {
                    ctx.count("spines.unattached_client_drop", 1);
                    return;
                };
                self.originate(ctx, src_port, dst, dst_port, mode, reliable, payload);
            }
            _ => ctx.count("spines.unexpected_client_msg", 1),
        }
    }
}

impl Process for Daemon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (_, state) in self.neighbors.iter_mut() {
            state.last_heard = ctx.now();
        }
        ctx.set_timer(HELLO_INTERVAL, TIMER_HELLO);
        ctx.set_timer(LSA_INTERVAL, TIMER_LSA);
        ctx.set_timer(RETRANSMIT_INTERVAL, TIMER_RETX);
        self.regenerate_lsa(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        if let Some(overlay_from) = self.pid_to_overlay.get(&from).copied() {
            // Neighbor daemon: verify the link HMAC.
            if bytes.len() < 32 {
                ctx.count("spines.short_frame_drop", 1);
                return;
            }
            let (body, tag_bytes) = bytes.split_at(bytes.len() - 32);
            let tag: [u8; 32] = tag_bytes.try_into().unwrap();
            let key = self.neighbors[&overlay_from].link_key;
            if !verify_hmac_sha256(&key, body, &tag) {
                ctx.count("spines.hmac_fail", 1);
                return;
            }
            match OverlayMsg::decode(body) {
                Ok(msg) => self.on_neighbor_msg(ctx, overlay_from, msg),
                Err(_) => ctx.count("spines.decode_fail", 1),
            }
        } else {
            // Local client.
            match OverlayMsg::decode(bytes) {
                Ok(msg) => self.on_client_msg(ctx, from, msg),
                Err(_) => ctx.count("spines.client_decode_fail", 1),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TIMER_HELLO => {
                self.hello_seq += 1;
                let hello = OverlayMsg::Hello {
                    from: self.me,
                    seq: self.hello_seq,
                };
                let all: Vec<OverlayId> = self.neighbors.keys().copied().collect();
                for n in all {
                    self.frame_to(ctx, n, &hello, Row::TxHello);
                }
                // Death detection.
                let now = ctx.now();
                let mut changed = false;
                for (_, state) in self.neighbors.iter_mut() {
                    if state.alive && now.since(state.last_heard) > DEAD_AFTER {
                        state.alive = false;
                        changed = true;
                    }
                }
                if changed {
                    self.regenerate_lsa(ctx);
                }
                ctx.set_timer(HELLO_INTERVAL, TIMER_HELLO);
            }
            TIMER_LSA => {
                // Age out stale advertisements (their origin stopped
                // refreshing: crashed, partitioned, or compromised-and-
                // silenced). Our own entry is refreshed just below.
                let now = ctx.now();
                let me = self.me;
                let before = self.lsa_db.len();
                self.lsa_db
                    .retain(|origin, e| *origin == me || now.since(e.received_at) <= LSA_MAX_AGE);
                if self.lsa_db.len() != before {
                    self.routes = None;
                    ctx.count("spines.lsa_aged_out", 1);
                }
                self.regenerate_lsa(ctx);
                ctx.set_timer(LSA_INTERVAL, TIMER_LSA);
            }
            TIMER_RETX => {
                self.flush_acks(ctx);
                let now = ctx.now();
                let mut to_resend: Vec<u64> = Vec::new();
                let mut to_drop: Vec<u64> = Vec::new();
                let mut to_reroute: Vec<u64> = Vec::new();
                let expired: Vec<u64> = self
                    .pending
                    .iter()
                    .filter(|(_, f)| f.next_at <= now)
                    .map(|(id, _)| *id)
                    .collect();
                for id in expired {
                    let (mode, dst, to_overlay, retries) = {
                        let f = &self.pending[&id];
                        (f.msg.mode, f.msg.dst, f.to_overlay, f.retries)
                    };
                    // If routing has moved away from the pending next hop
                    // (e.g. the neighbor was declared dead), re-route the
                    // payload along the new path instead of retrying a dead
                    // link forever.
                    if mode == Dissemination::Shortest {
                        let me = self.me;
                        let current = self.topology().next_hop(me, dst);
                        if current.is_some() && current != Some(to_overlay) {
                            to_reroute.push(id);
                            continue;
                        }
                    }
                    // Frames bound for a dead neighbor are dropped: flooded
                    // and disjoint-path traffic has redundant copies, and
                    // retransmitting into a black hole only feeds congestion
                    // collapse under DoS.
                    let neighbor_dead = self
                        .neighbors
                        .get(&to_overlay)
                        .map(|s| !s.alive)
                        .unwrap_or(true);
                    if neighbor_dead && mode != Dissemination::Shortest {
                        to_drop.push(id);
                        continue;
                    }
                    if retries >= MAX_RETRIES {
                        to_drop.push(id);
                    } else {
                        to_resend.push(id);
                    }
                }
                for id in to_drop {
                    self.pending.remove(&id);
                    ctx.count("spines.retx_give_up", 1);
                }
                for id in to_reroute {
                    if let Some(frame) = self.pending.remove(&id) {
                        ctx.count("spines.rerouted", 1);
                        self.route_data(ctx, frame.msg, None);
                    }
                }
                for id in to_resend {
                    if let Some(frame) = self.pending.get_mut(&id) {
                        frame.retries += 1;
                        // Exponential backoff, capped: persistent loss must
                        // not multiply traffic.
                        frame.rto = Span::micros((frame.rto.0 * 2).min(2_000_000));
                        frame.next_at = now + frame.rto;
                        // Retransmissions bypass the batch stage and are
                        // sealed individually: the rare path pays the
                        // per-frame HMAC so the common path doesn't.
                        let (to, body) = (frame.to_overlay, frame.body.clone());
                        self.seal_to(ctx, to, &body, Row::TxRetx);
                        ctx.count("spines.retx", 1);
                    }
                }
                ctx.set_timer(RETRANSMIT_INTERVAL, TIMER_RETX);
            }
            TIMER_FLUSH => {
                self.flush_scheduled = false;
                self.flush_stages(ctx);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("me", &self.me)
            .field("neighbors", &self.neighbors.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::{FloodSeen, SeenWindow, MAX_STREAMS, SEEN_CAP, WINDOW_IDS, WINDOW_WORDS};

    #[test]
    fn duplicate_inside_the_window() {
        let mut w = SeenWindow::default();
        assert!(w.insert(100));
        assert!(!w.insert(100));
        assert!(w.insert(101));
        assert!(!w.insert(100));
        assert!(!w.insert(101));
    }

    #[test]
    fn reordering_inside_the_window() {
        let mut w = SeenWindow::default();
        for id in [10, 14, 11, 13, 12, 10 + WINDOW_IDS - 1, 15] {
            assert!(w.insert(id), "{id} is new");
        }
        for id in [10, 11, 12, 13, 14, 15] {
            assert!(!w.insert(id), "{id} was seen");
        }
        assert!(w.insert(16));
    }

    #[test]
    fn a_jump_of_a_whole_window_clears_it() {
        let mut w = SeenWindow::default();
        for id in 0..1_000 {
            assert!(w.insert(id));
        }
        let top = 999 + WINDOW_IDS;
        assert!(w.insert(top));
        assert_eq!(w.top, top);
        // Every id still inside the window is unmarked, whatever its bit
        // held before the jump.
        assert!(w.insert(top - WINDOW_IDS + 1));
        assert!(w.insert(top - 1));
        assert!(!w.insert(top));
        assert!(w.bits.iter().map(|b| b.count_ones()).sum::<u32>() == 3);
    }

    #[test]
    fn a_slide_clears_exactly_the_ids_it_passes() {
        let mut w = SeenWindow::default();
        for id in 0..WINDOW_IDS {
            w.insert(id);
        }
        w.insert(WINDOW_IDS + 200);
        // Ids 0..=200 fell below the floor, WINDOW_IDS..WINDOW_IDS+200 are
        // new, and the 201.. ids still inside remain marked.
        for id in WINDOW_IDS..WINDOW_IDS + 200 {
            assert!(w.insert(id), "{id} is new");
        }
        for id in 201..WINDOW_IDS {
            assert!(!w.insert(id), "{id} was seen");
        }
    }

    #[test]
    fn an_id_below_the_floor_is_new_and_unrecorded() {
        let mut w = SeenWindow::default();
        assert!(w.insert(5));
        assert!(w.insert(5 + WINDOW_IDS));
        assert!(w.insert(5), "below the floor");
        assert!(w.insert(5), "still below the floor, never recorded");
        assert_eq!(w.top, 5 + WINDOW_IDS);
        assert!(!w.insert(5 + WINDOW_IDS));
    }

    #[test]
    fn the_bitmap_keeps_its_size() {
        let mut w = SeenWindow::default();
        assert!(w.bits.is_empty(), "allocated on the first frame only");
        for id in (0..1_000_000u64).map(|n| n * 3) {
            assert!(w.insert(id));
        }
        assert_eq!(w.bits.len(), WINDOW_WORDS);
        assert_eq!(w.bits.capacity(), WINDOW_WORDS);
        assert_eq!(w.top, 2_999_997);
    }

    #[test]
    fn the_top_can_reach_the_last_id() {
        let mut w = SeenWindow::default();
        assert!(w.insert(u64::MAX - 1));
        assert!(w.insert(u64::MAX));
        assert!(!w.insert(u64::MAX - 1));
        assert!(!w.insert(u64::MAX));
        assert_eq!(w.top, u64::MAX);
    }

    /// Records `key` in `f`; true if new. Counts the keys that overflowed.
    fn mark(f: &mut FloodSeen, overflowed: &mut u64, key: (u16, u16, u64)) -> bool {
        f.insert(key, || *overflowed += 1)
    }

    #[test]
    fn flood_duplicates_and_reordering_inside_a_streams_window() {
        let (mut f, mut overflowed) = (FloodSeen::new(), 0);
        for seq in [3, 1, 2, 7, 5, WINDOW_IDS, 4] {
            assert!(mark(&mut f, &mut overflowed, (1, 80, seq)), "{seq} is new");
        }
        // Seq 1 is the window's last: WINDOW_IDS ids end at the top.
        for seq in [1, 2, 3, 4, 5, 7, WINDOW_IDS] {
            assert!(
                !mark(&mut f, &mut overflowed, (1, 80, seq)),
                "{seq} was seen"
            );
        }
        // Streams are apart: the same seq from another port or source is new.
        assert!(mark(&mut f, &mut overflowed, (1, 81, 3)));
        assert!(mark(&mut f, &mut overflowed, (2, 80, 3)));
        assert!(!mark(&mut f, &mut overflowed, (2, 80, 3)));
        assert_eq!(f.windows.len(), 3);
        assert_eq!((overflowed, f.overflow.len()), (0, 0));
    }

    #[test]
    fn a_key_below_its_streams_floor_goes_to_the_overflow_set() {
        let (mut f, mut overflowed) = (FloodSeen::new(), 0);
        // A forged far-ahead seq moves the stream's window past the real
        // keys; they are decided by the overflow set from then on.
        assert!(mark(&mut f, &mut overflowed, (4, 9, 10)));
        assert!(mark(&mut f, &mut overflowed, (4, 9, u64::MAX - 1)));
        assert_eq!(overflowed, 0);
        for seq in 11..=20 {
            assert!(
                mark(&mut f, &mut overflowed, (4, 9, seq)),
                "{seq} is new once"
            );
            assert!(
                !mark(&mut f, &mut overflowed, (4, 9, seq)),
                "then a duplicate"
            );
        }
        assert_eq!(overflowed, 20);
        assert_eq!(f.overflow.len(), 10);
    }

    #[test]
    fn streams_past_the_limit_go_to_the_overflow_set() {
        let (mut f, mut overflowed) = (FloodSeen::new(), 0);
        for port in 0..MAX_STREAMS as u16 {
            assert!(mark(&mut f, &mut overflowed, (7, port, 1)));
        }
        assert_eq!((f.windows.len(), overflowed), (MAX_STREAMS, 0));
        let late = (8, 0, 1);
        assert!(mark(&mut f, &mut overflowed, late), "the 257th stream");
        assert!(!mark(&mut f, &mut overflowed, late));
        assert_eq!((f.windows.len(), overflowed), (MAX_STREAMS, 2));
        assert!(f.overflow.contains(&late));
        // The streams that hold a window keep it.
        assert!(!mark(&mut f, &mut overflowed, (7, 0, 1)));
        assert!(mark(&mut f, &mut overflowed, (7, 0, 2)));
        assert_eq!(overflowed, 2);
    }

    #[test]
    fn forged_keys_cost_at_most_the_windows_and_the_overflow_cap() {
        let mut f = FloodSeen::new();
        let mut state = 0x853c_49e6_748f_ea9bu64;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let stream = (state % 10_000) as u32;
            let key = ((stream >> 8) as u16, stream as u16 & 0xff, state >> 20);
            f.insert(key, || {});
        }
        assert_eq!(f.windows.len(), MAX_STREAMS);
        assert!(f
            .windows
            .values()
            .all(|w| w.bits.len() == WINDOW_WORDS && w.bits.capacity() == WINDOW_WORDS));
        assert_eq!(f.overflow.len(), SEEN_CAP);
    }
}
