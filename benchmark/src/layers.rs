//! Per-layer metrics, every one measured from outside the layer: either a
//! benchmark-owned harness times calls into the layer's public functions,
//! or counters the layer already publishes are divided by confirmed
//! operations. Layers are the crates.

use crate::metric::MetricSet;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workload::{nominal_updates, Finished, Plan, Workload};
use bytes::Bytes;
use spire::report::SLA_MS;
use spire_crypto::keys::Signer;
use spire_crypto::{BatchSigner, KeyMaterial, KeyStore, NodeId};
use spire_prime::{
    ByzBehavior, ClientId, ClientOp, DirectNet, Effect, HashChainApp, Input, ModelReplica,
    PrimeConfig, PrimeMsg, Replica, ReplicaId,
};
use spire_scada::{ScadaDirectory, ScadaMaster, ScadaOp};
use spire_sim::{
    Context, LinkConfig, Metrics, Process, ProcessId, Span, Time, WireError, WireReader,
    WireWriter, World,
};
use spire_spines::{
    DaemonBehavior, DaemonConfig, Dissemination, OverlayAddr, OverlayId, OverlayNetwork,
    SpinesPort, Topology,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much work the harnesses do: the full size for a benchmark run, a
/// tenth for `--smoke` (every timed loop then stays under 100 ms).
#[derive(Clone, Copy)]
pub struct Effort {
    /// Wall time each timed loop may take.
    pub per_loop: Duration,
    /// Client operations pushed through the Prime step cluster.
    pub prime_ops: u64,
    /// Ticks (1 ms apart) the Spines, sim and rt harnesses run for.
    pub ticks: u64,
}

impl Effort {
    pub const FULL: Effort = Effort {
        per_loop: Duration::from_millis(150),
        prime_ops: 400,
        ticks: 500,
    };
    pub const SMOKE: Effort = Effort {
        per_loop: Duration::from_millis(15),
        prime_ops: 40,
        ticks: 50,
    };
}

/// Median nanoseconds per call of `f`: batches sized to at least 100 us
/// each, repeated until `budget` is spent.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut batch = 1u32;
    let mut run = |n: u32| {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        t.elapsed()
    };
    while run(batch) < Duration::from_micros(100) && batch < 1 << 20 {
        batch *= 2;
    }
    let mut per_call = Vec::new();
    while per_call.len() < 3 || start.elapsed() < budget {
        per_call.push(run(batch).as_nanos() as f64 / batch as f64);
    }
    median(&per_call).expect("at least three batches")
}

/// Runs every harness and fills in the workload-independent metrics.
pub fn harnesses(m: &mut MetricSet, effort: Effort, spans: &mut Spans) {
    spans.scope("layer:crypto", |_| crypto(m, effort));
    spans.scope("layer:prime", |_| {
        prime_codec(m, effort);
        prime_steps(m, effort);
    });
    spans.scope("layer:spines", |_| spines(m, effort));
    spans.scope("layer:sim", |_| sim(m, effort));
    spans.scope("layer:rt", |_| rt(m, effort));
    spans.scope("layer:scada", |_| scada(m, effort));
}

fn crypto(m: &mut MetricSet, effort: Effort) {
    let material = KeyMaterial::new([3u8; 32]);
    let node = NodeId(7);
    let key = material.signing_key(node);
    let mut store = KeyStore::new();
    store.insert(node, key.verifying_key());
    let signer = Signer::new(key.clone(), false);
    // A vote-sized message: what replicas sign and verify most.
    let msg = [0xabu8; 96];
    let sig = key.sign(&msg);
    let pk = key.verifying_key();
    let t = effort.per_loop;
    m.set(
        "crypto.sign_us",
        time_ns(t, || {
            black_box(key.sign(black_box(&msg)));
        }) / 1e3,
    );
    m.set(
        "crypto.verify_us",
        time_ns(t, || assert!(pk.verify(black_box(&msg), &sig))) / 1e3,
    );
    let digests: Vec<[u8; 32]> = (0..16u8).map(|i| spire_crypto::digest(&[i; 96])).collect();
    let flush = || {
        let mut batcher = BatchSigner::new();
        for d in &digests {
            batcher.push(black_box(*d));
        }
        batcher.flush(&signer).expect("non-empty batch")
    };
    m.set(
        "crypto.batch_sign16_us",
        time_ns(t, || {
            black_box(flush());
        }) / 1e3,
    );
    let attestation = flush().attestation(7);
    m.set(
        "crypto.proof_verify_us",
        time_ns(t, || {
            assert!(attestation.verify(&store, node, black_box(&digests[7]), false));
        }) / 1e3,
    );
    let link_key = material.link_key(NodeId(1), NodeId(2));
    let frame = [0x5au8; 256];
    m.set(
        "crypto.hmac_256b_ns",
        time_ns(t, || {
            black_box(spire_crypto::hmac::hmac_sha256(
                &link_key,
                black_box(&frame),
            ));
        }),
    );
    let block = [0xabu8; 1024];
    m.set(
        "crypto.sha256_1k_ns",
        time_ns(t, || {
            black_box(spire_crypto::digest(black_box(&block)));
        }),
    );
}

/// Mean encode and decode time over one PO-Request (16 ops), one
/// Pre-Prepare (six-row matrix) and one CommitMulti (8 entries).
fn prime_codec(m: &mut MetricSet, effort: Effort) {
    use spire_prime::msg::{AruVector, Matrix, SummaryRow};
    let material = KeyMaterial::new([2u8; 32]);
    let signer = Signer::new(material.signing_key(NodeId(2000)), true);
    let op = ClientOp::signed(ClientId(0), 1, Bytes::from(vec![0u8; 64]), &signer);
    let rows = (0..6)
        .map(|r| SummaryRow::signed(ReplicaId(r), 9, AruVector(vec![17; 6]), &signer))
        .collect();
    let msgs = [
        PrimeMsg::PoRequest {
            origin: ReplicaId(0),
            po_seq: 1,
            ops: vec![op; 16],
            sig: [7; 64],
        },
        PrimeMsg::PrePrepare {
            view: 1,
            seq: 42,
            matrix: Matrix { rows },
            sig: [7; 64],
        },
        PrimeMsg::CommitMulti {
            replica: ReplicaId(3),
            view: 1,
            entries: (0..8).map(|s| (s, [s as u8; 32])).collect(),
            sig: [7; 64],
        },
    ];
    let encoded: Vec<Bytes> = msgs.iter().map(PrimeMsg::encode).collect();
    let t = effort.per_loop;
    let encode = time_ns(t, || {
        for msg in &msgs {
            black_box(black_box(msg).encode());
        }
    });
    let decode = time_ns(t, || {
        for bytes in &encoded {
            black_box(PrimeMsg::decode(black_box(bytes)).expect("own encoding decodes"));
        }
    });
    m.set("prime.codec_encode_ns", encode / msgs.len() as f64);
    m.set("prime.codec_decode_ns", decode / msgs.len() as f64);
}

/// Six `ModelReplica`s over `DirectNet` with a hash-chain application and
/// mock signatures: no overlay, no substrate, no crypto. Client operations
/// arrive at every replica (as the proxies send them) 5 ms apart; frames
/// are delivered in FIFO order 100 us after they were sent; timers fire
/// when due. Only the time inside `ModelReplica::step` is counted.
fn prime_steps(m: &mut MetricSet, effort: Effort) {
    const HOP: Span = Span(100);
    let cfg = PrimeConfig::new(1, 1);
    let n = cfg.n;
    let material = KeyMaterial::new([7u8; 32]);
    let mut store = KeyStore::new();
    let client_node = NodeId(cfg.client_key_base);
    store.insert(
        client_node,
        material.signing_key(client_node).verifying_key(),
    );
    let signers: Vec<Signer> = (0..n)
        .map(|i| {
            let node = NodeId(cfg.replica_key_base + i);
            let key = material.signing_key(node);
            store.insert(node, key.verifying_key());
            Signer::new(key, true)
        })
        .collect();
    let store = Arc::new(store);
    let client_pid = ProcessId(n);
    let mut replicas: Vec<ModelReplica> = (0..n)
        .map(|i| {
            let net = DirectNet {
                replicas: (0..n).map(ProcessId).collect(),
                clients: BTreeMap::from([(0, client_pid)]),
            };
            let replica = Replica::new(
                cfg.clone(),
                ReplicaId(i),
                ByzBehavior::Honest,
                Arc::clone(&store),
                signers[i as usize].clone(),
                Box::new(net),
                Box::new(HashChainApp::new()),
                false,
            );
            ModelReplica::new(replica, ProcessId(i), 0x5eed_0000 + i as u64)
        })
        .collect();

    // The explicit event queue: (due, tie-break) -> (replica, input). A
    // timer's input carries its id so a cancelled one is skipped.
    let mut queue: BTreeMap<(Time, u64), (u32, Input, Option<u64>)> = BTreeMap::new();
    let mut seq = 0u64;
    let mut push = |queue: &mut BTreeMap<_, _>, at: Time, to: u32, input, timer| {
        seq += 1;
        queue.insert((at, seq), (to, input, timer));
    };
    for i in 0..n {
        push(&mut queue, Time::ZERO, i, Input::Start, None);
    }
    let client_signer = Signer::new(material.signing_key(client_node), true);
    for op in 0..effort.prime_ops {
        let payload = Bytes::from(format!("op-{op:060}"));
        let frame = PrimeMsg::Op(ClientOp::signed(
            ClientId(0),
            op + 1,
            payload,
            &client_signer,
        ))
        .encode();
        for i in 0..n {
            let input = Input::Deliver {
                from: client_pid,
                bytes: frame.clone(),
            };
            push(&mut queue, Time(1_000 + op * 5_000), i, input, None);
        }
    }
    let horizon = Time(1_000 + effort.prime_ops * 5_000 + 1_000_000);
    let mut cancelled: HashSet<(u32, u64)> = HashSet::new();
    let mut replies: HashMap<u64, u32> = HashMap::new();
    let (mut steps, mut in_step) = (0u64, Duration::ZERO);
    while let Some(((now, _), (to, input, timer))) = queue.pop_first() {
        if now > horizon {
            break;
        }
        if timer.is_some_and(|id| cancelled.remove(&(to, id))) {
            continue;
        }
        let t = Instant::now();
        let effects = replicas[to as usize].step(now, input);
        in_step += t.elapsed();
        steps += 1;
        for effect in effects {
            match effect {
                Effect::Send { to: dest, bytes } if dest == client_pid => {
                    if let Ok(PrimeMsg::Reply { cseq, .. }) = spire_prime::decode_enclosed(&bytes) {
                        *replies.entry(cseq).or_insert(0) += 1;
                    }
                }
                Effect::Send { to: dest, bytes } => {
                    let input = Input::Deliver {
                        from: ProcessId(to),
                        bytes,
                    };
                    push(&mut queue, now + HOP, dest.0, input, None);
                }
                Effect::SetTimer { delay, tag, id } => {
                    push(
                        &mut queue,
                        now + delay,
                        to,
                        Input::Timer { tag },
                        Some(id.raw()),
                    );
                }
                Effect::CancelTimer { id } => {
                    cancelled.insert((to, id.raw()));
                }
            }
        }
    }
    let confirmed = replies.values().filter(|&&r| r > cfg.f).count();
    assert!(
        confirmed as u64 * 10 >= effort.prime_ops * 9,
        "prime step cluster confirmed only {confirmed} of {} ops",
        effort.prime_ops
    );
    m.set_sampled(
        "prime.step_us_per_op",
        Some(in_step.as_secs_f64() * 1e6 / confirmed as f64),
        confirmed,
    );
    m.set("prime.steps_per_op", steps as f64 / confirmed as f64);
}

const TICK: Span = Span(1_000);
const TIMER_TICK: u64 = 1;

/// Sends `per_tick` overlay messages to `peer` on each 1 ms tick.
struct Talker {
    port: SpinesPort,
    peer: OverlayAddr,
    start_after: Span,
    ticks_left: u64,
    per_tick: u32,
}

impl Process for Talker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.port.attach(ctx);
        ctx.set_timer(self.start_after, TIMER_TICK);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        if self.ticks_left == 0 {
            return;
        }
        self.ticks_left -= 1;
        for _ in 0..self.per_tick {
            let payload = Bytes::from(vec![0x42u8; 256]);
            self.port
                .send(ctx, self.peer, Dissemination::Flood, true, payload);
        }
        ctx.set_timer(TICK, TIMER_TICK);
    }
}

/// Counts the overlay messages delivered to it.
struct Listener {
    port: SpinesPort,
}

impl Process for Listener {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.port.attach(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
        if SpinesPort::decode_deliver(bytes).is_some() {
            ctx.count("bench.overlay_delivered", 1);
        }
    }
}

/// A Spines-only world: the deployment's four-site internal overlay (same
/// edge delays), one talker behind site 0 and one listener behind site 3,
/// flooding reliably as replica traffic does. The world runs on one thread,
/// so the wall time of the loaded stretch is the overlay's CPU time.
fn spines(m: &mut MetricSet, effort: Effort) {
    let mut world = World::new(1);
    let material = KeyMaterial::new([9u8; 32]);
    let keystore = Arc::new(KeyStore::for_nodes(&material, 4));
    // Sites 0 and 1 are control centres, 2 and 3 data centres.
    let delay_ms = |a: OverlayId, b: OverlayId| match (a.0 < 2, b.0 < 2) {
        (true, true) => 4,
        (false, false) => 15,
        _ => 10,
    };
    let mut topology = Topology::new();
    for i in 0..4 {
        topology.add_node(OverlayId(i));
    }
    for i in 0..4 {
        for j in i + 1..4 {
            topology.add_edge(
                OverlayId(i),
                OverlayId(j),
                delay_ms(OverlayId(i), OverlayId(j)),
            );
        }
    }
    let overlay = OverlayNetwork::build(
        &mut world,
        &topology,
        DaemonConfig::default(),
        &material,
        &keystore,
        0,
        |a, b| LinkConfig::wan(delay_ms(a, b) as u64),
        |_| DaemonBehavior::Honest,
    );
    let talker_addr = OverlayAddr {
        node: OverlayId(0),
        port: 100,
    };
    let listener_addr = OverlayAddr {
        node: OverlayId(3),
        port: 101,
    };
    let settle = Span::secs(1);
    let talker = world.add_process(
        "talker",
        Box::new(Talker {
            port: SpinesPort::new(overlay.daemon_pid(talker_addr.node), talker_addr),
            peer: listener_addr,
            start_after: settle,
            ticks_left: effort.ticks,
            per_tick: 4,
        }),
    );
    let listener = world.add_process(
        "listener",
        Box::new(Listener {
            port: SpinesPort::new(overlay.daemon_pid(listener_addr.node), listener_addr),
        }),
    );
    overlay.wire_client(&mut world, talker_addr.node, talker);
    overlay.wire_client(&mut world, listener_addr.node, listener);
    world.run_for(settle);
    let frames_before = world.metrics().counter("sim.delivered");
    let t = Instant::now();
    world.run_for(Span(effort.ticks * TICK.0 + 500_000));
    let loaded = t.elapsed();
    let delivered = world.metrics().counter("bench.overlay_delivered");
    assert!(delivered > 0, "the overlay delivered nothing");
    let frames = world.metrics().counter("sim.delivered") - frames_before;
    m.set_sampled(
        "spines.cpu_us_per_msg",
        Some(loaded.as_secs_f64() * 1e6 / delivered as f64),
        delivered as usize,
    );
    m.set("spines.frames_per_msg", frames as f64 / delivered as f64);

    use spire_spines::msg::{DataMsg, OverlayMsg};
    let data = OverlayMsg::Data {
        frame_id: 77,
        msg: DataMsg {
            src: OverlayId(0),
            src_port: 100,
            dst: OverlayId(3),
            dst_port: 101,
            seq: 5,
            mode: Dissemination::Flood,
            ttl: 32,
            route: Vec::new(),
            route_idx: 0,
            reliable: true,
            payload: Bytes::from(vec![0x42u8; 256]),
        },
    };
    m.set(
        "spines.codec_ns",
        time_ns(effort.per_loop, || {
            let bytes = black_box(&data).encode();
            black_box(OverlayMsg::decode(&bytes).expect("own encoding decodes"));
        }),
    );
}

/// Echoes every frame back to its sender; `serve` frames start the rally.
struct PingPong {
    peer: ProcessId,
    serve: u32,
}

impl Process for PingPong {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.serve {
            ctx.send(self.peer, Bytes::from_static(b"ping"));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, bytes: &Bytes) {
        ctx.send(from, bytes.clone());
    }
}

/// An instant, lossless link, so a harness measures the substrate alone.
fn instant_link() -> LinkConfig {
    LinkConfig {
        latency: Span::ZERO,
        ..LinkConfig::local()
    }
}

fn ping_pong_world(serve: u32, link: LinkConfig) -> World {
    let mut world = World::new(1);
    let a = world.add_process(
        "a",
        Box::new(PingPong {
            peer: ProcessId(1),
            serve,
        }),
    );
    let b = world.add_process(
        "b",
        Box::new(PingPong {
            peer: ProcessId(0),
            serve: 0,
        }),
    );
    world.add_link(a, b, link);
    world
}

fn sim(m: &mut MetricSet, effort: Effort) {
    // One frame bouncing over a 50 us link: every event is one delivery.
    let mut world = ping_pong_world(1, LinkConfig::local());
    let t = Instant::now();
    world.run_for(Span(effort.ticks * 50_000));
    let events = world.metrics().counter("sim.delivered");
    m.set_sampled(
        "sim.events_per_s",
        Some(events as f64 / t.elapsed().as_secs_f64()),
        events as usize,
    );
    let payload = [0x11u8; 64];
    m.set(
        "sim.wire_ns",
        time_ns(effort.per_loop, || {
            let mut w = WireWriter::with_capacity(96);
            w.u8(3).u32(7).u64(99).bytes(black_box(&payload));
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            let read = (|| Ok::<_, WireError>((r.u8()?, r.u32()?, r.u64()?, r.bytes()?.len())))();
            black_box(read.expect("own encoding decodes"));
        }),
    );
    let mut metrics = Metrics::new();
    metrics.count("prime.sign_ops", 1);
    m.set(
        "sim.metrics_count_ns",
        time_ns(effort.per_loop, || {
            metrics.count(black_box("prime.sign_ops"), 1)
        }),
    );
}

const TAG_PING: u64 = 1;
const TAG_LATE: u64 = 2;

/// Every millisecond, sends its clock reading to `peer`; separately keeps a
/// 1 ms timer going and records how late each firing was.
struct Prober {
    peer: ProcessId,
    due: Time,
}

impl Process for Prober {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(TICK, TAG_PING);
        self.due = ctx.now() + TICK;
        ctx.set_timer(TICK, TAG_LATE);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _bytes: &Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == TAG_PING {
            ctx.send(self.peer, Bytes::from(ctx.now().0.to_le_bytes().to_vec()));
            ctx.set_timer(TICK, TAG_PING);
        } else {
            ctx.record("bench.timer_late_us", ctx.now().since(self.due).0 as f64);
            self.due = ctx.now() + TICK;
            ctx.set_timer(TICK, TAG_LATE);
        }
    }
}

/// Records how long each probe took to arrive.
struct ProbeSink;

impl Process for ProbeSink {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, bytes: &Bytes) {
        if let Ok(sent) = <[u8; 8]>::try_from(&bytes[..]) {
            let sent = Time(u64::from_le_bytes(sent));
            ctx.record("bench.hop_us", ctx.now().since(sent).0 as f64);
        }
    }
}

/// Two benchmark actors on two rt workers (actor `i` lives on worker
/// `i % threads`), joined by an instant link: what a frame pays to cross
/// workers, how late 1 ms timers fire, and how many frames per second two
/// workers can bounce between them.
fn rt(m: &mut MetricSet, effort: Effort) {
    let cfg = spire_rt::RtConfig::with_threads(2);
    let mut world = World::new(1);
    let prober = world.add_process(
        "prober",
        Box::new(Prober {
            peer: ProcessId(1),
            due: Time::ZERO,
        }),
    );
    let sink = world.add_process("sink", Box::new(ProbeSink));
    world.add_link(prober, sink, instant_link());
    let run = spire_rt::Runtime::from_fabric(world.into_fabric(), cfg)
        .run_for(Span(effort.ticks * TICK.0));
    for (series, p50, p99) in [
        ("bench.hop_us", "rt.hop_p50_us", "rt.hop_p99_us"),
        (
            "bench.timer_late_us",
            "rt.timer_late_p50_us",
            "rt.timer_late_p99_us",
        ),
    ] {
        let samples = run.metrics.values(series);
        m.set_sampled(p50, percentile(&samples, 50.0), samples.len());
        m.set_sampled(p99, percentile(&samples, 99.0), samples.len());
    }

    let world = ping_pong_world(256, instant_link());
    let run = spire_rt::Runtime::from_fabric(world.into_fabric(), cfg)
        .run_for(Span(effort.ticks * TICK.0));
    let frames = run.metrics.counter("rt.delivered");
    m.set_sampled(
        "rt.frames_per_s",
        Some(frames as f64 / run.elapsed.as_secs_f64()),
        frames as usize,
    );
}

fn scada(m: &mut MetricSet, effort: Effort) {
    use spire_prime::Application;
    let mut master = ScadaMaster::new(ScadaDirectory::default());
    let update = ScadaOp::DeviceUpdate {
        rtu: 1,
        ts_us: 42,
        registers: (0..4).map(|i| (i, i * 100)).collect(),
        breakers: vec![(0, true), (1, false)],
    };
    let encoded = update.encode();
    m.set(
        "scada.apply_ns",
        time_ns(effort.per_loop, || {
            black_box(master.execute(black_box(&encoded)));
        }),
    );
    m.set(
        "scada.op_codec_ns",
        time_ns(effort.per_loop, || {
            let bytes = black_box(&update).encode();
            black_box(ScadaOp::decode(&bytes).expect("own encoding decodes"));
        }),
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fills in the metrics that come from one workload run: the layers'
/// published counters divided by confirmed operations, `Report` fields, and
/// — when the run was traced — the span histograms. Needs the crypto unit
/// costs from [`harnesses`] to be in `m` already.
pub fn from_run(m: &mut MetricSet, w: &Workload, fin: &Finished, plan: &Plan) {
    let r = &fin.report;
    let c = |name: &str| fin.metrics.counter(name) as f64;
    let ops = fin.confirmed_ops() as f64;
    let per_op = |count: f64| ratio(count, ops);

    let (signs, verifies, macs) = (
        r.auth.sign_ops as f64,
        r.auth.verify_ops as f64,
        r.auth.mac_ops as f64,
    );
    m.set("crypto.signs_per_op", per_op(signs));
    m.set("crypto.verifies_per_op", per_op(verifies));
    m.set("crypto.macs_per_op", per_op(macs));
    m.set(
        "crypto.verify_cache_hit_ratio",
        ratio(
            r.auth.verify_cache_hits as f64,
            r.auth.verify_cache_hits as f64 + verifies,
        ),
    );
    m.set("crypto.batch_amortization", r.auth.amortization_factor());
    // Counts times unit costs. Mock signatures cost (almost) nothing, so on
    // a mock workload only the link MACs remain.
    let unit = |name: &str| m.get(name).expect("harnesses ran first");
    let sig_us = if w.mock_sigs {
        0.0
    } else {
        signs * unit("crypto.sign_us") + verifies * unit("crypto.proof_verify_us")
    };
    let mac_us = macs * unit("crypto.hmac_256b_ns") / 1e3;
    m.set("crypto.est_cpu_ms_per_op", per_op((sig_us + mac_us) / 1e3));

    m.set(
        "prime.ops_per_preprepare",
        ratio(ops, c("prime.preprepares_sent")),
    );
    m.set(
        "prime.link_frames_per_batch",
        ratio(c("prime.link_batched_frames"), c("prime.link_batches")),
    );
    m.set("prime.po_retries", c("prime.po_retries"));
    m.set("prime.view_changes", r.view_changes as f64);
    let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
    m.set("prime.recovery_ms", or_zero(r.recovery.duration_p50_ms));
    m.set("prime.retained_po", or_zero(r.recovery.retained_po));

    let frames = c("spines.link_batched_frames");
    m.set("spines.frames_per_op", per_op(frames));
    m.set(
        "spines.frames_per_batch",
        ratio(frames, c("spines.link_batches")),
    );
    m.set("spines.retx_ratio", ratio(c("spines.retx"), frames));
    let hops = fin.metrics.histogram("overlay.hop_us");
    let hop = |pct: f64| hops.map_or(0.0, |h| h.percentile(pct));
    let hop_count = hops.map_or(0, |h| h.count() as usize);
    m.set_sampled("spines.hop_p50_us", Some(hop(50.0)), hop_count);
    m.set_sampled("spines.hop_p99_us", Some(hop(99.0)), hop_count);

    m.set("sim.msgs_per_op", per_op(c("sim.delivered")));
    m.set(
        "rt.busy_frac",
        ratio(c("rt.busy_us"), c("rt.busy_us") + c("rt.idle_us")),
    );
    m.set("rt.msgs_per_op", per_op(c("rt.delivered")));
    m.set(
        "rt.frames_per_envelope",
        ratio(c("rt.coalesced_frames"), c("rt.envelopes")),
    );
    m.set("rt.drops", r.chaos.mailbox_dropped_total() as f64);
    m.set("rt.mailbox_retries", r.chaos.mailbox_retries as f64);

    let nominal = nominal_updates(w, plan) as f64;
    m.set(
        "scada.gen_late_frac",
        (1.0 - ratio(r.updates_sent as f64, nominal)).max(0.0),
    );
    m.set(
        "scada.cmd_actuated_ratio",
        ratio(r.commands_actuated as f64, r.commands_issued as f64),
    );

    let window = fin.window_update_ms(plan);
    m.set_sampled(
        "core.confirm_p99_ms",
        percentile(&window, 99.0),
        window.len(),
    );
    let within = r
        .update_latencies_ms
        .iter()
        .filter(|l| **l <= SLA_MS)
        .count();
    m.set(
        "core.sla_fraction",
        ratio(within as f64, r.updates_sent as f64),
    );
    m.set("core.delivery_ratio", ratio(ops, fin.attempted() as f64));
    m.set("core.report_ms", fin.report_ms);

    // The PR 1 spans exist on sim only; rt's `trace`/`span_mark` are
    // no-ops, so there `phase.samples` is 0 and the phases read 0.
    let phase = |metric: &str| r.phase_breakdown.iter().find(|p| p.metric == metric);
    let total = phase("span.total_us");
    m.set("phase.samples", total.map_or(0.0, |p| p.count as f64));
    let mut sum_p50 = 0.0;
    for (metric, name) in [
        ("span.overlay_in_us", "overlay_in"),
        ("span.preorder_us", "preorder"),
        ("span.order_us", "order"),
        ("span.execute_us", "execute"),
        ("span.confirm_us", "reply"),
    ] {
        let (p50, p99) = phase(metric).map_or((0.0, 0.0), |p| (p.p50_ms, p.p99_ms));
        sum_p50 += p50;
        m.set(&format!("phase.{name}_p50_ms"), p50);
        m.set(&format!("phase.{name}_p99_ms"), p99);
    }
    m.set(
        "phase.sum_over_total",
        ratio(sum_p50, total.map_or(0.0, |p| p.p50_ms)),
    );
}
