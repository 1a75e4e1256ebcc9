//! `serve_churn`: one pane server (`vserve::Server`, cache + plan +
//! incremental) behind one `WirePump`, driven over binary framing on
//! in-process byte pairs by two connections:
//!
//! * a long-lived **viewer** that re-requests its 21 panes after every
//!   stop and acks each delta it applies;
//! * a **churn** connection: each client handshakes, plots a seeded
//!   subset of 3–8 figures, and disconnects. The churn stream walks
//!   seeded permutations of the 21 figures, cut into clients, so every
//!   21 churn requests plot each figure once.
//!
//! The load is a closed loop with one request in flight at a time, in a
//! fixed seeded order: a stop opens every round of 63 requests, one
//! viewer request then two churn requests, 21 times. Because the engine
//! sees the same request order on every run of a seed, every
//! engine-side count (walks, fulls, deltas, packets, virtual time)
//! repeats exactly. One op is one
//! `vplot_request`: from send until the reply is decoded and applied to
//! that client's `Replica`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use ksim::workload::{build, WorkloadConfig, WorkloadRoots};
use vbridge::{CacheConfig, LatencyProfile};
use vgraph::Graph;
use visualinux::figures::{self, Figure};
use visualinux::proto::{VCommand, VResponse};
use visualinux::vpanels::PaneId;
use visualinux::Session;
use vserve::{
    byte_pair, PumpHandle, Replica, ReplicaEvent, ServeConfig, ServeStats, Server, ServerHandle,
    SingleSession, WireClient, WireConfig, WirePump, WireStats,
};
use vtrace::SpanKind;

use crate::measure::{
    digest, first_drift, image, ms, ns_since, peak_rss_mb, quarter_rates, ratio, sub_seed, timed,
    CpuClock, OpTimes, Rng,
};
use crate::report::Outcome;
use crate::Args;

/// Plot requests per round, after one stop: 21 viewer requests, each
/// followed by two churn requests.
const ROUND: u64 = 63;

/// Ops in each determinism window (two rounds).
const WINDOW: u64 = 2 * ROUND;

/// Requests in each life of the timed run (8 rounds): a fresh engine
/// and pump serve the viewer and the churn stream until the life ends.
const LIFE: u64 = 16 * ROUND;

/// Sub-runs (image seed plus schedule seed) the virtual clock and the
/// reply size are averaged over, and the timed run's lives take turns
/// on: one image's post-stop packet bill depends on where the ticked
/// fields fall in the cache's blocks.
const IMAGES: u64 = 4;

/// What the engine thread reports once it has shut down.
struct EngineReport {
    stats: ServeStats,
    /// Panes the engine's session holds.
    panes: u64,
    /// `serve:vplot_request` spans still held by the tracer (the last
    /// few hundred), and the virtual time their plan and interp stages
    /// took.
    req_spans: u64,
    plan_vns: u64,
    interp_vns: u64,
}

impl EngineReport {
    fn collect(server: &Server) -> EngineReport {
        let session = server.session();
        let mut panes = 0;
        while session.graph(PaneId(panes)).is_ok() {
            panes += 1;
        }
        let mut r = EngineReport {
            stats: server.stats(),
            panes: panes as u64,
            req_spans: 0,
            plan_vns: 0,
            interp_vns: 0,
        };
        let spans = session
            .tracer()
            .map(|t| t.take_finished())
            .unwrap_or_default();
        for s in spans.iter().filter(|s| s.name == "serve:vplot_request") {
            r.req_spans += 1;
            for c in s.children.iter().filter(|c| c.kind == SpanKind::Extract) {
                for g in &c.children {
                    match g.kind {
                        SpanKind::Plan => r.plan_vns += g.duration_ns(),
                        SpanKind::Interp => r.interp_vns += g.duration_ns(),
                        _ => {}
                    }
                }
            }
        }
        r
    }

    /// The serving counters that must repeat exactly for a seed.
    fn det(&self) -> Vec<u64> {
        let s = &self.stats;
        vec![
            s.requests,
            s.plot_requests,
            s.stops,
            s.extractions,
            s.walks,
            s.coalesced,
            s.fulls_sent,
            s.deltas_sent,
            s.full_bytes_sent,
            s.delta_bytes_sent,
            s.delta_bytes_saved,
            s.acks,
            s.resyncs,
            s.errors,
            s.walk_packets,
            s.walk_bytes,
            s.walk_virtual_ns,
            s.walk_cache_hits,
            s.walk_faults,
            self.panes,
        ]
    }
}

/// The wire counters that must repeat exactly for a seed.
fn wire_det(w: &WireStats) -> Vec<u64> {
    vec![
        w.accepted,
        w.hello_binary,
        w.frames_in,
        w.frames_out,
        w.bytes_in,
        w.bytes_out,
        w.decode_errors,
    ]
}

/// A running engine and pump.
struct Rig {
    handle: ServerHandle,
    pump: PumpHandle,
    engine: JoinHandle<Option<EngineReport>>,
    pump_thread: JoinHandle<WireStats>,
    /// CPU time of the load generator, the engine and the pump.
    clock: CpuClock,
    roots: Arc<WorkloadRoots>,
    /// Ticks applied by the engine and their CPU time (traced runs).
    ticks: Arc<[AtomicU64; 2]>,
    stops: u64,
    traced: bool,
}

impl Rig {
    /// Build the image on the engine thread, attach, and start the
    /// engine and the pump. Returns the rig and the image build time.
    fn start(cfg: &WorkloadConfig, traced: bool) -> Result<(Rig, u64), String> {
        let (tx, rx) = mpsc::channel();
        let cfg = cfg.clone();
        let engine = thread::Builder::new()
            .name("engine".into())
            .spawn(move || {
                let cpu = CpuClock::THREAD;
                let t = cpu.now();
                let workload = build(&cfg);
                let build_ns = cpu.since(t);
                let mut builder = Session::builder(workload)
                    .profile(LatencyProfile::kgdb_rpi400())
                    .cache(CacheConfig::default())
                    .plan()
                    .incremental();
                if traced {
                    builder = builder.tracing();
                }
                let session = match builder.attach() {
                    Ok(s) => s,
                    Err(e) => {
                        let _ = tx.send(Err(format!("attach: {e}")));
                        return None;
                    }
                };
                let roots = Arc::new(session.roots.clone());
                let mut server = Server::new(
                    session,
                    ServeConfig {
                        exit_when_idle: false,
                        ..ServeConfig::default()
                    },
                );
                let _ = tx.send(Ok((server.handle(), roots, build_ns)));
                server.run();
                Some(EngineReport::collect(&server))
            })
            .map_err(|e| format!("spawn engine: {e}"))?;
        let (handle, roots, build_ns) = rx
            .recv()
            .map_err(|_| "engine thread died during set-up".to_string())??;
        let pump = WirePump::new(
            Box::new(SingleSession::new(handle.clone())),
            WireConfig::default(),
        );
        let pump_handle = pump.handle();
        let pump_thread = thread::spawn(move || pump.run());
        let clock = CpuClock::THREAD.with(&engine)?.with(&pump_thread)?;
        Ok((
            Rig {
                handle,
                pump: pump_handle,
                engine,
                pump_thread,
                clock,
                roots,
                ticks: Arc::new([AtomicU64::new(0), AtomicU64::new(0)]),
                stops: 0,
                traced,
            },
            build_ns,
        ))
    }

    /// Queue the next stop: the engine applies one `ksim::tick` strictly
    /// before every request sent after this call.
    fn stop(&mut self) -> Result<(), String> {
        self.stops += 1;
        let step = self.stops;
        let roots = Arc::clone(&self.roots);
        let ticks = Arc::clone(&self.ticks);
        let traced = self.traced;
        self.handle
            .stop_event(move |img| {
                let cpu = CpuClock::THREAD;
                let t = traced.then(|| cpu.now());
                ksim::tick::tick(img, &roots, step);
                if let Some(t) = t {
                    ticks[0].fetch_add(1, Ordering::Relaxed);
                    ticks[1].fetch_add(cpu.since(t), Ordering::Relaxed);
                }
            })
            .map_err(|e| format!("stop {step}: {e}"))
    }

    /// Close every connection, shut the engine and the pump down, and
    /// collect their counters.
    fn shutdown(self, load: Load) -> Result<(EngineReport, WireStats), String> {
        drop(load);
        self.handle.shutdown();
        let engine = self
            .engine
            .join()
            .map_err(|_| "engine thread panicked")?
            .ok_or("engine never attached")?;
        self.pump.shutdown();
        let wire = self
            .pump_thread
            .join()
            .map_err(|_| "pump thread panicked")?;
        Ok((engine, wire))
    }
}

/// One wire client and its replica.
struct Client {
    wire: WireClient,
    replica: Replica,
}

fn connect(pump: &PumpHandle) -> Result<Client, String> {
    let (io, server_io) = byte_pair(64);
    pump.add(Box::new(server_io))
        .map_err(|e| format!("pump add: {e}"))?;
    let wire = WireClient::binary(Box::new(io)).map_err(|e| format!("handshake: {e}"))?;
    Ok(Client {
        wire,
        replica: Replica::new(),
    })
}

/// One plot reply as the client saw it.
#[derive(Default)]
struct Reply {
    full: bool,
    bytes: u64,
    send_ns: u64,
    wait_ns: u64,
    apply_ns: u64,
}

/// Send one `vplot_request` and apply its reply to the replica; when
/// `traced`, time each step on `clock`.
fn request(c: &mut Client, source: &str, clock: &CpuClock, traced: bool) -> Result<Reply, String> {
    let mut r = Reply::default();
    let cmd = VCommand::VplotRequest {
        viewcl: source.to_string(),
    };
    timed(clock, traced, &mut r.send_ns, || c.wire.send(&cmd)).map_err(|e| format!("send: {e}"))?;
    let line = timed(clock, traced, &mut r.wait_ns, || c.wire.recv())
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("server closed the stream")?;
    r.bytes = line.len() as u64;
    let event = timed(clock, traced, &mut r.apply_ns, || {
        c.replica.apply_line(&line)
    })
    .map_err(|e| format!("apply: {e}"))?;
    match event {
        ReplicaEvent::Full { source: s } if s == source => r.full = true,
        ReplicaEvent::Delta { source: s, .. } if s == source => r.full = false,
        ReplicaEvent::Response(resp) => return Err(format!("plot answered {resp:?}")),
        _ => return Err("reply names another plot".into()),
    }
    Ok(r)
}

/// Acknowledge the replica's state of `source`.
fn ack(c: &mut Client, source: &str) -> Result<(), String> {
    let cmd = c.replica.ack(source).ok_or("nothing to ack")?;
    c.wire.send(&cmd).map_err(|e| format!("ack send: {e}"))?;
    let line = c
        .wire
        .recv()
        .map_err(|e| format!("ack recv: {e}"))?
        .ok_or("server closed the stream")?;
    match VResponse::from_json(&line) {
        Ok(VResponse::Ok { .. }) => Ok(()),
        _ => Err(format!("ack answered {line}")),
    }
}

/// A churn client mid-life and the plots it has left.
struct Churner {
    client: Client,
    left: usize,
}

/// The load generator: the viewer, the current churn client, and the
/// position in the seeded schedule.
struct Load {
    seed: u64,
    traced: bool,
    viewer: Client,
    churn: Option<Churner>,
    churn_clients: u64,
    churn_ops: u64,
    ops: u64,
}

/// One op as recorded by the load generator. Times are on the rig's
/// CPU clock unless named wall.
struct OpRec {
    /// Send until applied, including the stop queued just before it.
    op_ns: u64,
    /// The same on the wall clock.
    wall_ns: u64,
    /// System time spent around the op: handshake, ack, disconnect.
    extra_ns: u64,
    handshake_ns: Option<u64>,
    viewer: bool,
    fig: usize,
    /// The stop queued before this op, if any.
    stop: Option<u64>,
    reply: Reply,
    boxes: u64,
}

impl OpRec {
    fn det(&self) -> Vec<u64> {
        vec![
            self.viewer as u64,
            self.fig as u64,
            self.stop.unwrap_or(0),
            self.reply.full as u64,
            self.reply.bytes,
            self.boxes,
        ]
    }

    fn sys_ns(&self) -> u64 {
        self.op_ns + self.extra_ns
    }
}

impl Load {
    /// Run the next op of the schedule.
    fn step(&mut self, rig: &mut Rig, figs: &[Figure]) -> Result<(OpRec, &Graph), String> {
        let i = self.ops;
        self.ops += 1;
        let round = i / ROUND + 1;
        let slot = i % ROUND;
        let viewer = slot.is_multiple_of(3);
        let n = figs.len() as u64;
        let mut extra_ns = 0;
        let mut handshake_ns = None;
        let fig = if viewer {
            Rng::new(self.seed, (3 << 32) | round).permutation(figs.len())[(slot / 3) as usize]
        } else {
            if self.churn.is_none() {
                let t = rig.clock.now();
                let client = connect(&rig.pump)?;
                let h = rig.clock.since(t);
                extra_ns += h;
                handshake_ns = Some(h);
                let left = 3 + Rng::new(self.seed, (5 << 32) | self.churn_clients).below(6);
                self.churn_clients += 1;
                self.churn = Some(Churner { client, left });
            }
            // The next figure of the churn stream; a client never spans
            // two permutations, so it never plots a figure twice.
            let c = self.churn_ops;
            self.churn_ops += 1;
            let ch = self.churn.as_mut().expect("churn client connected above");
            ch.left = if self.churn_ops.is_multiple_of(n) {
                0
            } else {
                ch.left - 1
            };
            Rng::new(self.seed, (4 << 32) | (c / n)).permutation(figs.len())[(c % n) as usize]
        };
        let source = figs[fig].viewcl;

        let (t_wall, t_op) = (Instant::now(), rig.clock.now());
        let stop = if slot == 0 {
            rig.stop()?;
            Some(round)
        } else {
            None
        };
        let client = match (viewer, self.churn.as_mut()) {
            (false, Some(ch)) => &mut ch.client,
            _ => &mut self.viewer,
        };
        let reply = request(client, source, &rig.clock, self.traced)?;
        let op_ns = rig.clock.since(t_op);
        let wall_ns = ns_since(t_wall);

        let t = rig.clock.now();
        if viewer && !reply.full {
            ack(&mut self.viewer, source)?;
        }
        extra_ns += rig.clock.since(t);
        let client = if viewer {
            &self.viewer
        } else {
            &self.churn.as_ref().expect("churn client").client
        };
        let graph = client
            .replica
            .graph(source)
            .ok_or("the replica holds no graph for the plot it just applied")?;
        Ok((
            OpRec {
                op_ns,
                wall_ns,
                extra_ns,
                handshake_ns,
                viewer,
                fig,
                stop,
                boxes: graph.len() as u64,
                reply,
            },
            graph,
        ))
    }

    /// Disconnect the churn client once its subset is plotted; returns
    /// the CPU time it took on `clock`.
    fn retire(&mut self, clock: &CpuClock) -> u64 {
        let t = clock.now();
        if self.churn.as_ref().is_some_and(|ch| ch.left == 0) {
            self.churn = None;
        }
        clock.since(t)
    }
}

/// Set up a rig: start engine and pump, connect the viewer and plot its
/// 21 initial panes. Returns the set-up time and the image build time,
/// both on the CPU clock.
fn setup(
    cfg: &WorkloadConfig,
    figs: &[Figure],
    seed: u64,
    traced: bool,
) -> Result<(Rig, Load, u64, u64), String> {
    // The engine's and the pump's clocks start at zero with their
    // threads, so the rig's clock less this thread's reading here is the
    // whole set-up.
    let t0 = CpuClock::THREAD.now();
    let (rig, build_ns) = Rig::start(cfg, traced)?;
    let mut viewer = connect(&rig.pump)?;
    for f in figs {
        let r = request(&mut viewer, f.viewcl, &rig.clock, false)
            .map_err(|e| format!("initial pane {}: {e}", f.id))?;
        if !r.full {
            return Err(format!("initial pane {} arrived as a delta", f.id));
        }
    }
    let setup_ns = rig.clock.since(t0);
    let load = Load {
        seed,
        traced,
        viewer,
        churn: None,
        churn_clients: 0,
        churn_ops: 0,
        ops: 0,
    };
    Ok((rig, load, setup_ns, build_ns))
}

/// The plain reference session (no cache, no plan, no incremental
/// mode) on the same image, taken through the same stops.
struct Oracle {
    session: Session,
    roots: WorkloadRoots,
    stops: u64,
    /// Graph JSON digest per figure at the current stop.
    memo: HashMap<usize, u64>,
}

impl Oracle {
    fn new(cfg: &WorkloadConfig) -> Result<Oracle, String> {
        let session = Session::builder(build(cfg))
            .profile(LatencyProfile::kgdb_rpi400())
            .attach()
            .map_err(|e| format!("oracle attach: {e}"))?;
        let roots = session.roots.clone();
        Ok(Oracle {
            session,
            roots,
            stops: 0,
            memo: HashMap::new(),
        })
    }

    fn stop(&mut self) -> Result<(), String> {
        self.stops += 1;
        let (step, roots) = (self.stops, &self.roots);
        self.memo.clear();
        self.session
            .stop_event(|img| {
                ksim::tick::tick(img, roots, step);
            })
            .map_err(|e| format!("oracle stop {step}: {e}"))
    }

    /// The replica's graph JSON must equal the plain session's, byte for
    /// byte (compared by digest).
    fn check(&mut self, fig: &Figure, idx: usize, got: u64) -> Result<(), String> {
        if !self.memo.contains_key(&idx) {
            let (g, _) = self
                .session
                .extract(fig.viewcl)
                .map_err(|e| format!("{}: oracle extract: {e}", fig.id))?;
            self.memo.insert(idx, digest(&g.to_json()));
        }
        if self.memo[&idx] != got {
            return Err(format!(
                "{}: replica graph differs from the plain session",
                fig.id
            ));
        }
        Ok(())
    }
}

/// One determinism window: a fresh set-up of sub-run `k` running the
/// first `WINDOW` ops, then shut down so its engine and wire counters
/// can be read.
struct Window {
    setup_ns: u64,
    build_ns: u64,
    det: Vec<Vec<u64>>,
    sys_ns: Vec<u64>,
    reply_bytes: u64,
    boxes: u64,
    engine: EngineReport,
    wire: WireStats,
}

fn window(figs: &[Figure], seed: u64, k: u64, traced: bool) -> Result<Window, String> {
    let (mut rig, mut load, setup_ns, build_ns) =
        setup(&image(seed, k), figs, sub_seed(seed, k), traced)?;
    let (mut det, mut sys_ns) = (Vec::new(), Vec::new());
    let (mut reply_bytes, mut boxes) = (0, 0);
    for _ in 0..WINDOW {
        let (rec, _) = load.step(&mut rig, figs)?;
        let retire_ns = load.retire(&rig.clock);
        det.push(rec.det());
        sys_ns.push(rec.sys_ns() + retire_ns);
        reply_bytes += rec.reply.bytes;
        boxes += rec.boxes;
    }
    let (engine, wire) = rig.shutdown(load)?;
    Ok(Window {
        setup_ns,
        build_ns,
        det,
        sys_ns,
        reply_bytes,
        boxes,
        engine,
        wire,
    })
}

/// What a life keeps of one reply (or initial pane) for the checks.
#[derive(PartialEq)]
struct LifeOp {
    det: Vec<u64>,
    /// Whether a stop was queued before the request.
    stop: bool,
    fig: usize,
    /// Digest of the replica's graph JSON after the reply.
    graph: u64,
}

/// Per-layer sums over the timed run.
#[derive(Default)]
struct LayerAcc {
    ops: u64,
    send_ns: u64,
    wait_ns: u64,
    apply_ns: u64,
    unattributed_ns: u64,
    parse_ns: u64,
    handshakes: Vec<u64>,
}

/// Run `serve_churn`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let figs = figures::all();
    let mut out = Outcome::new("serve_churn");
    let started = Instant::now();

    // Determinism: two fresh set-ups of sub-run 0 must agree on every
    // client-side record and every engine and wire count. The virtual
    // clock and reply size average the windows of every sub-run.
    let ref2 = window(&figs, args.seed, 0, args.trace)?;
    let windows = (0..IMAGES)
        .map(|k| window(&figs, args.seed, k, false))
        .collect::<Result<Vec<_>, _>>()?;
    let ref1 = &windows[0];
    let same = "determinism (two set-ups, same seed)";
    if let Some(d) = first_drift(same, &ref1.det, &ref2.det) {
        out.fail(d);
    }
    if ref1.engine.det() != ref2.engine.det() {
        out.fail(format!(
            "{same}: engine counters {:?} vs {:?}",
            ref1.engine.det(),
            ref2.engine.det()
        ));
    }
    if wire_det(&ref1.wire) != wire_det(&ref2.wire) {
        out.fail(format!(
            "{same}: wire counters {:?} vs {:?}",
            wire_det(&ref1.wire),
            wire_det(&ref2.wire)
        ));
    }

    // The timed run, life after life until the ops have taken the
    // budget of CPU time and every image has had a life. Life `n`
    // serves sub-run `n % IMAGES` on a fresh engine and pump.
    let budget_ns = (args.seconds * 1e9) as u64;
    let mut setups: Vec<(u64, u64)> = windows
        .iter()
        .chain([&ref2])
        .map(|w| (w.setup_ns, w.build_ns))
        .collect();
    let (mut sys_ns, mut wall_ns) = (0u64, 0u64);
    let (mut op_ns, mut op_sys_ns) = (Vec::new(), Vec::new());
    let mut checked: Vec<(Vec<LifeOp>, EngineReport)> = Vec::new();
    let mut acc = LayerAcc::default();
    let mut run_w = ServeStats::default();
    let mut run_wire = WireStats::default();
    let (mut ticks, mut churn_clients, mut panes) = ([0u64; 2], 0, 0);
    // Request spans the engines' tracers held at shutdown, and the
    // virtual time of their plan and interp stages.
    let mut spans = [0u64; 3];
    let mut peak_rss = 0.0;
    let mut lives = 0u64;
    'run: while (sys_ns < budget_ns || lives < IMAGES) && started.elapsed().as_secs() < 120 {
        let k = lives % IMAGES;
        let cfg = image(args.seed, k);
        let (mut rig, mut load, setup_ns, build_ns) =
            setup(&cfg, &figs, sub_seed(args.seed, k), args.trace)?;
        setups.push((setup_ns, build_ns));
        // Each reply's graph is kept as a digest and checked after the
        // life, so the checker stays out of the memory the life measures.
        let mut life: Vec<LifeOp> = figs
            .iter()
            .map(|f| {
                let g = load.viewer.replica.graph(f.viewcl)?;
                Some(LifeOp {
                    det: Vec::new(),
                    stop: false,
                    fig: usize::MAX,
                    graph: digest(&g.to_json()),
                })
            })
            .collect::<Option<_>>()
            .ok_or("initial pane missing")?;
        for j in 0..LIFE {
            out.attempted += 1;
            let (rec, graph) = match load.step(&mut rig, &figs) {
                Ok(v) => v,
                Err(e) => {
                    // The connection state is unknown after a wire error.
                    out.fail(format!("life {lives} op {j}: {e}"));
                    break 'run;
                }
            };
            let graph = digest(&graph.to_json());
            let retire_ns = load.retire(&rig.clock);
            sys_ns += rec.sys_ns() + retire_ns;
            wall_ns += rec.wall_ns;
            op_ns.push(rec.op_ns);
            op_sys_ns.push(rec.sys_ns() + retire_ns);
            if args.trace {
                let r = &rec.reply;
                acc.ops += 1;
                acc.send_ns += r.send_ns;
                acc.wait_ns += r.wait_ns;
                acc.apply_ns += r.apply_ns;
                match rec.op_ns.checked_sub(r.send_ns + r.wait_ns + r.apply_ns) {
                    Some(rest) => acc.unattributed_ns += rest,
                    None => out.fail(format!(
                        "life {lives} op {j}: layer spans exceed the op's time"
                    )),
                }
                acc.handshakes.extend(rec.handshake_ns);
                timed(&CpuClock::THREAD, true, &mut acc.parse_ns, || {
                    viewcl::parse_program(figs[rec.fig].viewcl)
                })
                .map_err(|e| e.to_string())?;
            }
            life.push(LifeOp {
                det: rec.det(),
                stop: rec.stop.is_some(),
                fig: rec.fig,
                graph,
            });
        }
        if lives == 0 {
            // A fixed amount of work, with the life's engine state still
            // held and before any plain session exists.
            peak_rss = peak_rss_mb()?;
        }
        for (t, n) in ticks.iter_mut().zip(rig.ticks.iter()) {
            *t += n.load(Ordering::Relaxed);
        }
        churn_clients += load.churn_clients;
        let (engine, wire) = rig.shutdown(load)?;
        for (what, r) in [
            ("ServeStats::reconcile", engine.stats.reconcile()),
            ("WireStats::reconcile", wire.reconcile()),
        ] {
            if let Err(e) = r {
                out.fail(format!("life {lives}: {what}: {e}"));
            }
        }
        for (what, n) in [
            ("engine errors", engine.stats.errors),
            ("engine resyncs", engine.stats.resyncs),
            ("wire decode errors", wire.decode_errors),
        ] {
            if n > 0 {
                out.fail(format!("life {lives}: {what}: {n}"));
            }
        }
        run_w.absorb(&engine.stats);
        for (a, v) in spans
            .iter_mut()
            .zip([engine.req_spans, engine.plan_vns, engine.interp_vns])
        {
            *a += v;
        }
        run_wire.absorb(&wire);
        panes = engine.panes;
        if let Some((first, first_engine)) = checked.get(k as usize) {
            for j in (0..life.len()).filter(|&j| life[j] != first[j]) {
                out.fail(format!(
                    "life {lives} op {j}: reply or counters differ from sub-run {k}'s checked life"
                ));
            }
            if engine.det() != first_engine.det() {
                out.fail(format!(
                    "life {lives}: engine counters {:?} differ from sub-run {k}'s checked life {:?}",
                    engine.det(),
                    first_engine.det()
                ));
            }
        } else {
            // The sub-run's first life: its first ops must repeat the
            // window's, and the plain session, taking the same stops,
            // must agree on the initial panes and on every reply.
            let n = figs.len();
            let det: Vec<Vec<u64>> = life[n..n + WINDOW as usize]
                .iter()
                .map(|o| o.det.clone())
                .collect();
            let what = format!("determinism (sub-run {k}: timed life vs window)");
            if let Some(d) = first_drift(&what, &det, &windows[k as usize].det) {
                out.fail(d);
            }
            let mut oracle = Oracle::new(&cfg)?;
            for (i, o) in life.iter().enumerate() {
                let (fig, what) = match i.checked_sub(n) {
                    None => (i, "initial pane".to_string()),
                    Some(j) => (o.fig, format!("life {lives} op {j}")),
                };
                if o.stop {
                    oracle.stop()?;
                }
                if let Err(e) = oracle.check(&figs[fig], fig, o.graph) {
                    out.fail(format!("{what}: {e}"));
                }
            }
            checked.push((life, engine));
        }
        lives += 1;
    }
    for (what, r) in windows.iter().flat_map(|w| {
        [
            ("window ServeStats::reconcile", w.engine.stats.reconcile()),
            ("window WireStats::reconcile", w.wire.reconcile()),
        ]
    }) {
        if let Err(e) = r {
            out.fail(format!("{what}: {e}"));
        }
    }

    // End-to-end metrics: CPU-clock figures from the timed run, virtual
    // clock and reply size from the windows. Set-up time is the median
    // over every set-up of the run.
    let mut w = ServeStats::default();
    let mut wire_w = WireStats::default();
    let (mut reply_bytes, mut boxes) = (0, 0);
    for win in &windows {
        w.absorb(&win.engine.stats);
        wire_w.absorb(&win.wire);
        reply_bytes += win.reply_bytes;
        boxes += win.boxes;
    }
    let reqs = w.plot_requests as f64;
    let nf = (WINDOW * IMAGES) as f64;
    let ops = op_ns.len() as f64;
    out.set_setups(&setups);
    out.set_op_times(
        &OpTimes::by_life(&op_ns, &op_sys_ns, LIFE as usize),
        LIFE as usize,
    );
    out.set("virtual_ms_per_op", ratio(ms(w.walk_virtual_ns), reqs));
    out.set("peak_rss_mb", peak_rss);
    out.set("reply_kb_per_op", reply_bytes as f64 / nf / 1024.0);
    let (q1, q4) = quarter_rates(&op_sys_ns, LIFE as usize);
    out.note(format!(
        "{} ops in {lives} lives, {:.3} s of system time (CPU clock), {:.3} s of op wall time; \
         {churn_clients} churn clients served",
        op_ns.len(),
        sys_ns as f64 / 1e9,
        wall_ns as f64 / 1e9,
    ));
    out.note(format!(
        "ops/s over the first and last quarter of the lives: {q1:.1} / {q4:.1}"
    ));
    out.note(format!(
        "engine after each life: {panes} panes retained; over the run {} walks, {} fulls, \
         {} deltas",
        run_w.walks, run_w.fulls_sent, run_w.deltas_sent
    ));

    // Per-layer metrics: counts from the window, timings from the run.
    let per_op = |ns: u64| ms(ns) / acc.ops.max(1) as f64;
    let rate = |v: &[u64]| ratio(v.len() as f64, v.iter().sum::<u64>() as f64 / 1e9);
    out.set(
        "ksim.tick_us",
        ratio(ticks[1] as f64 / 1e3, ticks[0] as f64),
    );
    out.set("vbridge.packets_per_op", ratio(w.walk_packets as f64, reqs));
    out.set("vbridge.bytes_per_op", ratio(w.walk_bytes as f64, reqs));
    out.set(
        "vbridge.cache_hit_ratio",
        ratio(
            w.walk_cache_hits as f64,
            (w.walk_cache_hits + w.walk_packets) as f64,
        ),
    );
    out.set("vbridge.faults", w.walk_faults as f64);
    out.set("viewcl.parse_ms", per_op(acc.parse_ns));
    out.set(
        "viewcl.plan_virtual_ms_per_op",
        ratio(ms(spans[1]), spans[0] as f64),
    );
    out.set(
        "viewcl.interp_virtual_ms_per_op",
        ratio(ms(spans[2]), spans[0] as f64),
    );
    out.set("vgraph.boxes_per_op", boxes as f64 / nf);
    out.set("vgraph.apply_ms", per_op(acc.apply_ns));
    out.set("vserve.walks_per_req", ratio(w.walks as f64, reqs));
    out.set(
        "vserve.coalesce_ratio",
        ratio(w.coalesced as f64, w.extractions as f64),
    );
    out.set("vserve.fulls_per_req", ratio(w.fulls_sent as f64, reqs));
    out.set("vserve.deltas_per_req", ratio(w.deltas_sent as f64, reqs));
    out.set(
        "vserve.delta_saved_ratio",
        ratio(
            w.delta_bytes_saved as f64,
            (w.delta_bytes_saved + w.delta_bytes_sent) as f64,
        ),
    );
    out.set("vserve.send_ms", per_op(acc.send_ns));
    out.set("vserve.reply_wait_ms", per_op(acc.wait_ns));
    out.set("vserve.retained_panes", panes as f64);
    out.set("vserve.queue_depth_max", run_w.queue_depth_max as f64);
    out.set("vserve.errors", run_w.errors as f64);
    out.set("vserve.resyncs", run_w.resyncs as f64);
    out.set(
        "wire.handshake_ms",
        ratio(ms(acc.handshakes.iter().sum()), acc.handshakes.len() as f64),
    );
    out.set(
        "wire.sweeps_per_req",
        ratio(run_wire.sweeps as f64, run_wire.frames_in as f64),
    );
    out.set(
        "wire.engine_busy_per_req",
        ratio(run_wire.engine_busy as f64, run_wire.frames_in as f64),
    );
    out.set(
        "wire.bytes_out_per_req",
        ratio(wire_w.bytes_out as f64, wire_w.frames_in as f64),
    );
    out.set("wire.decode_errors", run_wire.decode_errors as f64);
    out.set("bench.unattributed_ms", per_op(acc.unattributed_ns));
    out.set("bench.ops_per_s_traced", rate(&ref2.sys_ns));
    out.set("bench.ops_per_s_untraced", rate(&ref1.sys_ns));
    out.set("bench.ops_per_s_q1", q1);
    out.set("bench.ops_per_s_q4", q4);
    out.set("bench.ops_per_s_wall", ratio(ops, wall_ns as f64 / 1e9));
    if args.trace {
        out.note(format!(
            "attribution per op: send {:.4} + reply wait {:.4} + apply {:.4} + unattributed {:.4} \
             = op {:.4} ms (CPU clock)",
            per_op(acc.send_ns),
            per_op(acc.wait_ns),
            per_op(acc.apply_ns),
            per_op(acc.unattributed_ns),
            ms(op_ns.iter().sum()) / ops.max(1.0)
        ));
        out.note(format!(
            "tracing overhead on the window: {:.1} ops/s untraced, {:.1} ops/s traced",
            rate(&ref1.sys_ns),
            rate(&ref2.sys_ns)
        ));
        out.note(format!(
            "viewcl virtual time from the {} request spans the engines' tracers held",
            spans[0]
        ));
    }
    Ok(out)
}
