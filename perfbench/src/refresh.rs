//! `stop_refresh`: sessions with cache, plan and incremental mode on the
//! paper's image, all 21 figures open as panes. One op is one stop, then
//! every pane refreshed: re-extracted, refined by its Table-3 ViewQL
//! objective (if it has one) and rendered as text.
//!
//! A run first sets up each sub-run (image seed plus op schedule) and
//! runs its determinism window; sub-run 0 runs twice and must report
//! identical counters. The timed run is a sequence of lives: life `n`
//! sets sub-run `n % RIGS` up afresh and takes the first `LIFE` stops of
//! its schedule, so every life does the same work and the figures
//! average over several images instead of hanging on one (which panes a
//! stop dirties, and so which get re-walked, depends on the image). A
//! plain session checks every output of each sub-run's first life; each
//! later life of the sub-run must repeat those outputs and counters.

use std::time::Instant;

use ksim::workload::{build, WorkloadConfig, WorkloadRoots};
use vbridge::{CacheConfig, LatencyProfile, TargetStats};
use vgraph::Graph;
use visualinux::figures::{self, Figure};
use visualinux::Session;
use vtrace::{SpanKind, TraceSpan};

use crate::measure::{
    digest, first_drift, image, ms, ns_since, peak_rss_mb, quantile_ms, quarter_rates, ratio,
    sub_seed, timed, CpuClock, OpTimes, Rng,
};
use crate::report::Outcome;
use crate::Args;

/// Ops in each determinism window.
const WINDOW: u64 = 12;

/// Stops in each life of the timed run.
const LIFE: u64 = 50;

/// Sub-runs the virtual clock and the output size are averaged over.
/// One image's post-stop packet bill depends on where the ticked fields
/// fall in the cache's blocks, which the image seed decides.
const IMAGES: u64 = 48;

/// Sub-runs the timed run's lives take turns on.
const RIGS: u64 = 4;

/// The panes op `i` of sub-run `k` refreshes, in a seeded order, as
/// indices into `figures::all()`.
fn op_figures(seed: u64, k: u64, i: u64, n_figs: usize) -> Vec<usize> {
    Rng::new(sub_seed(seed, k), (2 << 32) | i).permutation(n_figs)
}

/// A session under test plus the stops it has taken.
struct Rig {
    session: Session,
    roots: WorkloadRoots,
    stops: u64,
}

/// A freshly set-up rig and what setting it up cost.
struct Setup {
    rig: Rig,
    setup_ns: u64,
    build_ns: u64,
}

/// Build the image, attach the session under test and plot the 21
/// initial panes.
fn attach(cfg: &WorkloadConfig, figs: &[Figure], traced: bool) -> Result<Setup, String> {
    let cpu = CpuClock::THREAD;
    let t0 = cpu.now();
    let workload = build(cfg);
    let build_ns = cpu.since(t0);
    let mut builder = Session::builder(workload)
        .profile(LatencyProfile::kgdb_rpi400())
        .cache(CacheConfig::default())
        .plan()
        .incremental();
    if traced {
        builder = builder.tracing();
    }
    let session = builder.attach().map_err(|e| format!("attach: {e}"))?;
    for f in figs {
        session
            .extract(f.viewcl)
            .map_err(|e| format!("initial pane {}: {e}", f.id))?;
    }
    let roots = session.roots.clone();
    let setup_ns = cpu.since(t0);
    if let Some(t) = session.tracer() {
        t.take_finished();
    }
    Ok(Setup {
        rig: Rig {
            session,
            roots,
            stops: 0,
        },
        setup_ns,
        build_ns,
    })
}

/// One pane of one op.
struct Pane {
    fig: usize,
    /// The graph after the figure's ViewQL objective.
    graph: Graph,
    /// Its text rendering.
    text: String,
    stats: TargetStats,
}

impl Pane {
    /// The counters that must repeat exactly for a seed.
    fn det(&self) -> Vec<u64> {
        let s = &self.stats;
        vec![
            self.fig as u64,
            s.reads,
            s.bytes,
            s.virtual_ns,
            s.cache_hits,
            s.cache_misses,
            s.packets_saved,
            s.faults,
            s.plan_nodes,
            s.dedup_walks,
            s.vincr_hits,
            s.vincr_rewalks,
            s.dirty_bytes,
            self.graph.len() as u64,
            self.text.len() as u64,
        ]
    }
}

/// CPU time of each layer call inside one op (traced runs only).
#[derive(Default)]
struct OpLayers {
    tick_ns: u64,
    /// `Session::stop_event` minus the tick inside it: resume and
    /// cache invalidation.
    stop_ns: u64,
    extract_ns: Vec<u64>,
    vql_ns: u64,
    render_ns: u64,
}

impl OpLayers {
    fn total(&self) -> u64 {
        self.tick_ns
            + self.stop_ns
            + self.extract_ns.iter().sum::<u64>()
            + self.vql_ns
            + self.render_ns
    }
}

/// What one op produced.
struct OpOut {
    /// CPU time of the op.
    cpu_ns: u64,
    /// Wall time of the op.
    wall_ns: u64,
    panes: Vec<Pane>,
    layers: OpLayers,
}

impl OpOut {
    fn det(&self) -> Vec<u64> {
        self.panes.iter().flat_map(Pane::det).collect()
    }
}

/// One op: a stop, then every pane in `order` extracted, refined by its
/// Table-3 ViewQL objective (if it has one) and rendered as text.
fn run_op(rig: &mut Rig, figs: &[Figure], order: &[usize], traced: bool) -> Result<OpOut, String> {
    let Rig {
        session,
        roots,
        stops,
    } = rig;
    *stops += 1;
    let step = *stops;
    let mut layers = OpLayers::default();
    let mut panes = Vec::with_capacity(order.len());
    let cpu = CpuClock::THREAD;
    let (t_wall, t_op) = (Instant::now(), cpu.now());
    let mut stop_ns = 0;
    let mut tick_ns = 0;
    timed(&cpu, traced, &mut stop_ns, || {
        session.stop_event(|img| {
            timed(&cpu, traced, &mut tick_ns, || {
                ksim::tick::tick(img, roots, step)
            });
        })
    })
    .map_err(|e| format!("stop {step}: {e}"))?;
    layers.tick_ns = tick_ns;
    layers.stop_ns = stop_ns.saturating_sub(tick_ns);
    for &fi in order {
        let fig = &figs[fi];
        let mut extract_ns = 0;
        let (mut graph, stats) = timed(&cpu, traced, &mut extract_ns, || {
            session.extract(fig.viewcl)
        })
        .map_err(|e| format!("{}: extract: {e}", fig.id))?;
        if traced {
            layers.extract_ns.push(extract_ns);
        }
        if let Some(obj) = &fig.objective {
            timed(&cpu, traced, &mut layers.vql_ns, || {
                vql::Engine::new().run(&mut graph, obj.viewql)
            })
            .map_err(|e| format!("{}: viewql: {e}", fig.id))?;
        }
        let text = timed(&cpu, traced, &mut layers.render_ns, || {
            vrender::to_text(&graph)
        });
        panes.push(Pane {
            fig: fi,
            graph,
            text,
            stats: stats.target,
        });
    }
    Ok(OpOut {
        cpu_ns: cpu.since(t_op),
        wall_ns: ns_since(t_wall),
        panes,
        layers,
    })
}

/// The plain reference session (no cache, no plan, no incremental
/// mode) on the same image, taken through the same stops.
struct Oracle {
    rig: Rig,
}

impl Oracle {
    fn new(cfg: &WorkloadConfig) -> Result<Oracle, String> {
        let session = Session::builder(build(cfg))
            .profile(LatencyProfile::kgdb_rpi400())
            .attach()
            .map_err(|e| format!("oracle attach: {e}"))?;
        let roots = session.roots.clone();
        Ok(Oracle {
            rig: Rig {
                session,
                roots,
                stops: 0,
            },
        })
    }

    fn stop(&mut self) -> Result<(), String> {
        let Rig {
            session,
            roots,
            stops,
        } = &mut self.rig;
        *stops += 1;
        let step = *stops;
        session
            .stop_event(|img| {
                ksim::tick::tick(img, roots, step);
            })
            .map_err(|e| format!("oracle stop {step}: {e}"))
    }

    /// Every pane's graph JSON (after ViewQL) and text must equal the
    /// plain session's, byte for byte (compared by digest).
    fn check(&self, figs: &[Figure], panes: &[PaneDigest]) -> Result<(), String> {
        for p in panes {
            let fig = &figs[p.fig];
            let (mut want, _) = self
                .rig
                .session
                .extract(fig.viewcl)
                .map_err(|e| format!("{}: oracle extract: {e}", fig.id))?;
            if let Some(obj) = &fig.objective {
                vql::Engine::new()
                    .run(&mut want, obj.viewql)
                    .map_err(|e| format!("{}: oracle viewql: {e}", fig.id))?;
            }
            if digest(&want.to_json()) != p.graph {
                return Err(format!("{}: graph differs from the plain session", fig.id));
            }
            if digest(&vrender::to_text(&want)) != p.text {
                return Err(format!("{}: text differs from the plain session", fig.id));
            }
        }
        Ok(())
    }
}

/// What the timed loop keeps of one pane for the reference check.
#[derive(Clone, Copy, PartialEq)]
struct PaneDigest {
    fig: usize,
    graph: u64,
    text: u64,
}

/// The last output of each figure in a life and its digests. Most panes
/// come out of a stop unchanged, and comparing a graph and a text with
/// the previous ones is much cheaper than serialising the graph again,
/// so an unchanged pane reuses the digests; a changed one is digested.
struct DigestMemo(Vec<Option<(Graph, String, PaneDigest)>>);

impl DigestMemo {
    fn new(n_figs: usize) -> DigestMemo {
        DigestMemo((0..n_figs).map(|_| None).collect())
    }

    fn digest(&mut self, p: Pane) -> PaneDigest {
        let slot = &mut self.0[p.fig];
        if let Some((g, t, d)) = slot {
            if *g == p.graph && *t == p.text {
                return *d;
            }
        }
        let d = PaneDigest {
            fig: p.fig,
            graph: digest(&p.graph.to_json()),
            text: digest(&p.text),
        };
        *slot = Some((p.graph, p.text, d));
        d
    }
}

/// One determinism window: a fresh set-up of sub-run `k` running the
/// first ops of its schedule, unchecked against the oracle (the timed
/// run checks its own).
struct Window {
    setup_ns: u64,
    build_ns: u64,
    det: Vec<Vec<u64>>,
    op_ns: Vec<u64>,
    /// Counters summed over the window.
    totals: TargetStats,
    boxes: u64,
    text_bytes: u64,
}

fn window(figs: &[Figure], seed: u64, k: u64, traced: bool) -> Result<Window, String> {
    let Setup {
        mut rig,
        setup_ns,
        build_ns,
    } = attach(&image(seed, k), figs, traced)?;
    let mut w = Window {
        setup_ns,
        build_ns,
        det: Vec::new(),
        op_ns: Vec::new(),
        totals: TargetStats::default(),
        boxes: 0,
        text_bytes: 0,
    };
    for i in 0..WINDOW {
        let order = op_figures(seed, k, i, figs.len());
        let out =
            run_op(&mut rig, figs, &order, traced).map_err(|e| format!("window op {i}: {e}"))?;
        if let Some(t) = rig.session.tracer() {
            t.take_finished();
        }
        w.op_ns.push(out.cpu_ns);
        w.det.push(out.det());
        for p in &out.panes {
            add_stats(&mut w.totals, &p.stats);
            w.boxes += p.graph.len() as u64;
            w.text_bytes += p.text.len() as u64;
        }
    }
    Ok(w)
}

fn add_stats(acc: &mut TargetStats, s: &TargetStats) {
    acc.reads += s.reads;
    acc.bytes += s.bytes;
    acc.virtual_ns += s.virtual_ns;
    acc.cache_hits += s.cache_hits;
    acc.cache_misses += s.cache_misses;
    acc.packets_saved += s.packets_saved;
    acc.faults += s.faults;
    acc.plan_nodes += s.plan_nodes;
    acc.dedup_walks += s.dedup_walks;
    acc.vincr_hits += s.vincr_hits;
    acc.vincr_rewalks += s.vincr_rewalks;
    acc.dirty_bytes += s.dirty_bytes;
}

/// Per-layer sums over the timed run (traced runs only).
#[derive(Default)]
struct LayerAcc {
    ops: u64,
    tick_ns: u64,
    stop_ns: u64,
    extract_ns: Vec<u64>,
    keep_ns: Vec<u64>,
    rewalk_ns: Vec<u64>,
    vql_ns: u64,
    render_ns: u64,
    unattributed_ns: u64,
    parse_ns: u64,
    plan_vns: u64,
    interp_vns: u64,
}

impl LayerAcc {
    /// Fold in one traced op: its layer timings, its vtrace spans, and a
    /// parse of each pane's ViewCL timed outside the op.
    fn absorb(
        &mut self,
        out: &OpOut,
        spans: Vec<TraceSpan>,
        figs: &[Figure],
    ) -> Result<(), String> {
        let l = &out.layers;
        self.ops += 1;
        self.tick_ns += l.tick_ns;
        self.stop_ns += l.stop_ns;
        self.vql_ns += l.vql_ns;
        self.render_ns += l.render_ns;
        self.unattributed_ns += out
            .cpu_ns
            .checked_sub(l.total())
            .ok_or("layer spans exceed the op's time")?;
        for (p, &e) in out.panes.iter().zip(&l.extract_ns) {
            self.extract_ns.push(e);
            if p.stats.vincr_hits > 0 {
                self.keep_ns.push(e);
            } else if p.stats.vincr_rewalks > 0 {
                self.rewalk_ns.push(e);
            }
            timed(&CpuClock::THREAD, true, &mut self.parse_ns, || {
                viewcl::parse_program(figs[p.fig].viewcl)
            })
            .map_err(|e| e.to_string())?;
        }
        for s in spans.iter().filter(|s| s.kind == SpanKind::Extract) {
            for c in &s.children {
                match c.kind {
                    SpanKind::Plan => self.plan_vns += c.duration_ns(),
                    SpanKind::Interp => self.interp_vns += c.duration_ns(),
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// Run `stop_refresh`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let figs = figures::all();
    let mut out = Outcome::new("stop_refresh");
    let started = Instant::now();

    // Determinism: two fresh set-ups of sub-run 0 must agree on every
    // counter of every op in the window. The virtual clock averages the
    // windows of every sub-run.
    let ref2 = window(&figs, args.seed, 0, args.trace)?;
    let windows = (0..IMAGES)
        .map(|k| window(&figs, args.seed, k, false))
        .collect::<Result<Vec<_>, _>>()?;
    let ref1 = &windows[0];
    if let Some(d) = first_drift("determinism (two set-ups, same seed)", &ref1.det, &ref2.det) {
        out.fail(d);
    }
    let mut totals = TargetStats::default();
    let (mut boxes, mut text_bytes) = (0, 0);
    for w in &windows {
        add_stats(&mut totals, &w.totals);
        boxes += w.boxes;
        text_bytes += w.text_bytes;
    }
    let mut setups: Vec<(u64, u64)> = windows
        .iter()
        .chain([&ref2])
        .map(|w| (w.setup_ns, w.build_ns))
        .collect();

    // The timed run, life after life until the ops have taken the
    // budget of CPU time and every rig has had a life.
    let budget_ns = (args.seconds * 1e9) as u64;
    let (mut cpu_ns, mut wall_ns) = (0u64, 0u64);
    let mut op_ns = Vec::new();
    let mut checked: Vec<Vec<(Vec<u64>, Vec<PaneDigest>)>> = Vec::new();
    let mut acc = LayerAcc::default();
    let mut peak_rss = 0.0;
    let mut lives = 0u64;
    'run: while (cpu_ns < budget_ns || lives < RIGS) && started.elapsed().as_secs() < 120 {
        let k = lives % RIGS;
        let s = attach(&image(args.seed, k), &figs, args.trace)?;
        setups.push((s.setup_ns, s.build_ns));
        let mut rig = s.rig;
        let mut life = Vec::with_capacity(LIFE as usize);
        let mut memo = DigestMemo::new(figs.len());
        for j in 0..LIFE {
            let order = op_figures(args.seed, k, j, figs.len());
            out.attempted += 1;
            let o = match run_op(&mut rig, &figs, &order, args.trace) {
                Ok(o) => o,
                Err(e) => {
                    out.fail(format!("life {lives} op {j}: {e}"));
                    break 'run;
                }
            };
            cpu_ns += o.cpu_ns;
            wall_ns += o.wall_ns;
            op_ns.push(o.cpu_ns);
            if args.trace {
                let spans = rig
                    .session
                    .tracer()
                    .map(|t| t.take_finished())
                    .unwrap_or_default();
                if let Err(e) = acc.absorb(&o, spans, &figs) {
                    out.fail(format!("life {lives} op {j}: attribution: {e}"));
                }
            }
            let det = o.det();
            life.push((det, o.panes.into_iter().map(|p| memo.digest(p)).collect()));
        }
        drop(rig);
        if lives == 0 {
            // A fixed amount of work, before any plain session exists.
            peak_rss = peak_rss_mb()?;
        }
        if let Some(first) = checked.get(k as usize) {
            for j in (0..LIFE as usize).filter(|&j| life[j] != first[j]) {
                out.fail(format!(
                    "life {lives} op {j}: outputs or counters differ from sub-run {k}'s checked life"
                ));
            }
        } else {
            // The sub-run's first life: its first ops must repeat the
            // window's counters, and a plain session taking the same
            // stops must agree on every pane.
            let det: Vec<Vec<u64>> = life
                .iter()
                .take(WINDOW as usize)
                .map(|(d, _)| d.clone())
                .collect();
            let what = format!("determinism (sub-run {k}: timed life vs window)");
            if let Some(d) = first_drift(&what, &det, &windows[k as usize].det) {
                out.fail(d);
            }
            let mut oracle = Oracle::new(&image(args.seed, k))?;
            for (j, (_, panes)) in life.iter().enumerate() {
                oracle.stop()?;
                if let Err(e) = oracle.check(&figs, panes) {
                    out.fail(format!("life {lives} op {j}: {e}"));
                }
            }
            checked.push(life);
        }
        lives += 1;
    }

    // End-to-end metrics: CPU-clock figures from the timed run, virtual
    // clock and output size from the windows (pure functions of the
    // seed). Set-up time is the median over every set-up of the run.
    out.set_setups(&setups);
    let nf = (WINDOW * IMAGES) as f64;
    let ops = op_ns.len() as f64;
    out.set_op_times(
        &OpTimes::by_life(&op_ns, &op_ns, LIFE as usize),
        LIFE as usize,
    );
    out.set("virtual_ms_per_op", ms(totals.virtual_ns) / nf);
    out.set("peak_rss_mb", peak_rss);
    out.set("reply_kb_per_op", text_bytes as f64 / nf / 1024.0);
    out.note(format!(
        "{} ops in {lives} lives on {RIGS} images, {:.3} s of CPU time, {:.3} s of wall time",
        op_ns.len(),
        cpu_ns as f64 / 1e9,
        wall_ns as f64 / 1e9,
    ));
    let cfg = image(args.seed, 0);
    out.note(format!(
        "image: {} processes, {} extra threads/process, {} files/process, {} pages/file, \
         {} anon vmas, {} kthreads; sub-run 0 image seed {:#x}",
        cfg.processes,
        cfg.extra_threads,
        cfg.files_per_process,
        cfg.pages_per_file,
        cfg.anon_vmas,
        cfg.kthreads,
        cfg.seed
    ));

    // Per-layer metrics.
    let t = &totals;
    let (q1, q4) = quarter_rates(&op_ns, LIFE as usize);
    let per_op = |ns: u64| ms(ns) / acc.ops.max(1) as f64;
    let mean_ms = |v: &[u64]| ratio(ms(v.iter().sum()), v.len() as f64);
    let rate = |v: &[u64]| ratio(v.len() as f64, v.iter().sum::<u64>() as f64 / 1e9);
    out.set(
        "ksim.tick_us",
        acc.tick_ns as f64 / 1e3 / acc.ops.max(1) as f64,
    );
    out.set("session.stop_ms", per_op(acc.stop_ns));
    out.set("session.extract_ms.p50", quantile_ms(&acc.extract_ns, 0.50));
    out.set("session.extract_ms.p95", quantile_ms(&acc.extract_ns, 0.95));
    out.set("vbridge.packets_per_op", t.reads as f64 / nf);
    out.set("vbridge.bytes_per_op", t.bytes as f64 / nf);
    out.set(
        "vbridge.cache_hit_ratio",
        ratio(t.cache_hits as f64, (t.cache_hits + t.reads) as f64),
    );
    out.set("vbridge.packets_saved_per_op", t.packets_saved as f64 / nf);
    out.set("vbridge.faults", t.faults as f64);
    out.set("viewcl.parse_ms", per_op(acc.parse_ns));
    out.set("viewcl.plan_virtual_ms_per_op", per_op(acc.plan_vns));
    out.set("viewcl.interp_virtual_ms_per_op", per_op(acc.interp_vns));
    out.set("viewcl.plan_nodes_per_op", t.plan_nodes as f64 / nf);
    out.set("viewcl.dedup_walks_per_op", t.dedup_walks as f64 / nf);
    out.set(
        "vincr.keep_ratio",
        ratio(t.vincr_hits as f64, (t.vincr_hits + t.vincr_rewalks) as f64),
    );
    out.set("vincr.keep_ms", mean_ms(&acc.keep_ns));
    out.set("vincr.rewalk_ms", mean_ms(&acc.rewalk_ns));
    out.set("vincr.dirty_bytes_per_stop", t.dirty_bytes as f64 / nf);
    out.set("vgraph.boxes_per_op", boxes as f64 / nf);
    out.set("vql.run_ms", per_op(acc.vql_ns));
    out.set("vrender.text_ms", per_op(acc.render_ns));
    out.set("bench.unattributed_ms", per_op(acc.unattributed_ns));
    out.set("bench.ops_per_s_traced", rate(&ref2.op_ns));
    out.set("bench.ops_per_s_untraced", rate(&ref1.op_ns));
    out.set("bench.ops_per_s_q1", q1);
    out.set("bench.ops_per_s_q4", q4);
    out.set("bench.ops_per_s_wall", ratio(ops, wall_ns as f64 / 1e9));
    out.note(format!(
        "ops/s over the first and last quarter of the lives: {q1:.1} / {q4:.1}"
    ));
    if args.trace {
        let layers = per_op(acc.tick_ns + acc.stop_ns + acc.vql_ns + acc.render_ns)
            + per_op(acc.extract_ns.iter().sum());
        out.note(format!(
            "attribution per op: layers {layers:.4} ms + unattributed {:.4} ms = op {:.4} ms \
             (CPU clock)",
            per_op(acc.unattributed_ns),
            ms(cpu_ns) / ops.max(1.0)
        ));
        out.note(format!(
            "tracing overhead on the window: {:.1} ops/s untraced, {:.1} ops/s traced",
            rate(&ref1.op_ns),
            rate(&ref2.op_ns)
        ));
    }
    Ok(out)
}
