//! The per-layer run. The pools (`run_campaign`, the `simulate --serve`
//! child) hide their layer calls, so this replays the workload's first
//! pass single-threaded through each layer's public functions, recording a
//! span around every call:
//!
//! - matrix / campaign cell: `resolve` (the cell as a what-if request) →
//!   `Unit::flows` → `SimCell::new`/`reset` → run (counted in the `trace`
//!   build) → `harvest_flow_times` → `to_ndjson` → `parse_line` →
//!   `add_cell`, then the session path `reset` → `run_until(warm-up)` →
//!   `snapshot` → `restore` → `finish`;
//! - serve request: `resolve` → `reset` → `run_until`+`snapshot` (miss) or
//!   `restore` (hit) → `finish`; each miss also runs the scenario straight
//!   through (counted) on a second cell, with `Unit::flows`, harvest and
//!   the telemetry encode/parse/aggregate chain.
//!
//! `base` mode (untraced build) times the same replay with spans off and
//! measures the pool-level metrics on the real pools; `trace` mode (trace
//! build) records spans, prints the self-time table and the per-layer
//! metrics, and writes the spans out.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

use desim::{SimDelta, SimTime};
use telemetry::{CampaignAggregator, CellResult, LogHistogram};
use vip_bench::{CampaignSpec, CellSpec, RunSettings, Unit};
use vip_core::{Scheme, SimCell, SimSnapshot, SystemConfig, SystemReport};

use crate::expect::{behaviour_digest, cell_fingerprint, cell_record, cell_settings, energy_nj};
use crate::sys::{allocs, thread_cpu_ns};
use crate::{campaign, inputs, serve, sys, Checker, Ctx, Outcome};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    allocs: u64,
}

/// In-memory span recorder; a disabled recorder records nothing.
struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            // Pre-sized so recording allocates nothing mid-replay.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::with_capacity(16),
            op: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            allocs: allocs(),
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = allocs() - span.allocs;
        self.stack.pop();
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Starts the next operation (cell or request): a root span.
    fn op(&mut self, name: &'static str) -> usize {
        self.op += 1;
        self.enter(name)
    }

    /// Per name: (calls, self ns, self allocations). Self time is a span's
    /// duration minus what its child spans cover.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p] += s.allocs;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) - child_ns[i];
            e.2 += s.allocs - child_allocs[i];
        }
        out
    }

    fn write(&self, path: &std::path::Path) {
        let mut text = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"allocs\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.allocs,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        text.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create spans dir");
        }
        std::fs::write(path, text).expect("write spans");
    }
}

/// Deterministic work counted over the straight (reference) runs.
#[derive(Default)]
struct Work {
    sim_ms: u64,
    events: u64,
    mem_bytes: u64,
    sa_bytes: u64,
    run_cpu_ns: u64,
    run_allocs: u64,
    #[cfg(feature = "trace")]
    kinds: vip_core::EventCounts,
}

/// Everything one replay threads through its operations.
struct Replay {
    spans: Spans,
    work: Work,
    check: Checker,
    agg: CampaignAggregator,
    ops: u64,
}

impl Replay {
    /// Builds a fresh cell in `slot` or resets the one there.
    fn shape(
        &mut self,
        slot: &mut Option<SimCell>,
        cfg: &SystemConfig,
        flows: &[vip_core::FlowSpec],
    ) {
        match slot {
            Some(cell) => self.spans.time("core.reset", || cell.reset(cfg, flows)),
            None => {
                let cell = self
                    .spans
                    .time("core.new", || SimCell::new(cfg.clone(), flows.to_vec()));
                *slot = Some(cell);
            }
        }
    }

    /// Runs a shaped cell straight to its horizon, counting its work.
    fn straight(&mut self, cell: &mut SimCell, ms: u64) -> SystemReport {
        let id = self.spans.enter("core.run");
        let cpu0 = thread_cpu_ns();
        let a0 = allocs();
        #[cfg(feature = "trace")]
        let report = {
            let out = cell.runner().counted().run();
            self.work.kinds.add(&out.counts.expect("counted run"));
            out.report
        };
        #[cfg(not(feature = "trace"))]
        let report = cell.run();
        self.work.run_allocs += allocs() - a0;
        self.work.run_cpu_ns += thread_cpu_ns() - cpu0;
        self.spans.exit(id);
        self.work.sim_ms += ms;
        self.work.events += report.events;
        self.work.mem_bytes += report.mem_bytes;
        self.work.sa_bytes += report.sa_bytes;
        report
    }

    /// Harvest → encode → strict parse → aggregate; returns the parsed
    /// record.
    fn telemetry(
        &mut self,
        cell: &SimCell,
        record: impl FnOnce(LogHistogram) -> CellResult,
    ) -> Option<CellResult> {
        let mut hist = LogHistogram::new();
        self.spans
            .time("core.harvest", || cell.harvest_flow_times(&mut hist))
            .expect("straight run finished");
        let rec = record(hist);
        let line = self.spans.time("telemetry.encode", || rec.to_ndjson());
        match self
            .spans
            .time("telemetry.parse", || CellResult::parse_line(&line))
        {
            Ok(back) => {
                let agg = &mut self.agg;
                self.spans
                    .time("telemetry.aggregate", || agg.add_cell(&back));
                Some(back)
            }
            Err(e) => {
                self.check
                    .check(false, || format!("record does not re-parse: {e}"));
                None
            }
        }
    }

    /// The session path on a shaped cell: warm up, snapshot, restore,
    /// finish; the branch must reproduce the straight run's digest.
    fn session(&mut self, cell: &mut SimCell, warmup: SimTime, straight: &SystemReport) {
        let spans = &mut self.spans;
        spans.time("core.warmup", || cell.run_until(warmup));
        let snap = spans.time("core.snapshot", || cell.snapshot());
        spans.time("core.restore", || cell.restore(&snap));
        let branch = spans.time("core.tail", || cell.finish());
        self.check.check(branch.digest() == straight.digest(), || {
            "snapshot/restore branch diverged from the straight run".to_string()
        });
    }

    /// Times `resolve` on the cell written as a what-if request.
    fn resolve_probe(&mut self, line: &str) {
        let r = self
            .spans
            .time("bench.serve.resolve", || vip_bench::serve::resolve(line));
        self.check
            .check(r.is_ok(), || format!("request does not resolve: {line}"));
    }

    /// One matrix or campaign cell through every layer; returns the
    /// straight run's report and its re-parsed record.
    fn cell(
        &mut self,
        op: &'static str,
        slot: &mut Option<SimCell>,
        spec: &CellSpec,
        settings: RunSettings,
        line: &str,
        ms: u64,
    ) -> (SystemReport, Option<CellResult>) {
        let root = self.spans.op(op);
        self.ops += 1;
        self.resolve_probe(line);
        let flows = self
            .spans
            .time("workloads.flows", || spec.unit.flows(settings));
        self.shape(slot, &spec.cfg, &flows);
        let cell = slot.as_mut().expect("shaped");
        let report = self.straight(cell, ms);
        let back = self.telemetry(cell, |h| cell_record(spec, &report, h));
        self.spans
            .time("core.reset", || cell.reset(&spec.cfg, &flows));
        self.session(cell, SimTime::ZERO + SimDelta::from_ms(ms / 2), &report);
        self.spans.exit(root);
        (report, back)
    }
}

fn request_line(unit: Unit, scheme: Scheme, ms: u64, seed: u64, whatif: &str) -> String {
    format!(
        r#"{{"id": 1, "unit": "{}", "scheme": "{}", "ms": {ms}, "warmup_ms": {}, "seed": {seed}{whatif}}}"#,
        unit.label(),
        scheme.label(),
        ms / 2
    )
}

fn replay_matrix(ctx: &Ctx, r: &mut Replay) {
    let input = inputs::matrix(ctx.variant);
    let mut slot = None;
    for &(unit, scheme) in &input.cells {
        let spec = CellSpec {
            index: 0,
            seed: input.settings.seed,
            unit,
            scheme,
            cfg: input.settings.config(scheme),
            config_key: String::new(),
        };
        let line = request_line(unit, scheme, inputs::MATRIX_MS, input.settings.seed, "");
        let (report, _) = r.cell(
            "matrix.cell",
            &mut slot,
            &spec,
            input.settings,
            &line,
            inputs::MATRIX_MS,
        );
        let key = (
            input.settings.seed,
            unit.label().to_string(),
            inputs::scheme_index(scheme),
        );
        let (want, got) = (
            ctx.expect.matrix.get(&key).copied(),
            behaviour_digest(&report),
        );
        r.check.check(want == Some(got), || {
            format!("matrix replay {key:?}: {got:#018x} vs {want:x?}")
        });
    }
}

fn replay_campaign(ctx: &Ctx, r: &mut Replay) {
    let spec = inputs::campaign_grid(ctx.variant);
    let cells = r.spans.time("bench.campaign.expand", || spec.expand());
    let mut slot = None;
    for c in &cells {
        let settings = cell_settings(c, spec.ms);
        let whatif = format!(
            r#", "whatif": {{"dram_channels": {}, "num_cpus": {}, "burst_frames": {}}}"#,
            c.cfg.dram.channels, c.cfg.num_cpus, c.cfg.burst_frames
        );
        let line = request_line(c.unit, c.scheme, spec.ms, c.seed, &whatif);
        let (_, back) = r.cell("campaign.cell", &mut slot, c, settings, &line, spec.ms);
        let fp = back.as_ref().map(cell_fingerprint);
        let want = ctx.expect.campaign.get(&(spec.seed, c.index)).copied();
        r.check.check(fp.is_some() && fp == want, || {
            format!("campaign replay cell {}: {fp:x?} vs {want:x?}", c.index)
        });
    }
}

fn replay_serve(ctx: &Ctx, r: &mut Replay) {
    let (mut cell, mut straight) = (None, None);
    for session in inputs::serve_block(ctx.variant) {
        // Scenario seeds are unique per session, so nothing carries over.
        let mut cache: HashMap<u64, (SimSnapshot, u64)> = HashMap::new();
        for req in &session.requests {
            let root = r.spans.op("serve.request");
            r.ops += 1;
            let line = req.line(r.ops);
            let resolved = r
                .spans
                .time("bench.serve.resolve", || vip_bench::serve::resolve(&line));
            match (req.scenario, resolved) {
                (None, res) => {
                    r.check.check(res.is_err(), || {
                        format!("malformed request resolved: {line}")
                    });
                }
                (Some(_), Err((_, e))) => {
                    r.check
                        .check(false, || format!("scenario does not resolve ({e}): {line}"));
                }
                (Some(key), Ok(q)) => {
                    r.shape(&mut cell, &q.cfg, &q.flows);
                    let c = cell.as_mut().expect("shaped");
                    if let Some((snap, digest)) = cache.get(&q.key) {
                        r.check
                            .check(req.expect_hit, || format!("unexpected hit: {line}"));
                        r.spans.time("core.restore", || c.restore(snap));
                        let rep = r.spans.time("core.tail", || c.finish());
                        r.check
                            .check(rep.digest() == *digest, || format!("hit diverged: {line}"));
                    } else {
                        r.check
                            .check(!req.expect_hit, || format!("unexpected miss: {line}"));
                        let warmup = SimTime::ZERO + q.warmup;
                        r.spans.time("core.warmup", || c.run_until(warmup));
                        let snap = r.spans.time("core.snapshot", || c.snapshot());
                        let rep = r.spans.time("core.tail", || c.finish());

                        // Reference: the scenario straight through, counted.
                        let settings = RunSettings {
                            duration: SimDelta::from_ms(inputs::SERVE_MS),
                            seed: session.seed,
                        };
                        r.spans
                            .time("workloads.flows", || session.unit.flows(settings));
                        r.shape(&mut straight, &q.cfg, &q.flows);
                        let s = straight.as_mut().expect("shaped");
                        let report = r.straight(s, inputs::SERVE_MS);
                        let spec = CellSpec {
                            index: key.1,
                            seed: session.seed,
                            unit: session.unit,
                            scheme: session.scheme,
                            cfg: q.cfg.clone(),
                            config_key: String::new(),
                        };
                        r.telemetry(s, |h| cell_record(&spec, &report, h));
                        let want = ctx.expect.serve.get(&key).copied();
                        let got = (report.frames_completed, energy_nj(&report));
                        r.check.check(want == Some(got), || {
                            format!("scenario {key:?}: {got:?} vs {want:?}")
                        });
                        r.check.check(rep.digest() == report.digest(), || {
                            format!("miss diverged: {line}")
                        });
                        cache.insert(q.key, (snap, report.digest()));
                    }
                }
            }
            r.spans.exit(root);
        }
    }
}

fn replay(ctx: &Ctx, workload: &str, spans_on: bool) -> (Replay, f64) {
    let mut r = Replay {
        spans: Spans::new(spans_on),
        work: Work::default(),
        check: Checker::default(),
        agg: CampaignAggregator::new(),
        ops: 0,
    };
    let t0 = Instant::now();
    match workload {
        "matrix" => replay_matrix(ctx, &mut r),
        "campaign" => replay_campaign(ctx, &mut r),
        "serve" => replay_serve(ctx, &mut r),
        w => panic!("unknown workload {w}"),
    }
    (r, t0.elapsed().as_secs_f64())
}

/// Untraced build: pool-level metrics on the real pools, then the replay
/// timed with spans off (the base the tracing overhead is taken from).
pub fn base(ctx: &Ctx, workload: &str) -> Outcome {
    let mut check = Checker::default();

    // The serve pool: one block of the variant's script, also run as a probe of
    // the serve layer for the workloads that bypass it.
    let mut server = serve::Server::start(ctx);
    let d = serve::drive(ctx, &mut server, &mut check, 1, None);
    server.stop();
    let (replies, wall, sent, serve_cpu) = (d.replies, d.wall_s, d.sent, d.cpu_s);
    let ok = replies.iter().filter(|r| r.ok).count();
    let hits = replies.iter().filter(|r| r.ok && r.hit).count();

    // The campaign pool: the workload's first grid, or its first 16 cells
    // as a probe of the pool layer for the workloads that bypass it.
    let mut spec = inputs::campaign_grid(ctx.variant);
    if workload != "campaign" {
        spec = CampaignSpec { cells: 16, ..spec };
    }
    let mut lat = campaign::Latencies::default();
    let cpu0 = sys::process_cpu_s(ctx.clk_tck);
    let (cwall, straggler) = campaign::pass(
        ctx,
        &spec,
        &mut check,
        &mut CampaignAggregator::new(),
        &mut lat,
    );
    let campaign_cpu = sys::process_cpu_s(ctx.clk_tck) - cpu0;

    let (r, replay_s) = replay(ctx, workload, false);
    Outcome {
        attempted: sent + lat.all.len() as u64 + r.ops,
        failed: check.failed + r.check.failed,
        replay_s,
        metrics: vec![
            ("bench.serve.hit_ratio", hits as f64 / ok.max(1) as f64),
            (
                "bench.serve.busiest_worker_share",
                serve::busiest_worker_share(&replies),
            ),
            ("bench.serve.cpu_per_wall", serve_cpu / wall),
            ("bench.campaign.straggler_s", straggler),
            ("bench.campaign.cpu_per_wall", campaign_cpu / cwall),
        ],
    }
}

/// Trace build: the replay with spans; prints the self-time table.
pub fn trace(ctx: &Ctx, workload: &str) -> Outcome {
    let (r, replay_s) = replay(ctx, workload, true);
    let times = r.spans.self_times();
    let total: u64 = times.values().map(|t| t.1).sum();
    println!(
        "{:<24} {:>7} {:>11} {:>11} {:>7} {:>9}",
        "span", "calls", "self ms", "mean us", "share", "allocs"
    );
    for (name, (calls, ns, al)) in &times {
        println!(
            "{name:<24} {calls:>7} {:>11.3} {:>11.2} {:>6.2}% {al:>9}",
            *ns as f64 / 1e6,
            *ns as f64 / 1e3 / *calls as f64,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    if let Some(path) = &ctx.spans_out {
        r.spans.write(path);
        println!(
            "spans: {} written to {}",
            r.spans.spans.len(),
            path.display()
        );
    }
    let mean_us = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |(calls, ns, _)| *ns as f64 / 1e3 / *calls as f64)
    };
    let w = &r.work;
    let per_ms = |x: u64| x as f64 / w.sim_ms as f64;
    #[cfg_attr(not(feature = "trace"), allow(unused_mut))]
    let mut metrics = vec![
        ("desim.events_per_sim_ms", per_ms(w.events)),
        (
            "core.cpu_ns_per_event",
            w.run_cpu_ns as f64 / w.events as f64,
        ),
        ("core.new_us", mean_us("core.new")),
        ("core.reset_us", mean_us("core.reset")),
        ("core.harvest_us", mean_us("core.harvest")),
        ("core.warmup_ms", mean_us("core.warmup") / 1e3),
        ("core.tail_ms", mean_us("core.tail") / 1e3),
        ("core.snapshot_us", mean_us("core.snapshot")),
        ("core.restore_us", mean_us("core.restore")),
        ("alloc.count_per_sim_ms", per_ms(w.run_allocs)),
        ("dram.bytes_per_sim_ms", per_ms(w.mem_bytes)),
        ("soc.sa_bytes_per_sim_ms", per_ms(w.sa_bytes)),
        ("workloads.flows_us", mean_us("workloads.flows")),
        ("telemetry.encode_us", mean_us("telemetry.encode")),
        ("telemetry.parse_us", mean_us("telemetry.parse")),
        ("telemetry.aggregate_us", mean_us("telemetry.aggregate")),
        ("bench.serve.resolve_us", mean_us("bench.serve.resolve")),
    ];
    #[cfg(feature = "trace")]
    {
        let k = &w.kinds;
        metrics.extend([
            ("desim.events.source", per_ms(k.source)),
            ("desim.events.cpu_done", per_ms(k.cpu_done)),
            ("desim.events.mem_tick", per_ms(k.mem_tick)),
            ("desim.events.compute_done", per_ms(k.compute_done)),
            ("desim.events.sa_arrival", per_ms(k.sa_arrival)),
            ("desim.events.background", per_ms(k.background)),
            ("desim.events.rollback", per_ms(k.rollback)),
        ]);
        assert_eq!(
            k.total(),
            w.events,
            "per-kind counts sum to the dispatch count"
        );
    }
    Outcome {
        attempted: r.ops,
        failed: r.check.failed,
        replay_s,
        metrics,
    }
}
