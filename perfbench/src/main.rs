//! The VIP simulator benchmark binary. `run.py` builds and drives it; see
//! `README.md` for the workloads, metrics and pinned expectations.
//!
//! ```text
//! perfbench run --workload matrix|campaign|serve --seed N --seconds S \
//!     --mode e2e|base|trace --expect DIR --simulate PATH --clk-tck HZ \
//!     [--spans-out FILE]
//! perfbench pin --expect DIR      # regenerate the pinned expectations
//! ```
//!
//! Modes: `e2e` measures the end-to-end metrics with no tracing; `base`
//! runs the pool probes and times the untraced layer replay; `trace` (in
//! the `trace` build) replays the same operations through each layer's
//! public functions with spans and prints the per-layer metrics.
//!
//! The last stdout line is one JSON object:
//! `{"attempted": N, "failed": N, "replay_s": X, "metrics": {...}}`.

mod campaign;
mod expect;
mod inputs;
mod matrix;
mod replay;
mod serve;
mod sys;

use std::path::PathBuf;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Everything a workload run needs.
pub struct Ctx {
    pub variant: u64,
    pub seconds: f64,
    pub expect: expect::Expect,
    pub simulate: PathBuf,
    pub clk_tck: f64,
    pub spans_out: Option<PathBuf>,
}

/// Counts behaviour-check failures, reporting the first few on stderr.
#[derive(Default)]
pub struct Checker {
    pub failed: u64,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: behaviour check failed: {}", what());
            }
        }
        ok
    }
}

/// What a run reports: operations attempted/failed and named metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub replay_s: f64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// One segment of a run's fixed work (a matrix pass, a campaign grid, a
/// serve session's worth of replies). Throughput metrics are medians over
/// segments, so a slow host phase spanning a few segments does not move
/// them.
#[derive(Clone, Copy)]
pub struct Segment {
    /// Simulated ms completed (serve: answered).
    pub sim_ms: f64,
    /// CPU seconds of the process doing the simulation.
    pub cpu_s: f64,
    pub wall_s: f64,
    /// Simulation cells completed (serve: scenarios answered).
    pub cells: u64,
    /// Operations completed (matrix/campaign: cells; serve: replies).
    pub ops: u64,
}

/// The nine end-to-end metrics, computed the same way for every workload.
pub struct EndToEnd {
    pub segments: Vec<Segment>,
    /// Per-operation latency, and its split by hit/miss.
    pub lat_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// Each repetition of the workload's set-up.
    pub setups_s: Vec<f64>,
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let (tail, pct) = sys::tail(&self.lat_ms);
        let per = |f: &dyn Fn(&Segment) -> f64| {
            sys::median(&self.segments.iter().map(f).collect::<Vec<_>>())
        };
        println!(
            "segments: {} (wall s {:.3?})",
            self.segments.len(),
            self.segments.iter().map(|s| s.wall_s).collect::<Vec<_>>()
        );
        println!(
            "latency: n={} p50={:.3} ms, tail p{pct:.2}={tail:.3} ms (10 samples beyond), \
             hit n={} miss n={}",
            self.lat_ms.len(),
            sys::median(&self.lat_ms),
            self.hit_ms.len(),
            self.miss_ms.len()
        );
        println!("setup s: {:.4?}", self.setups_s);
        vec![
            ("sim_ms_per_cpu_s", per(&|s| s.sim_ms / s.cpu_s)),
            ("cells_per_s", per(&|s| s.cells as f64 / s.wall_s)),
            ("req_per_s", per(&|s| s.ops as f64 / s.wall_s)),
            ("p50_ms", sys::median(&self.lat_ms)),
            ("tail_ms", tail),
            ("hit_p50_ms", sys::median(&self.hit_ms)),
            ("miss_p50_ms", sys::median(&self.miss_ms)),
            ("setup_s", sys::median(&self.setups_s)),
            ("peak_rss_mb", self.peak_rss_mib),
        ]
    }
}

/// How many times each workload repeats its set-up (median reported).
pub const SETUP_REPS: usize = 9;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |flag: &str| get(flag).unwrap_or_else(|| panic!("missing {flag}"));
    let expect_dir = PathBuf::from(need("--expect"));
    match argv.get(1).map(String::as_str) {
        Some("pin") => {
            expect::pin(&expect_dir);
            println!("pinned expectations written to {}", expect_dir.display());
        }
        Some("run") => {
            let workload = need("--workload");
            let mode = need("--mode");
            let seed: u64 = need("--seed").parse().expect("--seed is an integer");
            let ctx = Ctx {
                variant: inputs::variant(seed),
                seconds: need("--seconds").parse().expect("--seconds is a number"),
                expect: expect::Expect::load(&expect_dir),
                simulate: PathBuf::from(need("--simulate")),
                clk_tck: need("--clk-tck").parse().expect("--clk-tck is a number"),
                spans_out: get("--spans-out").map(PathBuf::from),
            };
            let out = match (workload.as_str(), mode.as_str()) {
                ("matrix", "e2e") => matrix::e2e(&ctx),
                ("campaign", "e2e") => campaign::e2e(&ctx),
                ("serve", "e2e") => serve::e2e(&ctx),
                (w, "base") => replay::base(&ctx, w),
                (w, "trace") => replay::trace(&ctx, w),
                (w, m) => panic!("unknown workload/mode {w}/{m}"),
            };
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|(k, v)| {
                    assert!(v.is_finite(), "metric {k} is not finite: {v}");
                    format!("\"{k}\": {v:?}")
                })
                .collect();
            println!(
                "{{\"attempted\": {}, \"failed\": {}, \"replay_s\": {:?}, \"metrics\": {{{}}}}}",
                out.attempted,
                out.failed,
                out.replay_s,
                metrics.join(", ")
            );
        }
        _ => panic!("usage: perfbench run|pin ... (see src/main.rs)"),
    }
}
