//! `matrix`: the pinned perf subset (A1, A2, A5, W1, W5 × 5 schemes),
//! single-threaded on one warm cell — the per-cell path of
//! `Matrix::run_subset_workers(settings, units, 1)` (`Unit::run_warm` over
//! interned per-scheme configs), timed per cell.

use std::hint::black_box;
use std::time::Instant;

use desim::SimDelta;
use vip_bench::{RunSettings, Unit};
use vip_core::{Scheme, SystemConfig};
use workloads::App;

use crate::expect::behaviour_digest;
use crate::{inputs, sys, Checker, Ctx, EndToEnd, Outcome, Segment, SETUP_REPS};

/// The set-up warm-up cell: fixed, so set-up cost does not depend on
/// the variant's cell order.
const WARMUP: (Unit, Scheme, u64) = (Unit::App(App::A2), Scheme::Vip, 20);

pub fn e2e(ctx: &Ctx) -> Outcome {
    let mut setups_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let input = inputs::matrix(ctx.variant);
        let configs: Vec<SystemConfig> = Scheme::ALL
            .iter()
            .map(|&s| input.settings.config(s))
            .collect();
        let (unit, scheme, ms) = WARMUP;
        let warm = RunSettings {
            duration: SimDelta::from_ms(ms),
            ..input.settings
        };
        let mut cell = None;
        black_box(unit.run_warm(&warm.config(scheme), warm, &mut cell));
        setups_s.push(t.elapsed().as_secs_f64());
        prepared = Some((input, configs, cell));
    }
    let (input, configs, mut cell) = prepared.expect("set up at least once");

    let mut check = Checker::default();
    let (mut lat_ms, mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut segments = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < ctx.seconds {
        let (tp, cpu0) = (Instant::now(), sys::thread_cpu_ns());
        for &(unit, scheme) in &input.cells {
            let t = Instant::now();
            let report = unit.run_warm(
                &configs[inputs::scheme_index(scheme)],
                input.settings,
                &mut cell,
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            lat_ms.push(ms);
            // "hit": frames stay on-chip (IP-to-IP chaining); "miss":
            // every stage hand-off goes through DRAM.
            if scheme.chained() {
                &mut hit_ms
            } else {
                &mut miss_ms
            }
            .push(ms);
            let key = (
                input.settings.seed,
                unit.label().to_string(),
                inputs::scheme_index(scheme),
            );
            let want = ctx.expect.matrix.get(&key).copied();
            let got = behaviour_digest(&report);
            check.check(want == Some(got), || {
                format!("matrix {key:?}: digest {got:#018x}, pinned {want:x?}")
            });
        }
        // The pass runs on this thread alone: its CPU time is the thread's.
        let cells = input.cells.len() as u64;
        segments.push(Segment {
            sim_ms: (cells * inputs::MATRIX_MS) as f64,
            cpu_s: (sys::thread_cpu_ns() - cpu0) as f64 / 1e9,
            wall_s: tp.elapsed().as_secs_f64(),
            cells,
            ops: cells,
        });
    }
    let cells = lat_ms.len() as u64;
    let e2e = EndToEnd {
        segments,
        lat_ms,
        hit_ms,
        miss_ms,
        setups_s,
        peak_rss_mib: sys::peak_rss_mib("self"),
    };
    Outcome {
        attempted: cells,
        failed: check.failed,
        replay_s: 0.0,
        metrics: e2e.metrics(),
    }
}
