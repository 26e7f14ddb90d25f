//! `campaign`: seeded `CampaignSpec` grids of short cells on the 2-worker
//! `run_campaign` pool. Every streamed record is encoded to NDJSON, parsed
//! back strictly and aggregated — what the `campaign` binary does per
//! cell — and its fingerprint is checked against the pin.

use std::time::Instant;

use telemetry::{CampaignAggregator, CellResult};
use vip_bench::{run_campaign, CampaignSpec};
use vip_core::Scheme;

use crate::expect::cell_fingerprint;
use crate::{inputs, sys, Checker, Ctx, EndToEnd, Outcome, Segment, SETUP_REPS};

/// Pool width: the host's 2 vCPUs.
pub const WORKERS: usize = 2;

fn chained(scheme_label: &str) -> bool {
    Scheme::ALL
        .iter()
        .find(|s| s.label() == scheme_label)
        .is_some_and(|s| s.chained())
}

/// Per-cell service times seen by the drain loop, split as in `matrix`.
#[derive(Default)]
pub struct Latencies {
    pub all: Vec<f64>,
    pub hit: Vec<f64>,
    pub miss: Vec<f64>,
}

/// Runs one grid on the pool, checking every record. Returns the pass's
/// wall seconds and its straggler gap (last minus first worker finish).
pub fn pass(
    ctx: &Ctx,
    spec: &CampaignSpec,
    check: &mut Checker,
    agg: &mut CampaignAggregator,
    lat: &mut Latencies,
) -> (f64, f64) {
    let t0 = Instant::now();
    let mut last = [t0; WORKERS];
    run_campaign(spec, WORKERS, &Default::default(), |w, rec| {
        let now = Instant::now();
        // Time since this worker's previous record: its service time for
        // this cell (the first includes the pool's start-up).
        let ms = (now - last[w]).as_secs_f64() * 1e3;
        last[w] = now;
        lat.all.push(ms);
        if chained(&rec.scheme) {
            &mut lat.hit
        } else {
            &mut lat.miss
        }
        .push(ms);
        match CellResult::parse_line(&rec.to_ndjson()) {
            Ok(back) => {
                agg.add_cell(&back);
                let want = ctx.expect.campaign.get(&(spec.seed, back.cell)).copied();
                let got = cell_fingerprint(&back);
                check.check(want == Some(got), || {
                    format!(
                        "campaign grid {:#x} cell {}: fingerprint {got:#018x}, pinned {want:x?}",
                        spec.seed, back.cell
                    )
                });
            }
            Err(e) => {
                check.check(false, || format!("campaign record does not re-parse: {e}"));
            }
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let first = last.iter().min().expect("workers");
    let straggler = (*last.iter().max().expect("workers") - *first).as_secs_f64();
    (wall, straggler)
}

pub fn e2e(ctx: &Ctx) -> Outcome {
    let mut setups_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        // Expand the first grid and bring the 2-worker pool up on a fixed
        // warm-up grid of one cell per worker (thread spawn, warm-cell
        // allocation); more cells would make set-up time depend on which
        // worker happens to claim which cell.
        std::hint::black_box(inputs::campaign_grid(ctx.variant).expand());
        let warm = CampaignSpec {
            cells: WORKERS as u64,
            seed: 0xCA4D_FF00,
            ms: inputs::CAMPAIGN_MS,
        };
        run_campaign(&warm, WORKERS, &Default::default(), |_, r| {
            std::hint::black_box(r);
        });
        setups_s.push(t.elapsed().as_secs_f64());
    }

    let mut check = Checker::default();
    let mut agg = CampaignAggregator::new();
    let mut lat = Latencies::default();
    let mut segments = Vec::new();
    let (t0, mut grid) = (Instant::now(), ctx.variant);
    while t0.elapsed().as_secs_f64() < ctx.seconds {
        let spec = inputs::campaign_grid(grid);
        grid += 1;
        // Process CPU: the pool's worker threads exit with the pass.
        let cpu0 = sys::process_cpu_s(ctx.clk_tck);
        let (wall_s, _) = pass(ctx, &spec, &mut check, &mut agg, &mut lat);
        segments.push(Segment {
            sim_ms: (spec.cells * spec.ms) as f64,
            cpu_s: sys::process_cpu_s(ctx.clk_tck) - cpu0,
            wall_s,
            cells: spec.cells,
            ops: spec.cells,
        });
    }
    let cells = lat.all.len() as u64;
    check.check(agg.cells() == cells, || {
        format!("aggregator holds {} cells, {cells} streamed", agg.cells())
    });
    let e2e = EndToEnd {
        segments,
        lat_ms: lat.all,
        hit_ms: lat.hit,
        miss_ms: lat.miss,
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
