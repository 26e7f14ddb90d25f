//! Pinned behaviour expectations (`expect/*.txt`) and the fingerprints
//! they hold. No expectation covers `events` or anything hashed over it,
//! so a change that only reschedules events (same behaviour, fewer
//! dispatches) passes the gate unchanged; event counts are reported as
//! `desim.*` metrics instead.
//!
//! `perfbench pin` regenerates the files from cold reference runs
//! (`SystemSim::run` / a fresh `SimCell`), never from the measured paths.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use telemetry::{CellResult, LogHistogram};
use vip_bench::RunSettings;
use vip_core::{SimCell, SystemReport, SystemSim};

use crate::inputs;
use crate::sys::fnv;

/// `SystemReport::digest` of the report with `events` zeroed: every
/// observable, no event schedule.
pub fn behaviour_digest(report: &SystemReport) -> u64 {
    let mut r = report.clone();
    r.events = 0;
    r.digest()
}

/// Energy as the serve and campaign records carry it (integer nJ).
pub fn energy_nj(report: &SystemReport) -> u64 {
    (report.energy.total_j() * 1e9).round() as u64
}

/// Fingerprint of every deterministic campaign-record field except
/// `events` and `digest` (which hashes `events`).
pub fn cell_fingerprint(r: &CellResult) -> u64 {
    let text = format!(
        "{}|{:x}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        r.cell,
        r.seed,
        r.workload,
        r.scheme,
        r.config,
        r.frames_sourced,
        r.frames_completed,
        r.frames_violated,
        r.frames_dropped,
        r.energy_nj,
        r.flow_time_ns.to_json()
    );
    fnv(text.as_bytes())
}

/// Distils a finished cell's record the way the campaign pool does
/// (`events_per_sec` is a wall-clock diagnostic and left at zero).
pub fn cell_record(
    spec: &vip_bench::CellSpec,
    report: &SystemReport,
    flow_time_ns: LogHistogram,
) -> CellResult {
    CellResult {
        cell: spec.index,
        seed: spec.seed,
        workload: spec.unit.label().to_string(),
        scheme: spec.scheme.label().to_string(),
        config: spec.config_key.clone(),
        digest: report.digest(),
        frames_sourced: report.frames_sourced,
        frames_completed: report.frames_completed,
        frames_violated: report.frames_violated,
        frames_dropped: report.frames_dropped_at_source,
        events: report.events,
        energy_nj: energy_nj(report),
        flow_time_ns,
        events_per_sec: 0.0,
    }
}

/// Settings a campaign cell runs under (as the campaign pool derives them).
pub fn cell_settings(spec: &vip_bench::CellSpec, ms: u64) -> RunSettings {
    RunSettings {
        duration: desim::SimDelta::from_ms(ms),
        seed: spec.seed,
    }
}

/// All pinned expectations.
#[derive(Default)]
pub struct Expect {
    /// `(settings seed, unit, scheme index)` → behaviour digest.
    pub matrix: HashMap<(u64, String, usize), u64>,
    /// `(grid seed, cell index)` → record fingerprint.
    pub campaign: HashMap<(u64, u64), u64>,
    /// `(slot, scenario)` → `(frames_completed, energy_nj)`.
    pub serve: HashMap<(u64, u64), (u64, u64)>,
}

fn fields(path: &Path) -> Vec<Vec<String>> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read pinned expectations {}: {e}", path.display()))
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

fn hex(s: &str) -> u64 {
    u64::from_str_radix(s.trim_start_matches("0x"), 16)
        .unwrap_or_else(|e| panic!("bad hex '{s}' in pinned expectations: {e}"))
}

fn int(s: &str) -> u64 {
    s.parse()
        .unwrap_or_else(|e| panic!("bad integer '{s}' in pinned expectations: {e}"))
}

impl Expect {
    pub fn load(dir: &Path) -> Expect {
        let mut e = Expect::default();
        for f in fields(&dir.join("matrix.txt")) {
            e.matrix
                .insert((hex(&f[0]), f[1].clone(), int(&f[2]) as usize), hex(&f[3]));
        }
        for f in fields(&dir.join("campaign.txt")) {
            e.campaign.insert((hex(&f[0]), int(&f[1])), hex(&f[2]));
        }
        for f in fields(&dir.join("serve.txt")) {
            e.serve
                .insert((int(&f[0]), int(&f[1])), (int(&f[2]), int(&f[3])));
        }
        e
    }
}

/// Runs `jobs` on two threads, returning results in job order.
fn par<T: Sync, R: Send>(jobs: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
    let (even, odd): (Vec<_>, Vec<_>) = out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
    std::thread::scope(|s| {
        for half in [even, odd] {
            let f = &f;
            s.spawn(move || {
                for (i, slot) in half {
                    *slot = Some(f(&jobs[i]));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("job ran")).collect()
}

/// Regenerates every pinned file under `dir` from cold reference runs.
pub fn pin(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create expectations dir");

    let mut jobs = Vec::new();
    for v in 0..inputs::VARIANTS {
        let m = inputs::matrix(v);
        jobs.extend(m.cells.iter().map(|&c| (m.settings, c)));
    }
    jobs.sort_by_key(|(s, (u, sc))| (s.seed, u.label(), inputs::scheme_index(*sc)));
    let digests = par(&jobs, |(settings, (unit, scheme))| {
        behaviour_digest(&unit.run(*scheme, *settings))
    });
    let mut text =
        String::from("# settings-seed unit scheme-index behaviour-digest (events zeroed)\n");
    for ((settings, (unit, scheme)), d) in jobs.iter().zip(digests) {
        let _ = writeln!(
            text,
            "{:#x} {} {} {d:#018x}",
            settings.seed,
            unit.label(),
            inputs::scheme_index(*scheme)
        );
    }
    std::fs::write(dir.join("matrix.txt"), text).expect("write matrix.txt");

    let cells: Vec<(u64, vip_bench::CellSpec)> = (0..inputs::CAMPAIGN_GRIDS)
        .flat_map(|k| {
            let spec = inputs::campaign_grid(k);
            spec.expand().into_iter().map(move |c| (spec.seed, c))
        })
        .collect();
    let fps = par(&cells, |(_, c)| {
        let settings = cell_settings(c, inputs::CAMPAIGN_MS);
        let mut cell = SimCell::new(c.cfg.clone(), c.unit.flows(settings));
        let report = cell.run();
        let mut hist = LogHistogram::new();
        cell.harvest_flow_times(&mut hist).expect("cell finished");
        cell_fingerprint(&cell_record(c, &report, hist))
    });
    let mut text =
        String::from("# grid-seed cell-index record-fingerprint (events, digest excluded)\n");
    for ((grid, c), fp) in cells.iter().zip(fps) {
        let _ = writeln!(text, "{grid:#x} {} {fp:#018x}", c.index);
    }
    std::fs::write(dir.join("campaign.txt"), text).expect("write campaign.txt");

    let mut scenarios: Vec<((u64, u64), String)> = inputs::serve_block(0)
        .iter()
        .flat_map(|s| &s.requests[..inputs::SESSION_SCENARIOS])
        .map(|r| (r.scenario.expect("first wave is well-formed"), r.line(0)))
        .collect();
    scenarios.sort();
    let pins = par(&scenarios, |(_, line)| {
        let req = vip_bench::serve::resolve(line).expect("scenario resolves");
        let report = SystemSim::run(req.cfg, req.flows);
        (report.frames_completed, energy_nj(&report))
    });
    let mut text = String::from("# slot scenario frames_completed energy_nj\n");
    for (((slot, s), _), (frames, nj)) in scenarios.iter().zip(pins) {
        let _ = writeln!(text, "{slot} {s} {frames} {nj}");
    }
    std::fs::write(dir.join("serve.txt"), text).expect("write serve.txt");
}
