//! Seeded input generation. The workload seed picks one of [`VARIANTS`]
//! input variants; every input the program receives is derived from it
//! here, and every output it should produce is pinned in `expect/`.
//!
//! The universe of inputs is finite on purpose: each cell, grid and
//! scenario a run can reach has a pinned expectation, so any seed runs
//! fully behaviour-checked.

use desim::{SimDelta, SplitMix64};
use vip_bench::{CampaignSpec, RunSettings, Unit};
use vip_core::Scheme;
use workloads::{App, Workload};

/// Number of distinct input variants; a seed selects `seed % VARIANTS`.
pub const VARIANTS: u64 = 16;

/// The input variant a workload seed selects.
pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Simulated horizon of a matrix cell (the golden-table horizon: every
/// pinned unit reaches DRAM contention, DVFS and sleep transitions).
pub const MATRIX_MS: u64 = 50;

/// The pinned perf subset (A1, A2, A5, W1, W5) under every scheme.
pub fn matrix_units() -> [Unit; 5] {
    [
        Unit::App(App::A1),
        Unit::App(App::A2),
        Unit::App(App::A5),
        Unit::Wkld(Workload::W1),
        Unit::Wkld(Workload::W5),
    ]
}

/// Position of `s` in `Scheme::ALL` (scheme labels contain spaces, so
/// pinned files and config tables use the index).
pub fn scheme_index(s: Scheme) -> usize {
    Scheme::ALL
        .iter()
        .position(|&x| x == s)
        .expect("known scheme")
}

/// One matrix pass: settings plus the unit-major cell order.
pub struct MatrixInput {
    pub settings: RunSettings,
    pub cells: Vec<(Unit, Scheme)>,
}

/// Variant `v` of the matrix: the run-settings seed and the order in which
/// units visit the warm cell.
pub fn matrix(v: u64) -> MatrixInput {
    let settings = RunSettings {
        duration: SimDelta::from_ms(MATRIX_MS),
        seed: RunSettings::default().seed + v,
    };
    let mut units = matrix_units();
    shuffle(&mut units, &mut SplitMix64::new(0x3A7_0000 + v));
    let cells = units
        .iter()
        .flat_map(|&u| Scheme::ALL.iter().map(move |&s| (u, s)))
        .collect();
    MatrixInput { settings, cells }
}

/// Cells per campaign grid, and their (short) simulated horizon.
pub const CAMPAIGN_CELLS: u64 = 120;
pub const CAMPAIGN_MS: u64 = 10;
/// Pinned campaign grids; a run cycles through them from its variant.
pub const CAMPAIGN_GRIDS: u64 = 16;

/// Campaign grid `k` of the pinned universe (a run cycles through the
/// grids from its variant's, one grid per segment).
pub fn campaign_grid(k: u64) -> CampaignSpec {
    CampaignSpec {
        cells: CAMPAIGN_CELLS,
        seed: 0xCA4D_0000 + k % CAMPAIGN_GRIDS,
        ms: CAMPAIGN_MS,
    }
}

/// Serve scenario horizon and the warm prefix every scenario snapshots.
pub const SERVE_MS: u64 = 30;
pub const SERVE_WARMUP_MS: u64 = 20;
/// Scenarios per session: kept at half the server's default snapshot
/// cache (8), so LRU eviction can never touch a live scenario whatever
/// the worker timing.
pub const SESSION_SCENARIOS: usize = 4;
/// Evaluation waves per session: the first misses, the rest hit.
pub const SESSION_WAVES: usize = 3;
/// Sessions per block: one per slot.
pub const BLOCK_SESSIONS: u64 = SLOTS.len() as u64;
/// Requests per session: the waves plus the malformed request.
pub const SESSION_REQUESTS: usize = SESSION_SCENARIOS * SESSION_WAVES + 1;

/// One request of the serve script.
#[derive(Debug, Clone)]
pub struct Request {
    /// JSON members after `"id"` (the id is assigned when sent).
    pub body: String,
    /// `None` for a malformed request that must be refused (`ok:false`);
    /// otherwise the scenario's pin key `(slot, scenario)`.
    pub scenario: Option<(u64, u64)>,
    /// Whether the reply must be a cache hit (every wave after the first).
    pub expect_hit: bool,
}

impl Request {
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\": {id}, {}}}", self.body)
    }
}

/// One what-if session: a unit/scheme with its delta scenarios, evaluated
/// in waves, plus one malformed request.
#[derive(Debug, Clone)]
pub struct Session {
    pub unit: Unit,
    pub scheme: Scheme,
    pub seed: u64,
    pub requests: Vec<Request>,
}

/// What-if deltas; each differs from the Table 3 platform (4 channels),
/// so every scenario of a session is its own cache key.
const DELTAS: [&str; 6] = [
    r#""whatif": {"dram_channels": 1}"#,
    r#""whatif": {"dram_channels": 2}"#,
    r#""whatif": {"extra_flows": 1}"#,
    r#""whatif": {"extra_flows": 2}"#,
    r#""whatif": {"dram_channels": 1, "extra_flows": 1}"#,
    r#""whatif": {"dram_channels": 2, "extra_flows": 1}"#,
];

const MALFORMED: [&str; 5] = [
    r#""unit": "Z9", "scheme": "vip", "ms": 30"#,
    r#""unit": "A1", "scheme": "warp", "ms": 30"#,
    r#""unit": "A1", "ms": 30, "warmup_ms": 30"#,
    r#""scheme": "vip", "ms": 30"#,
    r#""unit": "A1", "ms": 0"#,
];

/// The session slots of every serve block: a spread of units and schemes
/// (DRAM-path and IP-to-IP), each with three fixed deltas.
const SLOTS: [(Unit, Scheme, [usize; 3]); 4] = [
    (Unit::App(App::A5), Scheme::Vip, [0, 2, 4]),
    (Unit::App(App::A2), Scheme::Baseline, [1, 3, 5]),
    (Unit::Wkld(Workload::W5), Scheme::IpToIp, [0, 3, 5]),
    (Unit::App(App::A1), Scheme::FrameBurst, [1, 2, 4]),
];

/// The serve block of variant `v`: one session per slot in a seeded order.
/// A run repeats this block, so every block of every seed holds the same
/// scenarios (the same cache keys, hence the same key-affinity routing);
/// seeds differ in session order. A session's scenarios are evicted by the
/// 12 other scenarios of a block before it comes round again, so its first
/// wave always misses.
pub fn serve_block(v: u64) -> Vec<Session> {
    let mut slots: Vec<usize> = (0..SLOTS.len()).collect();
    shuffle(&mut slots, &mut SplitMix64::new(0x5E4E_0000 + v % VARIANTS));
    slots
        .into_iter()
        .map(|i| {
            let (unit, scheme, deltas) = SLOTS[i];
            let seed = 7000 + i as u64;
            let base = format!(
                r#""unit": "{}", "scheme": "{}", "ms": {SERVE_MS}, "warmup_ms": {SERVE_WARMUP_MS}, "seed": {seed}"#,
                unit.label(),
                scheme.label()
            );
            let scenarios: Vec<String> = std::iter::once(base.clone())
                .chain(deltas.iter().map(|&d| format!("{base}, {}", DELTAS[d])))
                .collect();
            let mut requests = Vec::new();
            for wave in 0..SESSION_WAVES {
                for (s, body) in scenarios.iter().enumerate() {
                    requests.push(Request {
                        body: body.clone(),
                        scenario: Some((i as u64, s as u64)),
                        expect_hit: wave > 0,
                    });
                }
                if wave == 0 {
                    requests.push(Request {
                        body: MALFORMED[i % MALFORMED.len()].to_string(),
                        scenario: None,
                        expect_hit: false,
                    });
                }
            }
            Session {
                unit,
                scheme,
                seed,
                requests,
            }
        })
        .collect()
}

/// Session `i` of the serve script of variant `v` (its block, repeated).
pub fn serve_session(v: u64, i: u64) -> Session {
    serve_block(v)
        .into_iter()
        .nth((i % BLOCK_SESSIONS) as usize)
        .expect("session index within block")
}
