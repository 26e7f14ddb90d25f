//! Bit-for-bit pins of the memory controller's observable behaviour.
//!
//! Each configuration replays one seeded request stream — mixed read/write
//! sizes (aligned and not, sequential frame-like streams and random
//! addresses) at nondecreasing submit times, with idle gaps long enough to
//! power down and refresh — while a driver collects completions three ways:
//! exactly at `next_completion_time`, at random instants before it (which
//! must retire nothing early), and lagging at the next submit instant
//! (which retires several bursts in one call). Every `Completion` and every
//! `MemStats` counter, `busy_ns` and bandwidth window is folded into one
//! FNV-1a hash per configuration.
//!
//! The configurations span channels {1, 2, 4, 8} × {open, closed page} ×
//! {default tREFI, refresh off}, plus the ideal memory: the simulator
//! goldens only exercise 4-channel open-page LPDDR3, so these hashes are
//! what pins closed-page and saturated 1/2-channel behaviour. A controller
//! change that moves any completion instant, order or statistic fails
//! here; the pinned values were taken before the controller's data-layout
//! rewrite and must never be re-pinned to fit a refactor.

use desim::{SimDelta, SimTime, SplitMix64};
use dram::{Completion, DramConfig, MemOp, MemRequest, MemorySystem, PagePolicy};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn completions(&mut self, done: &[Completion]) {
        for c in done {
            self.word(c.tag);
            self.word(matches!(c.op, MemOp::Write) as u64);
            self.word(c.at.as_ns());
            self.word(c.submitted.as_ns());
        }
    }
}

/// One replayed stream.
struct Replay {
    hash: u64,
    completed: u64,
    end: SimTime,
    /// Deepest total burst queue seen right after a submit.
    max_queued: usize,
    mem: MemorySystem,
}

/// Replays the seeded stream of `requests` requests through `cfg`.
fn replay(cfg: DramConfig, seed: u64, requests: u64) -> Replay {
    let mut rng = SplitMix64::new(seed);
    let mut mem = MemorySystem::new(cfg);
    let mut h = Fnv::new();
    let mut out = Vec::new();
    let mut completed = 0u64;
    let mut max_queued = 0;
    let mut now = SimTime::ZERO;
    // A few sequential "frame" streams plus random traffic.
    let mut streams = [0u64, 1 << 24, 2 << 24, 3 << 24];
    for tag in 0..requests {
        // Inter-arrival: mostly back-to-back or short (saturating narrow
        // memories), sometimes long enough to power down or to span
        // several refresh windows.
        let gap = match rng.below(20) {
            0..=5 => 0,
            6..=16 => rng.below(800),
            17 | 18 => rng.range(1_000, 12_000),
            _ => rng.range(20_000, 60_000),
        };
        let submit_at = now + SimDelta::from_ns(gap);
        // Service everything due before the next submit, in one of three
        // driver styles.
        loop {
            let next = match mem.next_completion_time() {
                Some(t) if t <= submit_at => t,
                _ => break,
            };
            match rng.below(4) {
                0 if next > now => {
                    // A spurious poll strictly before the next completion.
                    let early = now + SimDelta::from_ns(rng.below(next.since(now).as_ns()));
                    mem.collect_completions_into(early, &mut out);
                    now = early;
                }
                1 => {
                    // A lagging poll that catches several completions.
                    mem.collect_completions_into(submit_at, &mut out);
                    now = submit_at;
                }
                _ => {
                    mem.collect_completions_into(next, &mut out);
                    now = next;
                }
            }
            h.completions(&out);
            completed += out.len() as u64;
            out.clear();
        }
        now = submit_at;
        let op = if rng.chance(0.4) {
            MemOp::Write
        } else {
            MemOp::Read
        };
        let (addr, bytes) = match rng.below(4) {
            0 | 1 => {
                // Frame-like streaming: 1–16 KB sub-frames, line aligned.
                let s = rng.below(streams.len() as u64) as usize;
                let bytes = 1024 * rng.range(1, 17);
                let addr = streams[s];
                streams[s] += bytes;
                (addr, bytes)
            }
            2 => (rng.below(1 << 26), rng.range(1, 4097)),
            _ => (rng.below(1 << 20) * 64, 64 * rng.range(1, 65)),
        };
        mem.submit(now, MemRequest::new(addr, bytes, op, tag));
        max_queued = max_queued.max(mem.queued_bursts());
    }
    // Drain at each completion instant.
    while let Some(t) = mem.next_completion_time() {
        now = now.max(t);
        mem.collect_completions_into(now, &mut out);
        h.completions(&out);
        completed += out.len() as u64;
        out.clear();
    }
    let until = now + SimDelta::from_us(1);
    let s = mem.stats();
    for c in [
        s.bytes_read,
        s.bytes_written,
        s.activates,
        s.refreshes,
        s.standby_ns,
        s.powerdown_ns,
        s.powerdown_exits,
        s.row_hits,
        s.row_empties,
        s.row_conflicts,
        s.requests,
    ] {
        h.word(c.get());
    }
    h.word(s.busy_ns);
    for w in s.bandwidth_windows_gbps(until) {
        h.word(w.to_bits());
    }
    Replay {
        hash: h.0,
        completed,
        end: now,
        max_queued,
        mem,
    }
}

fn config(channels: usize, policy: PagePolicy, refresh: bool) -> DramConfig {
    let mut cfg = DramConfig::lpddr3_table3();
    cfg.channels = channels;
    cfg.page_policy = policy;
    if !refresh {
        cfg.t_refi = SimDelta::ZERO;
    }
    cfg
}

/// `(name, hash)` pinned from the controller before its data-layout
/// rewrite.
const PINNED: &[(&str, u64)] = &[
    ("ch1-open-refi", 0xedbac52dddd20886),
    ("ch1-open-norefresh", 0x8f94e9fc60389c96),
    ("ch1-closed-refi", 0xf7ee4cd34fd5824c),
    ("ch1-closed-norefresh", 0xf33a383b2fbbdcc4),
    ("ch2-open-refi", 0x8cc29301eee77d44),
    ("ch2-open-norefresh", 0xabd9db3dbf63ba79),
    ("ch2-closed-refi", 0x19a1994e7f6b1880),
    ("ch2-closed-norefresh", 0x6b02b0a980558624),
    ("ch4-open-refi", 0xb0fb2fd58d502daf),
    ("ch4-open-norefresh", 0xed80d41f33ded6b1),
    ("ch4-closed-refi", 0xf902831265a00548),
    ("ch4-closed-norefresh", 0xcf907dbf332cc56b),
    ("ch8-open-refi", 0x750d33743226d752),
    ("ch8-open-norefresh", 0x57956b9c5b2f79e8),
    ("ch8-closed-refi", 0xb8b71d27ac1c00b8),
    ("ch8-closed-norefresh", 0x27079110826e24cd),
    ("ideal", 0x449cb263a6deabed),
];

const REQUESTS: u64 = 2_000;

fn configs() -> Vec<(String, DramConfig)> {
    let mut out = Vec::new();
    for channels in [1, 2, 4, 8] {
        for policy in [PagePolicy::Open, PagePolicy::Closed] {
            for refresh in [true, false] {
                let name = format!(
                    "ch{channels}-{}-{}",
                    if policy == PagePolicy::Open {
                        "open"
                    } else {
                        "closed"
                    },
                    if refresh { "refi" } else { "norefresh" }
                );
                out.push((name, config(channels, policy, refresh)));
            }
        }
    }
    out.push(("ideal".into(), DramConfig::ideal()));
    out
}

#[test]
fn controller_behaviour_is_pinned() {
    let mut actual = Vec::new();
    for (i, (name, cfg)) in configs().into_iter().enumerate() {
        let run = replay(cfg, 0x5eed_0000 + i as u64, REQUESTS);
        assert_eq!(
            run.completed, REQUESTS,
            "{name}: every request completes once"
        );
        actual.push((name, run.hash));
    }
    let table: String = actual
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", 0x{h:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(
        actual, pinned,
        "controller behaviour changed; actual table:\n{table}"
    );
}

/// The streams really do stress what the pins claim to cover: narrow
/// memories back up (hundreds of bursts queued), every non-ideal stream powers down and, unless
/// disabled, refreshes, and only the open-page policy ever hits a row.
#[test]
fn streams_cover_saturation_powerdown_and_refresh() {
    for (i, (name, cfg)) in configs().into_iter().enumerate() {
        if cfg.ideal {
            continue;
        }
        let channels = cfg.channels;
        let refresh = cfg.t_refi != SimDelta::ZERO;
        let open = cfg.page_policy == PagePolicy::Open;
        let run = replay(cfg, 0x5eed_0000 + i as u64, REQUESTS);
        let mut mem = run.mem;
        let s = mem.stats().clone();
        assert!(s.powerdown_exits.get() > 0, "{name}: never powered down");
        assert_eq!(s.refreshes.get() > 0, refresh, "{name}: refresh coverage");
        assert_eq!(s.row_hits.get() > 0, open, "{name}: row-hit coverage");
        assert!(
            s.bus_utilization(mem.config(), run.end) > 0.0,
            "{name}: idle"
        );
        if channels <= 2 {
            assert!(
                run.max_queued > 200,
                "{name}: stream never saturated ({} bursts queued)",
                run.max_queued
            );
        }
    }
}
