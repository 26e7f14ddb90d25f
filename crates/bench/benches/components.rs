//! Benches of the substrate components: DES engine throughput, event-queue
//! structures, DRAM controller service rate, and buffer flow-control
//! operations. Hand-rolled timing (median of repeated runs) so the bench
//! builds without external crates; run with `cargo bench --bench components`.

use std::hint::black_box;
use std::time::Instant;

use desim::{Engine, Model, Scheduler, SimDelta, SimTime};
use dram::{DramConfig, MemOp, MemRequest, MemorySystem};
use soc::LaneBuffer;

/// Times `f` over `iters` runs and reports the median per-run time.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!(
        "{name:<28} {:>12.3} ms/iter  ({iters} iters)",
        median as f64 / 1e6
    );
}

struct Chain {
    hops: u32,
}
impl Model for Chain {
    type Event = ();
    fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
        if self.hops > 0 {
            self.hops -= 1;
            sched.after(SimDelta::from_ns(5), ());
        }
    }
}

fn bench_engine() {
    bench("desim-100k-events", 20, || {
        let mut eng = Engine::new(Chain { hops: 100_000 });
        eng.scheduler().immediately(());
        eng.run();
        black_box(eng.now());
    });
}

fn bench_calendar_vs_heap() {
    use desim::CalendarQueue;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let times: Vec<u64> = {
        let mut rng = desim::SplitMix64::new(5);
        (0..50_000).map(|_| rng.below(1_000_000)).collect()
    };

    bench("queue-50k/binary-heap", 20, || {
        let mut h: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        for (i, &t) in times.iter().enumerate() {
            h.push(Reverse((t, i as u64)));
        }
        let mut n = 0u64;
        while h.pop().is_some() {
            n += 1;
        }
        black_box(n);
    });
    bench("queue-50k/calendar-queue", 20, || {
        let mut q = CalendarQueue::with_geometry(1024, 1024);
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i as u64);
        }
        let mut n = 0u64;
        while q.pop().is_some() {
            n += 1;
        }
        black_box(n);
    });
}

/// Drives `mem` the way the SoC does: step `i` submits `reqs(i)` at
/// `i × gap_ns` — or later, once fewer than `window` requests are
/// outstanding (the doorbell credit) — collecting completions at every
/// `next_completion_time` on the way; then drains. Returns completions.
fn drive_dram(
    mem: &mut MemorySystem,
    steps: u64,
    gap_ns: u64,
    window: usize,
    mut reqs: impl FnMut(u64, &mut Vec<MemRequest>),
) -> usize {
    let mut done = Vec::new();
    let mut batch = Vec::new();
    let mut now = SimTime::ZERO;
    let mut submitted = 0;
    for i in 0..steps {
        let at = now.max(SimTime::from_ns(i * gap_ns));
        while let Some(t) = mem.next_completion_time() {
            if t > at && submitted - done.len() < window {
                break;
            }
            now = now.max(t);
            mem.collect_completions_into(now, &mut done);
        }
        now = now.max(at);
        batch.clear();
        reqs(i, &mut batch);
        for &r in &batch {
            mem.submit(now, r);
        }
        submitted += batch.len();
    }
    done.len() + mem.drain(now).len()
}

fn bench_dram() {
    bench("dram-4k-requests", 20, || {
        let mut mem = MemorySystem::new(DramConfig::lpddr3_table3());
        for i in 0..4096u64 {
            mem.submit(
                SimTime::ZERO,
                MemRequest::new(i * 1024, 1024, MemOp::Read, i),
            );
        }
        black_box(mem.drain(SimTime::ZERO).len());
    });
    // One channel kept saturated by a closed loop of 16 outstanding 4 KB
    // requests: every collection pumps an FR-FCFS scan over a full queue.
    bench("dram-1ch-saturated", 10, || {
        let mut cfg = DramConfig::lpddr3_table3();
        cfg.channels = 1;
        let mut mem = MemorySystem::new(cfg);
        let n = drive_dram(&mut mem, 8192, 0, 16, |i, out| {
            let op = if i % 3 == 0 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            out.push(MemRequest::new((i % 512) * 4096, 4096, op, i));
        });
        black_box(n);
    });
    // The matrix cells' shape on the Table 3 memory: 16 KB input reads
    // plus posted 4 KB output writes from a few concurrent streams, ~60 %
    // bus utilization, collected at each completion instant.
    bench("dram-4ch-matrix", 10, || {
        let mut mem = MemorySystem::new(DramConfig::lpddr3_table3());
        let n = drive_dram(&mut mem, 4096, 2000, usize::MAX, |i, out| {
            let stream = (i % 4) << 26;
            let k = i / 4;
            out.push(MemRequest::new(
                stream + k * 16384,
                16384,
                MemOp::Read,
                2 * i,
            ));
            out.push(MemRequest::new(
                stream + (1 << 25) + k * 4096,
                4096,
                MemOp::Write,
                2 * i + 1,
            ));
        });
        black_box(n);
    });
}

fn bench_buffer() {
    bench("lane-buffer-1m-ops", 10, || {
        let mut lane = LaneBuffer::new(2048);
        let mut moved = 0u64;
        for _ in 0..1_000_000 {
            if lane.try_reserve(1024) {
                lane.commit(1024);
            } else {
                lane.consume(1024);
            }
            moved += 1024;
        }
        black_box(moved);
    });
}

fn main() {
    bench_engine();
    bench_calendar_vs_heap();
    bench_dram();
    bench_buffer();
}
