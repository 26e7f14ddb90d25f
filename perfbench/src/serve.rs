//! `serve`: the real `simulate --serve` binary as a child process, driven
//! by a single-threaded closed loop that keeps [`WINDOW`] requests
//! outstanding (= the server's 2 workers = the host's 2 vCPUs).
//!
//! The script is the what-if recipe: sessions of 4 scenarios (a unit and
//! its DRAM-channel / extra-flow deltas) re-evaluated in 3 waves — the
//! first wave misses (warm-up + snapshot), later waves hit (restore +
//! tail) — plus one malformed request per session that must be refused.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use telemetry::json::{self, Json};
use vip_core::SystemSim;

use crate::inputs::{self, Request};
use crate::{sys, Checker, Ctx, EndToEnd, Outcome, Segment, SETUP_REPS};

/// Requests kept outstanding by the closed loop.
pub const WINDOW: usize = 2;
/// A reply slower than this counts every outstanding request as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Requests per block (the unit of a throughput segment).
const BLOCK_REQUESTS: usize = inputs::SESSION_REQUESTS * inputs::BLOCK_SESSIONS as usize;
/// Hit replies re-run cold after timing, to cross-check their digests.
const COLD_SAMPLE: usize = 4;

/// A running `simulate --serve` child with a line reader.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    pub pid: String,
}

impl Server {
    /// Spawns the server and answers one fixed, small warm-up request.
    pub fn start(ctx: &Ctx) -> Server {
        let mut child = Command::new(&ctx.simulate)
            .args(["--serve", "--workers", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", ctx.simulate.display()));
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = Server {
            pid: child.id().to_string(),
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
        };
        server.send(
            r#"{"id": 0, "unit": "A1", "scheme": "vip", "ms": 2, "warmup_ms": 1, "seed": 6900}"#,
        );
        let reply = server.recv().expect("warm-up reply");
        assert!(
            reply.contains("\"ok\": true"),
            "warm-up request failed: {reply}"
        );
        server
    }

    fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("server stdin open");
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .expect("write request to server");
    }

    fn recv(&mut self) -> Option<String> {
        self.lines.recv_timeout(REPLY_TIMEOUT).ok()
    }

    /// Closes stdin, lets the server drain and exit, and reaps it (killing
    /// it if it does not exit within the reply timeout).
    pub fn stop(mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while self.child.try_wait().expect("poll server").is_none() {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.wait().expect("reap server");
        if let Some(r) = self.reader.take() {
            r.join().expect("reader thread");
        }
    }
}

/// One answered request.
pub struct Reply {
    pub line: String,
    pub latency_ms: f64,
    pub ok: bool,
    pub hit: bool,
    pub worker: u64,
    pub events: u64,
    pub digest: String,
}

fn num(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

/// Checks a reply against its request's expectations.
fn check_reply(ctx: &Ctx, check: &mut Checker, req: &Request, doc: &Json, line: &str) {
    let ok = doc.get("ok") == Some(&Json::Bool(true));
    let Some(key) = req.scenario else {
        check.check(!ok, || format!("malformed request accepted: {line}"));
        return;
    };
    if !check.check(ok, || format!("unexpected ok:false: {line}")) {
        return;
    }
    let want_cache = if req.expect_hit { "hit" } else { "miss" };
    check.check(
        doc.get("cache").and_then(Json::as_str) == Some(want_cache),
        || format!("expected a cache {want_cache}: {line}"),
    );
    let got = (num(doc, "frames_completed"), num(doc, "energy_nj"));
    let want = ctx.expect.serve.get(&key).copied();
    check.check(
        want.is_some() && got == (want.map(|w| w.0), want.map(|w| w.1)),
        || format!("scenario {key:?}: got {got:?}, pinned {want:?}"),
    );
}

/// What one closed-loop drive produced.
pub struct Drive {
    pub replies: Vec<Reply>,
    pub wall_s: f64,
    pub sent: u64,
    /// Server CPU seconds over the drive.
    pub cpu_s: f64,
    /// `(wall s, server CPU s)` since the start, sampled after every
    /// block's worth of replies (in arrival order).
    pub marks: Vec<(f64, f64)>,
}

/// Drives the closed loop over the variant's block, repeated whole, until
/// `blocks` blocks were sent or — when `seconds` is given — the time is up.
pub fn drive(
    ctx: &Ctx,
    server: &mut Server,
    check: &mut Checker,
    blocks: u64,
    seconds: Option<f64>,
) -> Drive {
    let mut queue: std::collections::VecDeque<Request> = Default::default();
    let mut pending: HashMap<u64, (Request, String, Instant)> = HashMap::new();
    let mut replies = Vec::new();
    let mut marks = Vec::new();
    let (mut next_id, mut session) = (1u64, 0u64);
    let cpu0 = sys::threads_cpu_s(&server.pid);
    let t0 = Instant::now();
    loop {
        while pending.len() < WINDOW {
            if queue.is_empty() {
                let block_start = session % inputs::BLOCK_SESSIONS == 0;
                let out_of_time = seconds.is_some_and(|s| t0.elapsed().as_secs_f64() >= s);
                if block_start && (session / inputs::BLOCK_SESSIONS == blocks || out_of_time) {
                    break;
                }
                queue.extend(inputs::serve_session(ctx.variant, session).requests);
                session += 1;
            }
            let req = queue.pop_front().expect("queued request");
            let line = req.line(next_id);
            server.send(&line);
            pending.insert(next_id, (req, line, Instant::now()));
            next_id += 1;
        }
        if pending.is_empty() {
            break;
        }
        let Some(text) = server.recv() else {
            check.failed += pending.len() as u64;
            eprintln!("perfbench: {} serve replies missing", pending.len());
            break;
        };
        let now = Instant::now();
        let doc = match json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                check.check(false, || format!("unparseable reply ({e}): {text}"));
                continue;
            }
        };
        let Some((req, line, at)) = num(&doc, "id").and_then(|id| pending.remove(&id)) else {
            check.check(false, || format!("reply to no outstanding request: {text}"));
            continue;
        };
        check_reply(ctx, check, &req, &doc, &text);
        replies.push(Reply {
            ok: doc.get("ok") == Some(&Json::Bool(true)),
            hit: doc.get("cache").and_then(Json::as_str) == Some("hit"),
            worker: num(&doc, "worker").unwrap_or(0),
            events: num(&doc, "events").unwrap_or(0),
            digest: doc
                .get("digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            latency_ms: (now - at).as_secs_f64() * 1e3,
            line,
        });
        if replies.len() % BLOCK_REQUESTS == 0 {
            let cpu = sys::threads_cpu_s(&server.pid) - cpu0;
            marks.push(((now - t0).as_secs_f64(), cpu));
        }
    }
    Drive {
        replies,
        wall_s: t0.elapsed().as_secs_f64(),
        sent: next_id - 1,
        cpu_s: sys::threads_cpu_s(&server.pid) - cpu0,
        marks,
    }
}

/// Re-runs a sample of hit replies cold (`SystemSim::run`, same build) and
/// requires their digests to match.
fn cold_cross_check(replies: &[Reply], check: &mut Checker) {
    for r in replies.iter().filter(|r| r.ok && r.hit).take(COLD_SAMPLE) {
        let req = vip_bench::serve::resolve(&r.line).expect("scenario resolves");
        let cold = format!("{:016x}", SystemSim::run(req.cfg, req.flows).digest());
        check.check(cold == r.digest, || {
            format!("hit digest {} != cold run {cold}: {}", r.digest, r.line)
        });
    }
}

/// Share of simulated events answered by the busiest worker.
pub fn busiest_worker_share(replies: &[Reply]) -> f64 {
    let mut per = HashMap::<u64, u64>::new();
    for r in replies.iter().filter(|r| r.ok) {
        *per.entry(r.worker).or_default() += r.events;
    }
    let total: u64 = per.values().sum();
    *per.values().max().unwrap_or(&0) as f64 / total.max(1) as f64
}

pub fn e2e(ctx: &Ctx) -> Outcome {
    let mut setups_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = Server::start(ctx);
        setups_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = server.replace(s) {
            Server::stop(old);
        }
    }
    let mut server = server.expect("set up at least once");

    let mut check = Checker::default();
    let d = drive(ctx, &mut server, &mut check, u64::MAX, Some(ctx.seconds));
    let peak_rss_mib = sys::peak_rss_mib(&server.pid);
    server.stop();
    let replies = d.replies;
    cold_cross_check(&replies, &mut check);

    // One segment per block's worth of replies, in arrival order: every
    // block has the same composition, so segments are alike.
    let mut segments = Vec::new();
    let mut prev = (0.0, 0.0);
    for (k, &(t, cpu)) in d.marks.iter().enumerate() {
        let chunk = &replies[k * BLOCK_REQUESTS..(k + 1) * BLOCK_REQUESTS];
        let answered = chunk.iter().filter(|r| r.ok).count() as u64;
        segments.push(Segment {
            sim_ms: (answered * inputs::SERVE_MS) as f64,
            cpu_s: cpu - prev.1,
            wall_s: t - prev.0,
            cells: answered,
            ops: chunk.len() as u64,
        });
        prev = (t, cpu);
    }

    let ok: Vec<&Reply> = replies.iter().filter(|r| r.ok).collect();
    let pick = |hit: Option<bool>| -> Vec<f64> {
        ok.iter()
            .filter(|r| hit.is_none_or(|h| r.hit == h))
            .map(|r| r.latency_ms)
            .collect()
    };
    let e2e = EndToEnd {
        segments,
        lat_ms: pick(None),
        hit_ms: pick(Some(true)),
        miss_ms: pick(Some(false)),
        setups_s,
        peak_rss_mib,
    };
    println!("serve: {} replies", replies.len());
    Outcome {
        attempted: d.sent,
        failed: check.failed,
        replay_s: 0.0,
        metrics: e2e.metrics(),
    }
}
