//! Host-side measurement helpers: process CPU time and peak RSS from
//! `/proc` (std only), a counting global allocator, latency summaries and
//! a small stable hash for pinned expectations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation request made by this process.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter is a statistic that publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation requests so far (alloc + alloc_zeroed + realloc).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// User+system CPU time of this whole process (all threads, including
/// exited ones) from `/proc/self/stat`, in seconds.
pub fn process_cpu_s(clk_tck: f64) -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are at offsets 11 and 12.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / clk_tck
}

/// On-CPU nanoseconds of the calling thread (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat on-CPU ns")
}

/// On-CPU seconds summed over a process's live threads
/// (`/proc/<pid>/task/*/schedstat`, nanosecond resolution). Threads that
/// already exited are not counted: use it for long-lived thread sets.
pub fn threads_cpu_s(pid: &str) -> f64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .unwrap_or_else(|e| panic!("cannot list /proc/{pid}/task: {e}"));
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/status: {e}"));
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the value
/// with exactly ten larger samples, or the maximum when there are fewer
/// than eleven. Returns `(value, percentile)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "tail of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s[n - 1], 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// FNV-1a over a byte string: a stable fingerprint for pinned files
/// (independent of the simulator's own hashers).
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
