//! Per-channel FR-FCFS memory controller.
//!
//! Each channel owns its banks and data bus. Scheduling is FR-FCFS
//! (first-ready, first-come-first-served): among queued bursts the
//! controller first prefers one that hits the open row of its bank, and
//! otherwise takes the oldest. One burst's data transfer occupies the bus
//! at a time; activates/precharges of the *selected* burst overlap with
//! nothing (a deliberate, documented simplification that slightly favors
//! row hits — exactly the effect FR-FCFS exists to exploit).

use desim::SimTime;

use crate::config::DramConfig;
use crate::request::MemOp;

/// Row-buffer outcome of a burst, for hit-rate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The needed row was already open.
    Hit,
    /// The bank was idle; an activate was needed.
    Empty,
    /// Another row was open; precharge + activate were needed.
    Conflict,
}

/// `Bank::open_row` of a precharged bank. Rows are the address bits above
/// a row's byte offset, so only a 1-byte-row geometry addressing the last
/// byte of the address space could produce it.
const NO_ROW: u64 = u64::MAX;

/// One bank's state.
#[derive(Debug, Clone)]
struct Bank {
    /// The open row, or [`NO_ROW`]: a plain compare in the FR-FCFS scan.
    open_row: u64,
    ready_at: SimTime,
}

/// A line burst queued at one channel: `lines` consecutive cache lines in a
/// single `(bank, row)`.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Bank index within this channel.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Number of cache lines.
    pub lines: u64,
    /// Read or write.
    pub op: MemOp,
    /// Index of the parent request in the memory system's table.
    pub parent: usize,
}

/// A burst the controller has committed to service.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    /// The serviced burst.
    pub burst: Burst,
    /// When its last line finishes on the data bus.
    pub done: SimTime,
    /// Row-buffer outcome (for statistics).
    pub outcome: RowOutcome,
    /// Whether an activate was performed (for energy).
    pub activated: bool,
}

/// How many bursts may be committed (command-pipelined) at once. Two lets
/// the CAS latency of burst *n+1* hide under the data transfer of burst
/// *n*, which is what lets real controllers stream at peak bandwidth.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// Retired slots the queue's head may leave behind before it compacts: a
/// bound on the dead prefix, so the buffer stays near the live depth.
const COMPACT_AT: usize = 16;

/// One LPDDR3 channel: banks, a data bus, and an FR-FCFS queue.
///
/// The queue is one arrival-ordered `Vec` whose live part starts at
/// `head`: the FR-FCFS scan walks a plain slice, taking the oldest burst
/// (the common case) only advances `head`, and a younger pick shifts the
/// older bursts in front of it up by one slot. Observed depths stay in the
/// tens (the doorbell credit scheme upstream bounds outstanding fetches),
/// so the scan is short and anything cleverer costs more in bookkeeping
/// than it saves.
#[derive(Debug)]
pub struct Channel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_free_at: SimTime,
    /// Bursts in arrival order; `queue[head..]` are waiting.
    queue: Vec<Burst>,
    head: usize,
    in_service: usize,
    next_refresh: SimTime,
    last_service_end: SimTime,
    /// All-bank refreshes performed.
    pub refreshes: u64,
    /// Nanoseconds idle but not long enough to power down.
    pub standby_ns: u64,
    /// Nanoseconds resident in power-down.
    pub powerdown_ns: u64,
    /// Power-down exits (each pays tXP).
    pub powerdown_exits: u64,
}

/// Copies only the waiting bursts — the retired prefix is dead — so a
/// snapshot holds what a fresh queue would. The destructure in
/// `clone_from` is exhaustive: a new field must be restored to compile.
impl Clone for Channel {
    fn clone(&self) -> Self {
        let mut out = Channel::new(self.cfg.clone());
        out.clone_from(self);
        out
    }

    fn clone_from(&mut self, src: &Self) {
        let Channel {
            cfg,
            banks,
            bus_free_at,
            queue,
            head,
            in_service,
            next_refresh,
            last_service_end,
            refreshes,
            standby_ns,
            powerdown_ns,
            powerdown_exits,
        } = src;
        self.cfg.clone_from(cfg);
        self.banks.clone_from(banks);
        self.bus_free_at = *bus_free_at;
        self.queue.clear();
        self.queue.extend_from_slice(&queue[*head..]);
        self.head = 0;
        self.in_service = *in_service;
        self.next_refresh = *next_refresh;
        self.last_service_end = *last_service_end;
        self.refreshes = *refreshes;
        self.standby_ns = *standby_ns;
        self.powerdown_ns = *powerdown_ns;
        self.powerdown_exits = *powerdown_exits;
    }
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        let banks: Vec<Bank> = (0..cfg.banks)
            .map(|_| Bank {
                open_row: NO_ROW,
                ready_at: SimTime::ZERO,
            })
            .collect();
        let next_refresh = SimTime::ZERO + cfg.t_refi;
        Channel {
            cfg,
            banks,
            bus_free_at: SimTime::ZERO,
            queue: Vec::new(),
            head: 0,
            in_service: 0,
            next_refresh,
            last_service_end: SimTime::ZERO,
            refreshes: 0,
            standby_ns: 0,
            powerdown_ns: 0,
            powerdown_exits: 0,
        }
    }

    /// Performs any refreshes that have come due by `now`: every bank and
    /// the bus stall for `tRFC` per elapsed `tREFI` window. All elapsed
    /// windows are applied at once — the stalls of windows before the last
    /// are subsumed by the last one's (`ready_at`/`bus_free_at` only ever
    /// take maxima, and the resume times increase per window), so a
    /// channel that idled through thousands of windows catches up in O(1)
    /// instead of walking each window.
    fn catch_up_refresh(&mut self, now: SimTime) {
        if self.cfg.t_refi == desim::SimDelta::ZERO || self.next_refresh > now {
            return;
        }
        let windows = now.since(self.next_refresh).as_ns() / self.cfg.t_refi.as_ns() + 1;
        let last = self.next_refresh + self.cfg.t_refi * (windows - 1);
        let resume = last + self.cfg.t_rfc;
        for b in &mut self.banks {
            b.ready_at = b.ready_at.max(resume);
        }
        self.bus_free_at = self.bus_free_at.max(resume);
        self.refreshes += windows;
        self.next_refresh = last + self.cfg.t_refi;
    }

    /// Queues a burst (does not issue it; call [`Channel::try_issue`]).
    pub fn enqueue(&mut self, _now: SimTime, burst: Burst) {
        if self.head == self.queue.len() {
            // Empty: recycle the whole buffer.
            self.queue.clear();
            self.head = 0;
        } else if self.head >= COMPACT_AT {
            self.queue.drain(..self.head);
            self.head = 0;
        }
        self.queue.push(burst);
    }

    /// Number of bursts waiting (excluding the ones in service).
    pub fn queued(&self) -> usize {
        self.queue.len() - self.head
    }

    /// Whether [`try_issue`](Channel::try_issue) would commit a burst: the
    /// command pipeline has room and a burst is waiting.
    #[inline]
    pub fn can_issue(&self) -> bool {
        self.in_service < PIPELINE_DEPTH && self.head < self.queue.len()
    }

    /// Removes and returns the waiting burst at `pick` (relative to the
    /// queue head), keeping the rest in arrival order.
    #[inline]
    fn take(&mut self, pick: usize) -> Burst {
        let at = self.head + pick;
        if pick < self.queue.len() - at {
            // Fewer bursts in front: they move up one slot.
            let burst = self.queue[at];
            self.queue.copy_within(self.head..at, self.head + 1);
            self.head += 1;
            burst
        } else {
            self.queue.remove(at)
        }
    }

    /// Whether any burst is currently committed to the bus.
    pub fn busy(&self) -> bool {
        self.in_service > 0
    }

    /// Marks one committed burst finished. Must be called exactly once per
    /// [`Issued`] result, at or after its `done` time.
    pub fn service_complete(&mut self) {
        debug_assert!(self.in_service > 0, "service_complete while idle");
        self.in_service -= 1;
    }

    /// FR-FCFS: picks and commits the next burst if the command pipeline
    /// has room. Returns the service decision, including its completion
    /// time.
    pub fn try_issue(&mut self, now: SimTime) -> Option<Issued> {
        if !self.can_issue() {
            return None;
        }
        self.catch_up_refresh(now);
        // First-ready: oldest burst whose bank has its row open and is ready.
        let banks = &self.banks;
        let pick = self.queue[self.head..]
            .iter()
            .position(|b| {
                let bank = &banks[b.bank];
                bank.open_row == b.row && bank.ready_at <= now
            })
            .unwrap_or(0); // else FCFS
        let burst = self.take(pick);

        let bank = &mut self.banks[burst.bank];
        let (outcome, row_latency, activated) = match bank.open_row {
            r if r == burst.row => (RowOutcome::Hit, desim::SimDelta::ZERO, false),
            NO_ROW => (RowOutcome::Empty, self.cfg.t_rcd, true),
            _ => (RowOutcome::Conflict, self.cfg.t_rp + self.cfg.t_rcd, true),
        };

        // Power-state accounting for the idle gap before this service:
        // short gaps stay in standby; past the entry threshold the channel
        // powers down and the wake pays tXP.
        let mut t_cmd = now.max(bank.ready_at);
        let gap = t_cmd.saturating_since(self.last_service_end);
        if gap > self.cfg.t_powerdown_entry {
            self.standby_ns += self.cfg.t_powerdown_entry.as_ns();
            self.powerdown_ns += (gap - self.cfg.t_powerdown_entry).as_ns();
            self.powerdown_exits += 1;
            t_cmd += self.cfg.t_xp;
        } else {
            self.standby_ns += gap.as_ns();
        }
        let data_ready = t_cmd + row_latency + self.cfg.t_cl;
        let t_start = data_ready.max(self.bus_free_at);
        let done = t_start + self.cfg.t_line * burst.lines;

        match self.cfg.page_policy {
            crate::config::PagePolicy::Open => {
                bank.open_row = burst.row;
                bank.ready_at = done;
            }
            crate::config::PagePolicy::Closed => {
                // Auto-precharge: the row closes behind the burst.
                bank.open_row = NO_ROW;
                bank.ready_at = done + self.cfg.t_rp;
            }
        }
        self.bus_free_at = done;
        self.last_service_end = self.last_service_end.max(done);
        self.in_service += 1;

        Some(Issued {
            burst,
            done,
            outcome,
            activated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> Channel {
        Channel::new(DramConfig::lpddr3_table3())
    }

    fn burst(bank: usize, row: u64, lines: u64) -> Burst {
        Burst {
            bank,
            row,
            lines,
            op: MemOp::Read,
            parent: 0,
        }
    }

    #[test]
    fn empty_bank_pays_trcd_plus_tcl() {
        let mut c = chan();
        c.enqueue(SimTime::ZERO, burst(0, 5, 1));
        let iss = c.try_issue(SimTime::ZERO).unwrap();
        // tRCD(12) + tCL(12) + 1 line (15) = 39ns
        assert_eq!(iss.done, SimTime::from_ns(39));
        assert_eq!(iss.outcome, RowOutcome::Empty);
        assert!(iss.activated);
    }

    #[test]
    fn row_hit_skips_activation() {
        let mut c = chan();
        c.enqueue(SimTime::ZERO, burst(0, 5, 1));
        let first = c.try_issue(SimTime::ZERO).unwrap();
        c.service_complete();
        c.enqueue(first.done, burst(0, 5, 1));
        let second = c.try_issue(first.done).unwrap();
        assert_eq!(second.outcome, RowOutcome::Hit);
        assert!(!second.activated);
        // tCL + 1 line after the bank frees.
        assert_eq!(second.done, first.done + desim::SimDelta::from_ns(27));
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut c = chan();
        c.enqueue(SimTime::ZERO, burst(0, 5, 1));
        let first = c.try_issue(SimTime::ZERO).unwrap();
        c.service_complete();
        c.enqueue(first.done, burst(0, 9, 1));
        let second = c.try_issue(first.done).unwrap();
        assert_eq!(second.outcome, RowOutcome::Conflict);
        // tRP + tRCD + tCL + 1 line = 12+12+12+15 = 51ns later.
        assert_eq!(second.done, first.done + desim::SimDelta::from_ns(51));
    }

    #[test]
    fn fr_fcfs_prefers_open_row() {
        let mut c = chan();
        // Open row 1 on bank 0.
        c.enqueue(SimTime::ZERO, burst(0, 1, 1));
        let first = c.try_issue(SimTime::ZERO).unwrap();
        c.service_complete();
        // Queue a conflict (row 2) then a hit (row 1): the hit must win even
        // though it is younger.
        c.enqueue(first.done, burst(0, 2, 1));
        c.enqueue(first.done, burst(0, 1, 1));
        let second = c.try_issue(first.done).unwrap();
        assert_eq!(second.burst.row, 1);
        assert_eq!(second.outcome, RowOutcome::Hit);
    }

    #[test]
    fn pipeline_depth_is_bounded() {
        let mut c = chan();
        c.enqueue(SimTime::ZERO, burst(0, 1, 4));
        c.enqueue(SimTime::ZERO, burst(1, 1, 4));
        c.enqueue(SimTime::ZERO, burst(2, 1, 4));
        assert!(c.try_issue(SimTime::ZERO).is_some());
        assert!(c.try_issue(SimTime::ZERO).is_some(), "depth-2 pipeline");
        assert!(c.try_issue(SimTime::ZERO).is_none(), "pipeline full");
        c.service_complete();
        assert!(c.try_issue(SimTime::from_ns(100)).is_some());
    }

    #[test]
    fn pipelined_bursts_serialize_on_the_bus() {
        let mut c = chan();
        c.enqueue(SimTime::ZERO, burst(0, 1, 4));
        c.enqueue(SimTime::ZERO, burst(1, 1, 4));
        let a = c.try_issue(SimTime::ZERO).unwrap();
        let b = c.try_issue(SimTime::ZERO).unwrap();
        // Second transfer starts no earlier than the first ends.
        assert!(b.done >= a.done + desim::SimDelta::from_ns(60));
    }

    #[test]
    fn refresh_stalls_the_banks() {
        let mut c = chan();
        // Jump past several tREFI windows, then issue: the burst must wait
        // out the pending refresh.
        let late = SimTime::from_ns(3950); // just past the first tREFI
        c.enqueue(late, burst(0, 5, 1));
        let iss = c.try_issue(late).unwrap();
        assert_eq!(c.refreshes, 1);
        // Bank resumes at 3900 + 130 = 4030; the long idle also powered
        // the channel down (+tXP 10); +tRCD+tCL+line = 4079.
        assert_eq!(iss.done, SimTime::from_ns(4030 + 10 + 39));
    }

    #[test]
    fn refresh_disabled_when_trefi_zero() {
        let mut cfg = DramConfig::lpddr3_table3();
        cfg.t_refi = desim::SimDelta::ZERO;
        let mut c = Channel::new(cfg);
        c.enqueue(SimTime::from_ms(1), burst(0, 5, 1));
        let _ = c.try_issue(SimTime::from_ms(1)).unwrap();
        assert_eq!(c.refreshes, 0);
    }

    #[test]
    fn long_idle_powers_down_and_pays_txp() {
        let mut c = chan();
        // First access at t=0 (gap 0 from the epoch).
        c.enqueue(SimTime::ZERO, burst(0, 1, 1));
        let a = c.try_issue(SimTime::ZERO).unwrap();
        c.service_complete();
        assert_eq!(c.powerdown_exits, 0);
        // Next access 50us later: channel powered down in between.
        let late = a.done + desim::SimDelta::from_us(50);
        c.enqueue(late, burst(0, 1, 1));
        let b = c.try_issue(late).unwrap();
        assert_eq!(c.powerdown_exits, 1);
        assert!(c.powerdown_ns > 40_000, "{}", c.powerdown_ns);
        assert!(c.standby_ns >= 1_000, "threshold portion is standby");
        // The wake costs tXP on top of the row path.
        assert!(b.done >= late + desim::SimDelta::from_ns(10));
    }

    #[test]
    fn back_to_back_stays_in_standby() {
        let mut c = chan();
        c.enqueue(SimTime::ZERO, burst(0, 1, 4));
        let a = c.try_issue(SimTime::ZERO).unwrap();
        c.service_complete();
        c.enqueue(a.done, burst(0, 1, 4));
        let _ = c.try_issue(a.done).unwrap();
        assert_eq!(c.powerdown_exits, 0);
        assert_eq!(c.powerdown_ns, 0);
    }

    #[test]
    fn closed_page_never_hits_and_loses_on_streams() {
        let mut cfg = DramConfig::lpddr3_table3();
        cfg.page_policy = crate::config::PagePolicy::Closed;
        let mut c = Channel::new(cfg);
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for i in 0..32u64 {
            c.enqueue(now, burst(0, 0, 1)); // all in one row: open-page heaven
            if let Some(iss) = c.try_issue(now) {
                assert_ne!(iss.outcome, RowOutcome::Hit, "closed page cannot hit");
                now = iss.done;
                last = iss.done;
                c.service_complete();
            }
            let _ = i;
        }
        // Compare with open page on the same stream.
        let mut c2 = chan();
        let mut now2 = SimTime::ZERO;
        let mut last2 = SimTime::ZERO;
        for _ in 0..32u64 {
            c2.enqueue(now2, burst(0, 0, 1));
            if let Some(iss) = c2.try_issue(now2) {
                now2 = iss.done;
                last2 = iss.done;
                c2.service_complete();
            }
        }
        assert!(last2 < last, "open page must win a same-row stream");
    }

    #[test]
    fn streaming_row_hits_approach_peak_bandwidth() {
        let mut c = chan();
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        // 64 bursts of 16 lines (1 KB each) hitting one row... rows hold 32
        // lines, so alternate rows on different banks to keep hits common.
        for i in 0..64u64 {
            c.enqueue(now, burst((i % 8) as usize, i / 8, 16));
        }
        while let Some(iss) = c.try_issue(now) {
            now = iss.done;
            last_done = iss.done;
            c.service_complete();
        }
        let bytes = 64.0 * 16.0 * 64.0;
        let gbps = bytes / last_done.as_secs() / 1e9;
        // Peak per channel is ~4.27 GB/s; the stream should land within 25%.
        assert!(gbps > 3.2, "streaming bandwidth {gbps} GB/s too low");
    }
}
