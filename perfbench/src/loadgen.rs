//! The benchmark's load generator.
//!
//! An open loop sends request `i` when it falls due, `i / rate` after the
//! phase starts, whether or not earlier requests have finished; one server
//! handles them first in, first out. Latency runs from the due time, so a
//! stall is charged to every request queued behind it. The generator records
//! how late each send was (lag) and how many due requests were still waiting
//! when the last one fell due (backlog). A phase whose backlog grows has
//! exceeded capacity and yields no latency figure.

use std::time::Instant;

/// Time source of the load loop, in ns since some fixed start.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn wait_until(&self, t_ns: u64);
}

/// The host's monotonic clock. Waits spin: a sleeping thread can wake a
/// millisecond late, which the loop would charge to the program as lag.
pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// A clock that moves only when told to; waiting jumps to the target.
#[cfg(test)]
#[derive(Default)]
pub struct ManualClock(pub std::cell::Cell<u64>);

#[cfg(test)]
impl ManualClock {
    pub fn advance(&self, ns: u64) {
        self.0.set(self.0.get() + ns);
    }
}

#[cfg(test)]
impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.get()
    }

    fn wait_until(&self, t_ns: u64) {
        if t_ns > self.0.get() {
            self.0.set(t_ns);
        }
    }
}

/// What one open-loop phase measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpenLoop {
    /// Per request: completion minus due time, in µs.
    pub latency_us: Vec<f64>,
    /// Per request: send minus due time, in µs.
    pub lag_us: Vec<f64>,
    /// Requests due but not yet sent when the last request fell due.
    pub backlog: usize,
    /// Backlog halfway through the schedule, to tell a growing queue.
    pub mid_backlog: usize,
}

impl OpenLoop {
    /// A phase is over capacity when its queue grows: requests are queued
    /// beyond a small allowance halfway through, and more are queued at the
    /// end. A single stall of the host queues requests at one of the two
    /// instants at most, and the server drains them, so it shows in the
    /// latencies instead.
    pub fn over_capacity(&self) -> bool {
        let allowance = 10.max(self.latency_us.len() / 100);
        self.mid_backlog > allowance && self.backlog > self.mid_backlog
    }
}

/// Runs `n` requests due every `1e9 / rate` ns through `serve`, one at a time.
pub fn open_loop(
    clock: &impl Clock,
    n: usize,
    rate_per_s: f64,
    mut serve: impl FnMut(usize),
) -> OpenLoop {
    assert!(n > 0 && rate_per_s > 0.0);
    let period = 1e9 / rate_per_s;
    let t0 = clock.now_ns();
    let due = |i: usize| t0 + (i as f64 * period) as u64;
    let mut sent = Vec::with_capacity(n);
    let mut out = OpenLoop::default();
    for i in 0..n {
        clock.wait_until(due(i));
        let send = clock.now_ns();
        serve(i);
        let done = clock.now_ns();
        sent.push(send);
        out.lag_us.push((send - due(i)) as f64 * 1e-3);
        out.latency_us.push((done - due(i)) as f64 * 1e-3);
    }
    // Requests due by time `t` but sent after it were waiting at `t`.
    let waiting = |t: u64| (0..n).filter(|&i| due(i) <= t && sent[i] > t).count();
    out.backlog = waiting(due(n - 1));
    out.mid_backlog = waiting(due(n / 2));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // Due every 100 µs; request 2 stalls for 350 µs, the rest take 50 µs.
        let clock = ManualClock::default();
        let r = open_loop(&clock, 6, 10_000.0, |i| {
            clock.advance(if i == 2 { 350_000 } else { 50_000 })
        });
        // Request 2 is due at 200 and done at 550. Request 3 (due 300) is sent
        // at 550 and done at 600; request 4 (due 400) waits until 600 and
        // request 5 (due 500) until 650.
        assert_eq!(r.latency_us, vec![50.0, 50.0, 350.0, 300.0, 250.0, 200.0]);
        assert_eq!(r.lag_us, vec![0.0, 0.0, 0.0, 250.0, 200.0, 150.0]);
        // When request 5 fell due, requests 3, 4 and 5 were all still waiting.
        assert_eq!(r.backlog, 3);
    }

    #[test]
    fn a_server_slower_than_the_rate_builds_a_growing_backlog() {
        let clock = ManualClock::default();
        let r = open_loop(&clock, 2000, 10_000.0, |_| clock.advance(150_000));
        assert!(r.over_capacity());
        assert!(r.backlog > r.mid_backlog);
        // Each request adds 50 µs of queue, so the last waits ~100 ms.
        let last = *r.latency_us.last().expect("samples");
        assert!(last > 1999.0 * 50.0, "queueing delay is charged: {last}");
    }

    #[test]
    fn a_stall_at_the_end_is_latency_not_over_capacity() {
        // 60 µs per request at a 100 µs period, but the last 20 requests
        // wait behind a 2 ms stall: the queue is long at the end only.
        let clock = ManualClock::default();
        let r = open_loop(&clock, 2000, 10_000.0, |i| {
            clock.advance(if i == 1980 { 2_000_000 } else { 60_000 })
        });
        assert_eq!(r.mid_backlog, 0);
        assert!(r.backlog > 10, "the stall queued requests: {}", r.backlog);
        assert!(!r.over_capacity());
        assert!(*r.latency_us.last().expect("samples") > 1000.0, "the stall is charged");
    }

    #[test]
    fn a_server_within_capacity_keeps_up() {
        let clock = ManualClock::default();
        let r = open_loop(&clock, 2000, 10_000.0, |_| clock.advance(60_000));
        assert!(!r.over_capacity());
        assert_eq!(r.backlog, 0);
        assert!(r.latency_us.iter().all(|&l| l == 60.0));
    }
}
