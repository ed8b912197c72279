//! Windowed max/min filters used by BBR-style estimators.
//!
//! BBR (and PBE-CC's cellular-tailored BBR mode) estimate the bottleneck
//! bandwidth as the maximum delivery rate observed over the last ~10 RTTs and
//! the round-trip propagation delay as the minimum RTT observed over the last
//! 10 seconds.  These filters keep the running extreme over a sliding time
//! window without storing every sample: each is a monotone deque that holds
//! only the samples that can still become the extreme.  A new sample first
//! evicts every older sample it dominates (for the maximum, every value not
//! above it; for the minimum, every value not below it), so values are
//! strictly monotone from front to back and the front is the extreme.
//! Sample times are nondecreasing front to back (callers feed nondecreasing
//! `now`), so aged-out samples form a prefix and expire from the front.
//! `update`, `get` and `expire` are amortized O(1).

use pbe_stats::time::{Duration, Instant};
use std::collections::VecDeque;

/// The deque shared by both filters; `keeps(old, new)` says whether an older
/// sample survives the arrival of a newer one.
#[derive(Debug, Clone)]
struct MonotoneWindow {
    window: Duration,
    samples: VecDeque<(Instant, f64)>,
}

impl MonotoneWindow {
    fn new(window: Duration) -> Self {
        MonotoneWindow {
            window,
            samples: VecDeque::new(),
        }
    }

    fn push(&mut self, now: Instant, value: f64, keeps: fn(f64, f64) -> bool) {
        self.expire(now);
        while self.samples.back().is_some_and(|&(_, v)| !keeps(v, value)) {
            self.samples.pop_back();
        }
        self.samples.push_back((now, value));
    }

    fn expire(&mut self, now: Instant) {
        debug_assert!(
            self.samples.back().is_none_or(|&(t, _)| t <= now),
            "windowed filter fed a decreasing time"
        );
        while self
            .samples
            .front()
            .is_some_and(|&(t, _)| now.saturating_since(t) > self.window)
        {
            self.samples.pop_front();
        }
    }

    fn front(&self) -> Option<f64> {
        self.samples.front().map(|&(_, v)| v)
    }
}

/// Running maximum over a sliding time window.
#[derive(Debug, Clone)]
pub struct WindowedMax {
    inner: MonotoneWindow,
}

impl WindowedMax {
    /// Create a filter with the given window length.
    pub fn new(window: Duration) -> Self {
        WindowedMax {
            inner: MonotoneWindow::new(window),
        }
    }

    /// Change the window length.
    pub fn set_window(&mut self, window: Duration) {
        self.inner.window = window;
    }

    /// Insert a sample and return the current windowed maximum.
    pub fn update(&mut self, now: Instant, value: f64) -> f64 {
        self.inner.push(now, value, |old, new| old > new);
        self.get()
    }

    /// Current windowed maximum (0 if empty; never below 0).
    pub fn get(&self) -> f64 {
        self.inner.front().map_or(0.0, |v| 0.0f64.max(v))
    }

    /// Expire old samples without adding a new one.
    pub fn expire(&mut self, now: Instant) {
        self.inner.expire(now);
    }

    /// Number of samples currently retained.
    pub fn retained(&self) -> usize {
        self.inner.samples.len()
    }
}

/// Running minimum over a sliding time window.
#[derive(Debug, Clone)]
pub struct WindowedMin {
    inner: MonotoneWindow,
}

impl WindowedMin {
    /// Create a filter with the given window length.
    pub fn new(window: Duration) -> Self {
        WindowedMin {
            inner: MonotoneWindow::new(window),
        }
    }

    /// Change the window length.
    pub fn set_window(&mut self, window: Duration) {
        self.inner.window = window;
    }

    /// Insert a sample and return the current windowed minimum.
    pub fn update(&mut self, now: Instant, value: f64) -> f64 {
        self.inner.push(now, value, |old, new| old < new);
        self.get()
    }

    /// Current windowed minimum (`f64::INFINITY` if empty).
    pub fn get(&self) -> f64 {
        self.inner
            .front()
            .map_or(f64::INFINITY, |v| f64::INFINITY.min(v))
    }

    /// Expire old samples without adding a new one.
    pub fn expire(&mut self, now: Instant) {
        self.inner.expire(now);
    }

    /// Number of samples currently retained.
    pub fn retained(&self) -> usize {
        self.inner.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `retain`-based filters the deques replaced: every update rescans
    /// all stored samples.  Kept as the reference for the equivalence
    /// property below.
    struct RetainFilter {
        max: bool,
        window: Duration,
        samples: Vec<(Instant, f64)>,
    }

    impl RetainFilter {
        fn update(&mut self, now: Instant, value: f64) -> f64 {
            let (max, window) = (self.max, self.window);
            self.samples.retain(|(t, v)| {
                now.saturating_since(*t) <= window && if max { *v > value } else { *v < value }
            });
            self.samples.push((now, value));
            self.get()
        }

        fn get(&self) -> f64 {
            let values = self.samples.iter().map(|(_, v)| *v);
            if self.max {
                values.fold(0.0, f64::max)
            } else {
                values.fold(f64::INFINITY, f64::min)
            }
        }

        fn expire(&mut self, now: Instant) {
            let window = self.window;
            self.samples
                .retain(|(t, _)| now.saturating_since(*t) <= window);
        }
    }

    proptest! {
        #[test]
        fn deques_match_the_retain_reference(
            steps in proptest::collection::vec((0u8..4, 0u64..3, -3i8..6, 1u64..8), 1..200),
        ) {
            // Small value and time ranges force ties and equal timestamps;
            // negative values exercise the maximum's 0 floor.
            let window = Duration::from_millis(5);
            let mut max = WindowedMax::new(window);
            let mut min = WindowedMin::new(window);
            let mut ref_max = RetainFilter { max: true, window, samples: Vec::new() };
            let mut ref_min = RetainFilter { max: false, window, samples: Vec::new() };
            let mut now = Instant::from_millis(0);
            for (op, dt, value, w) in steps {
                now += Duration::from_millis(dt);
                let value = f64::from(value);
                match op {
                    0 | 1 => {
                        prop_assert_eq!(max.update(now, value).to_bits(), ref_max.update(now, value).to_bits());
                        prop_assert_eq!(min.update(now, value).to_bits(), ref_min.update(now, value).to_bits());
                    }
                    2 => {
                        max.expire(now);
                        min.expire(now);
                        ref_max.expire(now);
                        ref_min.expire(now);
                    }
                    _ => {
                        let w = Duration::from_millis(w);
                        max.set_window(w);
                        min.set_window(w);
                        ref_max.window = w;
                        ref_min.window = w;
                    }
                }
                prop_assert_eq!(max.get().to_bits(), ref_max.get().to_bits());
                prop_assert_eq!(min.get().to_bits(), ref_min.get().to_bits());
                prop_assert_eq!(max.retained(), ref_max.samples.len());
                prop_assert_eq!(min.retained(), ref_min.samples.len());
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "decreasing time")]
    fn decreasing_time_is_rejected() {
        let mut f = WindowedMin::new(Duration::from_secs(1));
        f.update(Instant::from_millis(5), 1.0);
        f.update(Instant::from_millis(4), 2.0);
    }

    fn s(v: u64) -> Instant {
        Instant::from_secs(v)
    }

    #[test]
    fn windowed_max_tracks_peak_and_expires() {
        let mut f = WindowedMax::new(Duration::from_secs(10));
        assert_eq!(f.update(s(0), 5.0), 5.0);
        assert_eq!(f.update(s(1), 3.0), 5.0);
        assert_eq!(f.update(s(2), 8.0), 8.0);
        // At t=13 the 8.0 sample (t=2) has aged out; only recent ones remain.
        assert_eq!(f.update(s(13), 4.0), 4.0);
    }

    #[test]
    fn windowed_min_tracks_floor_and_expires() {
        let mut f = WindowedMin::new(Duration::from_secs(10));
        assert_eq!(f.update(s(0), 50.0), 50.0);
        assert_eq!(f.update(s(1), 40.0), 40.0);
        assert_eq!(f.update(s(5), 60.0), 40.0);
        assert_eq!(f.update(s(12), 55.0), 55.0);
    }

    #[test]
    fn empty_filters_have_sentinel_values() {
        let max = WindowedMax::new(Duration::from_secs(1));
        let min = WindowedMin::new(Duration::from_secs(1));
        assert_eq!(max.get(), 0.0);
        assert!(min.get().is_infinite());
    }

    #[test]
    fn expire_without_update() {
        let mut f = WindowedMax::new(Duration::from_secs(2));
        f.update(s(0), 9.0);
        f.expire(s(10));
        assert_eq!(f.get(), 0.0);
        let mut m = WindowedMin::new(Duration::from_secs(2));
        m.update(s(0), 9.0);
        m.expire(s(10));
        assert!(m.get().is_infinite());
    }

    #[test]
    fn dominated_samples_are_pruned() {
        let mut f = WindowedMax::new(Duration::from_secs(100));
        for i in 0..1000u64 {
            f.update(s(i / 10), (i % 7) as f64);
        }
        // Internal storage stays small because dominated samples are dropped.
        assert!(f.retained() <= 8, "len = {}", f.retained());
    }
}
