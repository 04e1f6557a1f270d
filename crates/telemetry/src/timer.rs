//! Sampling scope timer for hot loops.
//!
//! A [`SampleTimer`] lives inside the instrumented struct (e.g. the simnet
//! engine) and times every Nth pass through a hot section, feeding a
//! fixed-bucket histogram in the metrics registry. Sampling keeps the
//! overhead bounded, and because the measured quantity is wall time the
//! results are profiling data only — they never influence simulation state,
//! so determinism is unaffected.

/// Samples 1-in-`every` passes through a scope when recording is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleTimer {
    every: u32,
    tick: u32,
}

impl SampleTimer {
    /// A timer that samples one in `every` passes (`every == 0` behaves
    /// like 1, i.e. sample everything).
    pub const fn every(every: u32) -> Self {
        SampleTimer { every, tick: 0 }
    }

    /// Start timing this pass if it is selected for sampling. Returns
    /// `None` (at the cost of one atomic load plus a counter increment)
    /// otherwise.
    #[inline]
    pub fn maybe_start(&mut self) -> Option<Stamp> {
        if !crate::enabled() {
            return None;
        }
        self.tick = self.tick.wrapping_add(1);
        if self.tick % self.every.max(1) != 0 {
            return None;
        }
        Some(Stamp::now())
    }
}

/// An in-flight sample started by [`SampleTimer::maybe_start`].
#[derive(Debug)]
pub struct Stamp {
    #[cfg(feature = "trace")]
    at: std::time::Instant,
}

impl Stamp {
    #[inline]
    fn now() -> Self {
        Stamp {
            #[cfg(feature = "trace")]
            // npp-lint: allow(wall-clock) reason="sampling timers price host execution; samples feed volatile histograms, never a deterministic document"
            at: crate::wall_clock(),
        }
    }

    /// Nanoseconds elapsed since the stamp was taken.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "trace")]
        {
            self.at.elapsed().as_nanos() as u64
        }
        #[cfg(not(feature = "trace"))]
        {
            0
        }
    }
}

/// Finish a sample: record its duration into the named histogram (use a
/// `prof.*_ns` name so profile reports can group sampled scopes).
#[inline]
pub fn record_sample(name: &'static str, stamp: Stamp) {
    crate::metrics::observe(name, stamp.elapsed_ns());
}

/// An unconditional wall-clock stopwatch for executor-layer wait
/// accounting (e.g. the parallel coordinator's merge-wait counter).
///
/// Unlike [`Stamp`], a `Stopwatch` ticks even when the `trace` feature
/// is compiled out and no recording is active: its readings land in
/// volatile profiling fields (never the trace document, never
/// simulation state), so there is nothing to gate. This is the
/// sanctioned route to `Instant::elapsed` for crates that must not
/// call [`crate::wall_clock`] directly under lint rule D2.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    at: std::time::Instant,
}

impl Stopwatch {
    /// Starts the stopwatch now.
    #[inline]
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            // npp-lint: allow(wall-clock) reason="stopwatch readings feed volatile wait-accounting fields (EngineMetrics), never deterministic simulation state"
            at: crate::wall_clock(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.at.elapsed().as_nanos() as u64
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    #[test]
    fn samples_one_in_n_only_while_recording() {
        let _g = crate::test_lock();
        let _ = crate::finish();
        let mut t = SampleTimer::every(3);
        assert!(
            t.maybe_start().is_none(),
            "inactive recorder must not sample"
        );
        crate::start();
        let samples: usize = (0..9).filter_map(|_| t.maybe_start()).count();
        assert_eq!(samples, 3);
        if let Some(stamp) = SampleTimer::every(1).maybe_start() {
            record_sample("prof.test_ns", stamp);
        }
        let snap = crate::metrics::snapshot();
        let _ = crate::finish();
        match snap.get("prof.test_ns") {
            Some(crate::metrics::MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
