//! Per-sensor watermarks: bounded reordering of late samples.
//!
//! Industrial sensor streams arrive out of order — fieldbus retries,
//! gateway batching, clock skew between cabinets. A [`Watermark`] buffers
//! samples for a configurable **allowed lateness** `L` and releases them
//! in timestamp order once the watermark (`max_ts_seen - L`) passes them,
//! so every downstream [`OnlineScorer`](hierod_detect::online::OnlineScorer)
//! observes a clean, ordered series regardless of delivery order.
//!
//! Rules (the property tests in `tests/watermark_props.rs` pin them):
//!
//! * The watermark is `max(ts seen) - L`, monotonically non-decreasing.
//!   Until `max(ts seen) >= L` it has not formed yet (conceptually
//!   negative) and nothing is considered late or releasable.
//! * A sample is **released** once the watermark reaches its timestamp;
//!   releases happen in strict timestamp order.
//! * A sample arriving at or before an already-passed watermark is
//!   **late**: counted and dropped (its window was already emitted).
//! * Duplicate timestamps keep the first arrival; later ones are counted
//!   and dropped.
//! * [`Watermark::flush`] releases everything still buffered (end of
//!   stream / phase boundary).
//!
//! Consequence: any two delivery orders of the same samples whose
//! displacement stays within `L` release the identical sequence.

use std::collections::BTreeMap;

/// Counters for samples the watermark refused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatenessStats {
    /// Samples that arrived after the watermark had passed them.
    pub late_dropped: usize,
    /// Samples whose timestamp was already buffered or released.
    pub duplicates_dropped: usize,
}

/// Reorder buffer with bounded lateness for one sensor stream.
#[derive(Debug)]
pub struct Watermark {
    lateness: u64,
    /// Highest timestamp seen so far.
    max_ts: Option<u64>,
    /// Highest timestamp ever emitted (fast path, watermark advance, or
    /// flush). Guards against re-opening a timestamp after a flush.
    floor: Option<u64>,
    pending: BTreeMap<u64, f64>,
    stats: LatenessStats,
}

impl Watermark {
    /// Creates a watermark that tolerates samples up to `lateness` ticks
    /// behind the newest one seen. `lateness == 0` releases in-order
    /// streams immediately (zero buffering on the fast path).
    pub fn new(lateness: u64) -> Self {
        Self {
            lateness,
            max_ts: None,
            floor: None,
            pending: BTreeMap::new(),
            stats: LatenessStats::default(),
        }
    }

    /// Offers one sample; releases (in timestamp order, appended to `out`)
    /// everything the advancing watermark now covers.
    pub fn offer(&mut self, ts: u64, value: f64, out: &mut Vec<(u64, f64)>) {
        if self.frontier().is_some_and(|w| ts <= w) || self.floor.is_some_and(|f| ts <= f) {
            self.stats.late_dropped += 1;
            return;
        }
        let max_ts = match self.max_ts {
            Some(m) => m.max(ts),
            None => ts,
        };
        self.max_ts = Some(max_ts);
        match self.frontier() {
            // In-order fast path: nothing buffered and this sample is
            // already covered by the watermark — release it without
            // touching the BTreeMap.
            Some(watermark) if self.pending.is_empty() && ts <= watermark => {
                self.floor = Some(ts);
                out.push((ts, value));
            }
            frontier => {
                if let Some(first) = self.pending.insert(ts, value) {
                    // Keep the first arrival: restore it over the newcomer.
                    self.pending.insert(ts, first);
                    self.stats.duplicates_dropped += 1;
                    return;
                }
                if let Some(watermark) = frontier {
                    self.advance_to(watermark, out);
                }
            }
        }
    }

    /// The watermark, once it has formed (`max_ts >= lateness`). Before
    /// that, no sample is late and nothing can be released: the lateness
    /// window has not elapsed for *any* timestamp yet.
    fn frontier(&self) -> Option<u64> {
        self.max_ts.and_then(|m| m.checked_sub(self.lateness))
    }

    /// Releases every pending sample with `ts <= watermark`.
    fn advance_to(&mut self, watermark: u64, out: &mut Vec<(u64, f64)>) {
        let keep = self.pending.split_off(&watermark.saturating_add(1));
        let release = std::mem::replace(&mut self.pending, keep);
        if let Some((&last, _)) = release.last_key_value() {
            self.floor = Some(last);
        }
        out.extend(release);
    }

    /// End of stream: releases everything still buffered, in order.
    pub fn flush(&mut self, out: &mut Vec<(u64, f64)>) {
        let release = std::mem::take(&mut self.pending);
        if let Some((&last, _)) = release.last_key_value() {
            self.floor = Some(last);
        }
        out.extend(release);
    }

    /// The current watermark position, once it has formed.
    pub fn position(&self) -> Option<u64> {
        self.frontier()
    }

    /// Late/duplicate drop counters.
    pub fn stats(&self) -> LatenessStats {
        self.stats
    }

    /// Number of samples waiting for the watermark to pass them.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The buffered (offered but unreleased) samples in timestamp order —
    /// the durability layer journals these as carry-over when it rotates
    /// a WAL into a segment, so a restart can re-offer them.
    pub(crate) fn pending_samples(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.pending.iter().map(|(&t, &v)| (t, v))
    }

    /// Rewinds this watermark to a recovered mid-stream state: `floor` is
    /// the highest released timestamp of the restored history (also the
    /// new `max_ts` — re-offering the journalled unreleased samples in
    /// timestamp order rebuilds the true maximum), and `stats` are the
    /// absolute drop counters frozen when the state was sealed. Only
    /// meaningful on a fresh watermark with nothing buffered.
    pub(crate) fn restore_state(&mut self, floor: Option<u64>, stats: LatenessStats) {
        self.floor = floor;
        self.max_ts = floor;
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut Watermark, samples: &[(u64, f64)]) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for &(ts, v) in samples {
            w.offer(ts, v, &mut out);
        }
        w.flush(&mut out);
        out
    }

    #[test]
    fn in_order_zero_lateness_releases_immediately() {
        let mut w = Watermark::new(0);
        let mut out = Vec::new();
        for ts in 0..5_u64 {
            w.offer(ts, ts as f64, &mut out);
            assert_eq!(out.len() as u64, ts + 1, "immediate release");
            assert_eq!(w.pending(), 0);
        }
    }

    #[test]
    fn out_of_order_within_lateness_is_reordered() {
        let mut w = Watermark::new(3);
        let shuffled = [(2, 2.0), (0, 0.0), (1, 1.0), (3, 3.0), (5, 5.0), (4, 4.0)];
        let out = drain(&mut w, &shuffled);
        assert_eq!(
            out,
            vec![(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0)]
        );
        assert_eq!(w.stats(), LatenessStats::default());
    }

    #[test]
    fn too_late_samples_are_dropped_and_counted() {
        let mut w = Watermark::new(1);
        let mut out = Vec::new();
        w.offer(0, 0.0, &mut out);
        w.offer(10, 10.0, &mut out); // watermark jumps to 9, releases 0
        w.offer(2, 2.0, &mut out); // behind the watermark: dropped
        assert_eq!(w.stats().late_dropped, 1);
        w.flush(&mut out);
        assert_eq!(out, vec![(0, 0.0), (10, 10.0)]);
    }

    #[test]
    fn duplicates_keep_first_arrival() {
        let mut w = Watermark::new(10);
        let out = drain(&mut w, &[(1, 1.0), (1, 99.0), (2, 2.0)]);
        assert_eq!(out, vec![(1, 1.0), (2, 2.0)]);
        assert_eq!(w.stats().duplicates_dropped, 1);
    }

    #[test]
    fn watermark_is_monotone() {
        let mut w = Watermark::new(2);
        let mut out = Vec::new();
        let mut prev = None;
        for &ts in &[5_u64, 3, 9, 2, 9, 20] {
            w.offer(ts, 0.0, &mut out);
            let pos = w.position();
            assert!(pos >= prev, "watermark regressed: {prev:?} -> {pos:?}");
            prev = pos;
        }
    }

    #[test]
    fn released_output_is_always_sorted() {
        let mut w = Watermark::new(4);
        let out = drain(
            &mut w,
            &[(7, 0.0), (3, 0.0), (9, 0.0), (1, 0.0), (12, 0.0), (8, 0.0)],
        );
        let ts: Vec<u64> = out.iter().map(|&(t, _)| t).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }
}
