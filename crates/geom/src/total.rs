//! A totally ordered `f64` wrapper for heap keys.

use std::cmp::Ordering;
use std::fmt;

/// An `f64` with a total order, usable as a `BinaryHeap`/`BTreeMap` key.
///
/// The search heap of the NN computation module (Figure 3.4) is keyed by
/// `mindist` values. `f64` itself is only `PartialOrd`; `TotalF64` applies
/// [`f64::total_cmp`]. NaN keys are rejected in debug builds only — the
/// hard guarantee lives at the ingest boundary: `ObjectStore::activate`
/// rejects non-finite positions with a release-mode assert, so every
/// coordinate the cell scans read is finite and no distance they
/// produce can be NaN (pinned by the grid crate's `nan_boundary` release
/// regression test).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalF64(pub f64);

impl TotalF64 {
    /// Wrap a distance value. Debug-asserts that the value is not NaN;
    /// release builds rely on the ingest boundary keeping coordinates
    /// finite (see the type-level docs).
    #[inline]
    pub fn new(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "NaN is not a valid distance key");
        TotalF64(v)
    }

    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for TotalF64 {
    #[inline]
    fn from(v: f64) -> Self {
        TotalF64::new(v)
    }
}

impl fmt::Display for TotalF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn orders_like_f64_on_normal_values() {
        assert!(TotalF64::new(1.0) < TotalF64::new(2.0));
        assert!(TotalF64::new(-1.0) < TotalF64::new(0.0));
        assert_eq!(TotalF64::new(0.5), TotalF64::new(0.5));
    }

    #[test]
    fn works_as_min_heap_key() {
        let mut h = BinaryHeap::new();
        for v in [0.9, 0.1, 0.5, 0.3] {
            h.push(Reverse(TotalF64::new(v)));
        }
        let drained: Vec<f64> = std::iter::from_fn(|| h.pop().map(|Reverse(t)| t.get())).collect();
        assert_eq!(drained, vec![0.1, 0.3, 0.5, 0.9]);
    }

    #[test]
    fn infinity_is_largest() {
        assert!(TotalF64::new(f64::INFINITY) > TotalF64::new(1e300));
    }
}
