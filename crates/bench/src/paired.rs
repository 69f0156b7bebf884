//! The one way a micro-benchmark is executed: lanes as closures over one
//! pre-generated stream, every cycle run by every lane back to back in a
//! rotating order, [`REPS`] repetitions.
//!
//! Why paired: on a shared host the lanes of one cycle see the same
//! cache, allocator and neighbour conditions, so a stall inflates every
//! side of its pair and cancels in the per-pair ratio; measuring lanes in
//! sequential phases was seen to swing ratios by ±15 points. Why
//! rotating: no lane systematically inherits the caches its predecessor
//! warmed. Why repetitions: one repetition of sub-millisecond cycles is a
//! single sample of the host's phase; the gate reads the **median across
//! repetitions** and records the MAD next to it.
//!
//! Per lane the runner reports the **quiet tenth** of its cycle times
//! (the median of the fastest tenth, as `benchmark/README.md` defines
//! it: what the lane costs on an undisturbed host); per pair of lanes
//! the **median of per-cycle ratios** (what holds whatever the host
//! does to both sides of a pair).

use std::fmt::Debug;
use std::time::{Duration, Instant};

/// Repetitions every benchmark runs (fresh lane state, same stream).
pub const REPS: usize = 5;

/// A statistic across repetitions: the median and the median absolute
/// deviation around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Median over the repetitions.
    pub median: f64,
    /// Median absolute deviation over the repetitions.
    pub mad: f64,
}

impl Stat {
    /// Median and MAD of `values` (one per repetition).
    pub fn of(values: &[f64]) -> Self {
        let median = median(values);
        let deviations: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
        Self {
            median,
            mad: self::median(&deviations),
        }
    }

    /// A count or other value that repeats exactly.
    pub fn exact(value: f64) -> Self {
        Self {
            median: value,
            mad: 0.0,
        }
    }

    /// The quiet tenth of per-repetition values — the quietest
    /// repetition, for [`REPS`] = 5 — with their MAD. The host stays
    /// disturbed for seconds on end; a repetition that fell into such a
    /// phase contributes nothing but the MAD next to the value.
    pub fn quietest(per_rep: &[f64]) -> Self {
        Self {
            median: quiet_tenth(per_rep),
            mad: Self::of(per_rep).mad,
        }
    }

    /// `true` when the repetitions cannot tell this statistic from
    /// `reference`: the median lies within three MADs of it. A ratio
    /// inside the noise of 1 is reported as "no measurable difference",
    /// never as a speedup.
    pub fn inside_noise_of(&self, reference: f64) -> bool {
        (self.median - reference).abs() <= 3.0 * self.mad
    }
}

/// Median of `values` (mean of the two middle values for even counts; 0
/// for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of the fastest tenth (at least one) of `samples`.
pub fn quiet_tenth(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v.truncate((v.len() / 10).max(1));
    median(&v)
}

/// Time `work`, returning its wall time next to its output (which is
/// therefore dropped by the caller, outside the timed section).
pub fn timed<T>(work: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = work();
    (start.elapsed(), out)
}

/// One lane: its name and the closure that processes stream position
/// `i` and returns the time it wants charged plus its output.
pub type Lane<'a, O> = (&'a str, &'a mut dyn FnMut(usize) -> (Duration, O));

/// The samples of a paired run: `reps[rep][lane][cycle]` in ms.
#[derive(Debug, Clone, Default)]
pub struct Paired {
    names: Vec<String>,
    reps: Vec<Vec<Vec<f64>>>,
}

impl Paired {
    /// Run one repetition: `warmup` unmeasured then `cycles` measured
    /// stream positions, each processed by every lane in an order that
    /// rotates per position. With `check`, the lanes' outputs at every
    /// position (warm-up included) must be equal.
    ///
    /// # Panics
    /// If `check` is set and two lanes disagree, or the lane names
    /// differ from the previous repetition's.
    pub fn repetition<O: PartialEq + Debug>(
        &mut self,
        warmup: usize,
        cycles: usize,
        check: bool,
        lanes: &mut [Lane<'_, O>],
    ) {
        let names: Vec<String> = lanes.iter().map(|l| l.0.to_string()).collect();
        if self.reps.is_empty() {
            self.names = names;
        } else {
            assert_eq!(self.names[..names.len()], names[..], "lanes changed");
        }
        let n = lanes.len();
        let mut times = vec![Vec::with_capacity(cycles); n];
        for i in 0..warmup + cycles {
            let mut outputs: Vec<Option<O>> = (0..n).map(|_| None).collect();
            for slot in 0..n {
                let lane = (i + slot) % n;
                let (spent, out) = (lanes[lane].1)(i);
                if i >= warmup {
                    times[lane].push(spent.as_secs_f64() * 1e3);
                }
                outputs[lane] = Some(out);
            }
            if check {
                for lane in 1..n {
                    assert_eq!(
                        outputs[0], outputs[lane],
                        "position {i}: lanes {} and {} diverged",
                        self.names[0], self.names[lane]
                    );
                }
            }
        }
        self.reps.push(times);
    }

    /// Attach per-cycle samples (ms) a lane measured itself during the
    /// last repetition — a stage of its cycle, say — as a lane of their
    /// own, so they pair with the other lanes' cycles.
    pub fn derive(&mut self, name: &str, samples: Vec<f64>) {
        let rep = self.reps.last_mut().expect("derive follows a repetition");
        if !self.names.iter().any(|n| n == name) {
            self.names.push(name.to_string());
        }
        assert_eq!(
            self.names[rep.len()],
            name,
            "derived lanes keep their order"
        );
        rep.push(samples);
    }

    fn lane(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no lane named {name}"))
    }

    /// The lane names, derived lanes last.
    pub fn lanes(&self) -> &[String] {
        &self.names
    }

    /// The measured cycle times of `lane` in the last repetition, ms.
    pub fn last(&self, lane: &str) -> &[f64] {
        &self.reps.last().expect("a repetition ran")[self.lane(lane)]
    }

    /// Quiet-tenth cycle time of `lane`, ms: the quiet tenth of every
    /// repetition's cycles, and of those [`Stat::quietest`].
    pub fn quiet_ms(&self, lane: &str) -> Stat {
        let l = self.lane(lane);
        let per_rep: Vec<f64> = self.reps.iter().map(|r| quiet_tenth(&r[l])).collect();
        Stat::quietest(&per_rep)
    }

    /// Slowest measured cycle of `lane` over all repetitions, ms.
    pub fn max_ms(&self, lane: &str) -> f64 {
        let l = self.lane(lane);
        let all = self.reps.iter().flat_map(|r| r[l].iter().copied());
        all.fold(0.0, f64::max)
    }

    /// Median of per-cycle `numer / denom` time ratios, across
    /// repetitions.
    pub fn ratio(&self, numer: &str, denom: &str) -> Stat {
        let (n, d) = (self.lane(numer), self.lane(denom));
        let per_rep: Vec<f64> = self
            .reps
            .iter()
            .map(|r| {
                let ratios: Vec<f64> = r[n].iter().zip(&r[d]).map(|(a, b)| a / b).collect();
                median(&ratios)
            })
            .collect();
        Stat::of(&per_rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimators_match_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // 20 samples: the fastest two are kept, their median reported; a
        // slowed majority does not move it.
        let mut ms: Vec<f64> = (0..20).map(|i| 10.0 + f64::from(i)).collect();
        assert_eq!(quiet_tenth(&ms), 10.5);
        for v in ms.iter_mut().skip(2) {
            *v *= 3.0;
        }
        assert_eq!(quiet_tenth(&ms), 10.5);
        let s = Stat::of(&[1.0, 1.1, 0.9, 1.0, 5.0]);
        assert_eq!(s.median, 1.0);
        assert!((s.mad - 0.1).abs() < 1e-12);
        assert!(s.inside_noise_of(1.2) && !s.inside_noise_of(1.5));
    }

    #[test]
    fn lanes_rotate_and_pair_per_position() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut paired = Paired::default();
        for _ in 0..2 {
            let mut a = |i: usize| {
                order.borrow_mut().push(('a', i));
                (Duration::from_millis(2), i)
            };
            let mut b = |i: usize| {
                order.borrow_mut().push(('b', i));
                (Duration::from_millis(4), i)
            };
            paired.repetition(1, 2, true, &mut [("a", &mut a), ("b", &mut b)]);
            paired.derive("half-b", vec![2.0, 2.0]);
        }
        assert_eq!(
            order.borrow()[..6],
            [('a', 0), ('b', 0), ('b', 1), ('a', 1), ('a', 2), ('b', 2)]
        );
        assert_eq!(paired.lanes(), ["a", "b", "half-b"]);
        assert_eq!(paired.quiet_ms("a"), Stat::exact(2.0));
        assert_eq!(paired.max_ms("b"), 4.0);
        assert_eq!(paired.ratio("b", "a"), Stat::exact(2.0));
        assert_eq!(paired.ratio("half-b", "b"), Stat::exact(0.5));
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn diverging_lanes_fail_the_equality_check() {
        let mut a = |i: usize| (Duration::ZERO, i);
        let mut b = |i: usize| (Duration::ZERO, i + usize::from(i == 1));
        Paired::default().repetition(0, 2, true, &mut [("a", &mut a), ("b", &mut b)]);
    }
}
