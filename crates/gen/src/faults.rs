//! Deterministic fault plans for the crash-recovery chaos harness.
//!
//! A [`FaultPlan`] is the seeded "adversary schedule" of one recovery
//! trial: *when* the server crashes (which processing cycle loses its
//! in-memory state) and *how* the on-disk artifacts it left behind are
//! damaged. A durable lane of the conformance harness (`cpm_sim::verify`
//! on a stream carrying `Control::Crash(plan)`) applies the corruption to
//! the snapshot/journal bytes, recovers, and asserts the recovered server
//! is bit-identical to one that never crashed — so every plan is
//! reproducible from its seed alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the crash damaged the durable artifacts (beyond simply losing the
/// in-memory state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Clean crash: snapshot and journal both intact.
    None,
    /// A torn final write: the journal loses its last few bytes
    /// mid-frame. Recovery must stop replay at the tear, not reject the
    /// whole journal.
    TruncateTail,
    /// The upstream redelivered a frame the journal already holds
    /// (at-least-once delivery); replay must deduplicate it.
    DuplicateFrame,
    /// Two whole journal frames arrive swapped (e.g. concurrent append
    /// paths racing to stable storage); replay must re-sort by sequence
    /// number.
    ReorderFrames,
    /// A flipped bit inside one journal frame; its checksum must catch it
    /// and replay must stop there, treating the rest as a torn tail.
    BitFlipJournal,
    /// A flipped bit inside the snapshot frame; decoding must fail with a
    /// typed error (never panic), after which the harness recovers from
    /// the intact copy.
    BitFlipSnapshot,
}

/// One seeded crash trial: crash point plus artifact damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The cycle index (0-based, `< cycles`) whose completion is
    /// immediately followed by the crash.
    pub crash_cycle: u32,
    /// The damage applied to the artifacts the crash left behind.
    pub corruption: Corruption,
    /// Seed driving any corruption-site choices (which byte to flip,
    /// which frames to duplicate/swap) — derived from the plan seed so
    /// the whole trial replays from one number.
    pub site_seed: u64,
}

impl FaultPlan {
    /// Derive the plan for `seed` over a run of `cycles` processing
    /// cycles (`cycles ≥ 1`). Deterministic: same seed, same plan.
    ///
    /// # Panics
    /// Panics if `cycles == 0`.
    #[must_use]
    pub fn from_seed(seed: u64, cycles: u32) -> Self {
        assert!(cycles >= 1, "a crash trial needs at least one cycle");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA01_7917);
        let crash_cycle = rng.gen_range(0..cycles);
        let corruption = match rng.gen_range(0..6u32) {
            0 => Corruption::None,
            1 => Corruption::TruncateTail,
            2 => Corruption::DuplicateFrame,
            3 => Corruption::ReorderFrames,
            4 => Corruption::BitFlipJournal,
            _ => Corruption::BitFlipSnapshot,
        };
        FaultPlan {
            crash_cycle,
            corruption,
            site_seed: rng.gen(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed, 12);
            let b = FaultPlan::from_seed(seed, 12);
            assert_eq!(a, b);
            assert!(a.crash_cycle < 12);
        }
    }

    #[test]
    fn seeds_cover_every_corruption_class() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..128u64 {
            seen.insert(FaultPlan::from_seed(seed, 8).corruption);
        }
        assert_eq!(seen.len(), 6, "corruption classes seen: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycle_trials_are_rejected() {
        let _ = FaultPlan::from_seed(1, 0);
    }
}
