//! The fleet-wide simulation seed.
//!
//! Every stochastic experiment in this workspace — fault plans, Poisson
//! arrival streams, retry jitter, overclock sampling — must be a pure
//! function of one documented `u64` so that any reported number can be
//! reproduced bit-for-bit from the command line. Examples and
//! integration tests derive their RNG streams from [`DEFAULT_SEED`]
//! through [`derive()`] rather than scattering ad-hoc literals.
//!
//! [`derive()`] splits the root seed per *purpose label*, so independent
//! subsystems (e.g. the fault plan and the arrival process) get
//! decorrelated streams while remaining reproducible: changing the
//! label changes the stream, changing the root seed changes all of them.

use crate::fnv::Fnv1a;

/// The documented root seed for all examples and integration tests.
///
/// The value spells "MTIA 2i" in spirit: 0x2i = the second-generation
/// inference chip, ISCA 2025 paper.
pub const DEFAULT_SEED: u64 = 0x4D54_4941_2025_0002; // "MTIA" 2025 #2

/// Derives a purpose-specific seed from `root` and a textual `label`.
///
/// FNV-1a over the label folded into a SplitMix64 finalizer: stable
/// across platforms and releases, and documented here so external
/// tooling can reproduce the same streams.
///
/// ```
/// use mtia_core::seed::{derive, DEFAULT_SEED};
/// let faults = derive(DEFAULT_SEED, "fault-plan");
/// let arrivals = derive(DEFAULT_SEED, "arrivals");
/// assert_ne!(faults, arrivals);
/// assert_eq!(faults, derive(DEFAULT_SEED, "fault-plan"));
/// ```
pub fn derive(root: u64, label: &str) -> u64 {
    let mut hash = Fnv1a::default();
    hash.bytes(label.as_bytes());
    let mut z = root ^ hash.finish();
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed for task `index` of a parallel sweep labelled
/// `label`.
///
/// This is the per-task split used by [`crate::pool::parallel_map`]
/// loops: every cell of a sweep gets its own decorrelated RNG stream,
/// a pure function of `(root, label, index)` — never a position in a
/// shared sequential stream — so results are independent of execution
/// order and thread count.
///
/// ```
/// use mtia_core::seed::{derive_indexed, DEFAULT_SEED};
/// let t0 = derive_indexed(DEFAULT_SEED, "rollout/trial", 0);
/// let t1 = derive_indexed(DEFAULT_SEED, "rollout/trial", 1);
/// assert_ne!(t0, t1);
/// assert_eq!(t0, derive_indexed(DEFAULT_SEED, "rollout/trial", 0));
/// ```
pub fn derive_indexed(root: u64, label: &str, index: u64) -> u64 {
    // The index-th output of a SplitMix64 stream whose state starts at
    // the label-derived seed: same finalizer as `derive`, with the
    // golden-ratio increment scaled by the task index.
    let base = derive(root, label);
    let mut z = base.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random permutation of `0..n`.
///
/// Fisher–Yates driven by the same per-index SplitMix64 stream as
/// [`derive_indexed`], so the permutation is a pure function of
/// `(root, label, n)` — independent of thread count, execution order,
/// and platform. Samplers that draw "random" subsets (e.g. the
/// design-space explorer's generation seeding) take a prefix of this
/// permutation instead of consuming a shared sequential RNG.
///
/// ```
/// use mtia_core::seed::{shuffled_indices, DEFAULT_SEED};
/// let a = shuffled_indices(DEFAULT_SEED, "explore/gen", 8);
/// let b = shuffled_indices(DEFAULT_SEED, "explore/gen", 8);
/// assert_eq!(a, b);
/// let mut sorted = a.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..8).collect::<Vec<_>>());
/// ```
pub fn shuffled_indices(root: u64, label: &str, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let r = derive_indexed(root, label, i as u64);
        let j = (r % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stable_and_label_sensitive() {
        assert_eq!(derive(DEFAULT_SEED, "a"), derive(DEFAULT_SEED, "a"));
        assert_ne!(derive(DEFAULT_SEED, "a"), derive(DEFAULT_SEED, "b"));
        assert_ne!(derive(1, "a"), derive(2, "a"));
    }

    #[test]
    fn derived_streams_differ_from_root() {
        assert_ne!(derive(DEFAULT_SEED, "fault-plan"), DEFAULT_SEED);
    }

    #[test]
    fn indexed_derivation_is_stable_and_collision_free_in_practice() {
        let seeds: Vec<u64> = (0..10_000)
            .map(|i| derive_indexed(DEFAULT_SEED, "sweep", i))
            .collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "indexed seeds must not collide");
        assert_eq!(seeds[17], derive_indexed(DEFAULT_SEED, "sweep", 17));
        assert_ne!(
            derive_indexed(DEFAULT_SEED, "sweep", 0),
            derive_indexed(DEFAULT_SEED, "other", 0)
        );
    }

    #[test]
    fn shuffle_is_a_stable_label_sensitive_permutation() {
        let a = shuffled_indices(DEFAULT_SEED, "gen", 100);
        assert_eq!(a, shuffled_indices(DEFAULT_SEED, "gen", 100));
        assert_ne!(a, shuffled_indices(DEFAULT_SEED, "other", 100));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert!(shuffled_indices(DEFAULT_SEED, "gen", 0).is_empty());
        assert_eq!(shuffled_indices(DEFAULT_SEED, "gen", 1), vec![0]);
    }
}
