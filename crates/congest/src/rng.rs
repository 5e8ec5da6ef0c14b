use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives the deterministic per-node RNG used by the simulator.
///
/// Each node's randomness must be (a) independent across nodes — in the
/// real model every node flips its own coins — and (b) reproducible from
/// the master seed, so that experiments and failure cases can be replayed
/// exactly. We mix the node id into the master seed with the SplitMix64
/// finalizer, a bijective avalanche mix.
///
/// # Example
///
/// ```
/// use congest_sim::node_rng;
/// use rand::Rng;
/// let mut a = node_rng(42, 0);
/// let mut b = node_rng(42, 0);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// let mut c = node_rng(42, 1);
/// // Different nodes see unrelated streams (overwhelmingly likely).
/// assert_ne!(node_rng(42, 0).gen::<u64>(), c.gen::<u64>());
/// ```
pub fn node_rng(master_seed: u64, node: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(
        master_seed ^ splitmix64(node as u64 ^ 0xA076_1D64_78BD_642F),
    ))
}

/// The SplitMix64 finalizer, a bijective avalanche mix: the one copy
/// behind the node streams, the walk draws, the sketch's source hash and
/// the serve clients' jitter. `#[inline]` lets other crates inline it:
/// the release profile has no LTO, and every walk draw calls it four
/// times.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_node() {
        for node in 0..8 {
            let x: u64 = node_rng(7, node).gen();
            let y: u64 = node_rng(7, node).gen();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn distinct_across_nodes_and_seeds() {
        let vals: Vec<u64> = (0..64).map(|v| node_rng(7, v).gen()).collect();
        let mut dedup = vals.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), vals.len(), "collision across node streams");
        assert_ne!(node_rng(7, 0).gen::<u64>(), node_rng(8, 0).gen::<u64>());
    }

    #[test]
    fn splitmix_avalanche_nontrivial() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
