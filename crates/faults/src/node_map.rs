//! [`NodeMap`]: the per-node map behind every send-path lookup.
//!
//! The dataflow engines ask the send model about every sender of every
//! edge, so the key hash sits on the hottest path of a faulty run. std's
//! default SipHash is built to resist keys crafted to collide; these keys
//! are grid positions the program places itself, never outside input, so
//! [`NodeHasher`] folds the two `u32` coordinates with one multiply each
//! and a final rotation instead. It holds no per-process random state,
//! but callers still must not depend on iteration order: the sorted
//! views (`FaultCampaign::faulty_nodes`) sort explicitly.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use trix_topology::NodeId;

/// A `HashMap` keyed by [`NodeId`] under [`NodeHasher`]. Insertion keeps
/// std semantics: a repeated key replaces the earlier value ("last
/// wins").
pub(crate) type NodeMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeHasher>>;

/// Multiply-and-rotate hasher for small integer keys (the constant and
/// the final rotation follow rustc's `FxHasher`).
#[derive(Default)]
pub(crate) struct NodeHasher(u64);

impl NodeHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for NodeHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the well-mixed bits at the top; the bucket
        // index is taken from the bottom.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn hash(n: NodeId) -> u64 {
        BuildHasherDefault::<NodeHasher>::default().hash_one(n)
    }

    /// The hash is a pure function of the position, tells swapped
    /// coordinates apart, and spreads a dense grid over the low bits the
    /// table indexes buckets with.
    #[test]
    fn hash_is_deterministic_and_spreads_low_bits() {
        assert_eq!(hash(NodeId::new(3, 7)), hash(NodeId::new(3, 7)));
        assert_ne!(hash(NodeId::new(3, 7)), hash(NodeId::new(7, 3)));
        let buckets: HashSet<u64> = (0..64)
            .flat_map(|layer| (0..64).map(move |v| NodeId::new(v, layer)))
            .map(|n| hash(n) & 0xfff)
            .collect();
        // 4096 keys into 4096 buckets: a uniform hash fills about 63%.
        assert!(buckets.len() > 2400, "{} buckets used", buckets.len());
    }
}
