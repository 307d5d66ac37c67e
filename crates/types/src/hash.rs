//! The one hasher for integer-keyed simulator maps.
//!
//! The managers and the engine key several maps by a page, line or group
//! number and look them up on every simulated access: the shard's blocked
//! pages, the segment maps' group index, THM's competing counters. std's
//! default SipHash costs more than the rest of such a lookup, and its
//! per-process random seed buys nothing here — none of these maps is ever
//! iterated into a result, so the hash cannot reach one. [`PageHasher`] is
//! a single multiply per `u64` key with no seed, and [`BuildPageHasher`]
//! plugs it into `std::collections::HashMap`. Without a seed, a trace
//! crafted to collide can slow these maps down, but it cannot change a
//! result.
//!
//! # Examples
//!
//! ```
//! use std::collections::HashMap;
//!
//! use mempod_types::{BuildPageHasher, PageId};
//!
//! let mut m: HashMap<PageId, u32, BuildPageHasher> = HashMap::default();
//! m.insert(PageId(7), 1);
//! assert_eq!(m.get(&PageId(7)), Some(&1));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fibonacci) hasher for integer keys: one multiply per
/// `u64` written, no per-process seed.
#[derive(Debug, Default, Clone, Copy)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        // The product's well-mixed high bits become the low bits the
        // table indexes buckets with.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Builds [`PageHasher`]s: the `S` parameter of a page-keyed `HashMap`.
pub type BuildPageHasher = BuildHasherDefault<PageHasher>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;
    use crate::PageId;

    #[test]
    fn hashing_is_seedless_and_matches_the_raw_key() {
        let b = BuildPageHasher::default();
        assert_eq!(b.hash_one(PageId(42)), b.hash_one(42u64));
        assert_eq!(
            b.hash_one(42u64),
            BuildPageHasher::default().hash_one(42u64)
        );
        let mut h = PageHasher::default();
        42u64.hash(&mut h);
        assert_eq!(h.finish(), b.hash_one(42u64));
    }

    #[test]
    fn consecutive_keys_spread_over_low_bits() {
        // hashbrown indexes buckets with the low bits. 1024 consecutive
        // keys in a 1024-bucket table must fill at least as many buckets
        // as a random hash would (1 - 1/e, about 647).
        let b = BuildPageHasher::default();
        let low: std::collections::BTreeSet<u64> =
            (0..1024u64).map(|k| b.hash_one(k) & 0x3ff).collect();
        assert!(low.len() > 647, "only {} distinct buckets", low.len());
    }
}
