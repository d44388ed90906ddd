//! A seeded, finalised multiply hasher for maps keyed by header values.
//!
//! The monitor engine's hot maps are keyed by a few `u64` words: packet
//! header values, stage numbers, timer ids. std's default SipHash spends
//! most of such a lookup hashing. [`FoldHasher`] folds each word into its
//! state with one 128-bit multiply, the low half of the product XORed with
//! the high half, and folds once more on `finish`. That way every input
//! bit reaches the low bits, which hashbrown picks buckets by. Hashed as
//! bytes, addresses that differ only in their last octets differ only in
//! their word's high bytes, and a plain multiply never carries high bits
//! into low ones.
//!
//! Keys come from traffic, so a fixed hash would let traffic be chosen to
//! flood one bucket. Each [`FoldState`] therefore draws its seed from
//! [`RandomState`] once, as std's default does once per map.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed by [`FoldHasher`].
pub type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// The odd constant each word is folded with (PCG-64's multiplier).
const MULTIPLE: u64 = 0x5851_f42d_4c95_7f2d;

/// The 128-bit product of `a` and `b`, its halves XORed together.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Builds one map's [`FoldHasher`]s from the seed drawn when it was made.
#[derive(Debug, Clone)]
pub struct FoldState {
    seed: u64,
    /// The finaliser's factor; odd, so never zero.
    pad: u64,
}

impl Default for FoldState {
    fn default() -> Self {
        let random = RandomState::new();
        FoldState { seed: random.hash_one(0u8), pad: random.hash_one(1u8) | 1 }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { acc: self.seed, pad: self.pad }
    }
}

/// Hashes word by word; see the module docs.
#[derive(Debug, Clone)]
pub struct FoldHasher {
    acc: u64,
    pad: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = fold(self.acc ^ word, MULTIPLE);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, self.pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldValue, Ipv4Address, MacAddr};
    use std::collections::HashSet;
    use std::hash::Hash;

    #[test]
    fn every_map_draws_its_own_seed() {
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_eq!(a.hash_one(42u64), a.hash_one(42u64), "one map hashes a key one way");
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64), "two maps hash it two ways");
    }

    /// How many distinct values the low 12 bits of `keys`' hashes take.
    fn low_bits_taken<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let state = FoldState::default();
        keys.map(|k| state.hash_one(k) & 0xfff).collect::<HashSet<_>>().len()
    }

    #[test]
    fn keys_differing_in_their_last_octets_spread_over_the_low_bits() {
        // 4 096 keys over 4 096 buckets: a uniform hash fills 1 - 1/e of
        // them, ~2 589 (sd ~20). A multiply without the finaliser leaves
        // keys that differ only above bit 12 in one bucket: hashed through
        // their derived `Hash`, an address's last octets are its word's
        // high bytes.
        let macs = || (0..4096).map(|i| MacAddr::from_u64(0x0200_0000_0000 + i));
        let ips = || (0..4096).map(|i| Ipv4Address::from_u32(0x0a00_0000 + i));
        let taken = [
            ("MAC bytes", low_bits_taken(macs())),
            ("MAC word", low_bits_taken(macs().map(|m| FieldValue::Mac(m).to_u64_key()))),
            ("IPv4 bytes", low_bits_taken(ips())),
            ("IPv4 word", low_bits_taken(ips().map(|a| FieldValue::Ipv4(a).to_u64_key()))),
            ("high word", low_bits_taken((0..4096u64).map(|i| i << 52))),
        ];
        for (keys, n) in taken {
            assert!(n >= 2_400, "{keys} keys take {n} of 4096 low-bit values");
        }
    }
}
