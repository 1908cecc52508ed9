//! A fast hasher for the simulator's own maps.
//!
//! `std`'s default SipHash resists hash-flooding, which no map here
//! needs: the simulation generates every key itself. [`FastHasher`]
//! folds each 64-bit word into its state with one full-width multiply,
//! xoring the product's high and low halves. That mixes every input bit
//! into both the low bits a hash table indexes by and the high bits it
//! filters probes with, which a plain multiply-rotate (the "Fx" scheme)
//! does not: keys that differ only in their last bytes, such as
//! `user:1` … `user:999`, would all share their high bits.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Folded-multiply hasher; see the [module docs](self).
#[derive(Clone, Copy, Debug)]
pub struct FastHasher(u64);

impl Default for FastHasher {
    fn default() -> Self {
        // Digits of pi: a non-zero start, so a run of zero words still
        // moves the state.
        FastHasher(0x243f_6a88_85a3_08d3)
    }
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn keys_differing_in_their_tail_spread_over_low_and_high_bits() {
        let build = BuildHasherDefault::<FastHasher>::default();
        let hashes: Vec<u64> = (0..1000)
            .map(|id| build.hash_one(format!("user:{id}")))
            .collect();
        let distinct = |f: fn(u64) -> u64| hashes.iter().map(|&h| f(h)).collect::<HashSet<_>>();
        assert_eq!(distinct(|h| h).len(), 1000);
        // hashbrown indexes by the low bits and filters by the top 7.
        assert!(distinct(|h| h & 0x3ff).len() > 550);
        assert!(distinct(|h| h >> 57).len() >= 120);
    }
}
