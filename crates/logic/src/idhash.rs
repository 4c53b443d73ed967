//! A fast hasher for keys the program assigns itself.
//!
//! The encoders' memos are keyed by node addresses and literal indices.
//! The standard hasher (SipHash) resists keys crafted to collide, which
//! these maps do not need: no key is ever taken from model text or any
//! other input, so no input can choose the keys. [`IdMap`] trades that
//! resistance for a multiply per word.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by program-assigned integers (node addresses, literal
/// indices, tuples of them), hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiplicative hasher: each word is added to the state, which is
/// then multiplied by an odd constant. The product's high bits mix every
/// input bit but its low bits only the low input bits, and node
/// addresses share their low (alignment) bits, so `finish` rotates the
/// high bits down to where the table takes its bucket index.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

/// An odd constant with well-spread bits.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn aligned_addresses_spread_over_the_low_bits() {
        // 4096 addresses 8 bytes apart, as boxed nodes are: the low 12
        // bits of their hashes, a 4096-bucket table's index, should take
        // most of the 4096 values.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096usize {
            seen.insert(hash(&(0x7f00_0000_1000 + 8 * i)) & 0xfff);
        }
        assert!(seen.len() > 2500, "{} distinct bucket indices", seen.len());
    }

    #[test]
    fn distinct_keys_hash_apart() {
        let keys: Vec<Vec<usize>> = vec![vec![1, 2], vec![2, 1], vec![1, 2, 3], vec![3]];
        let hashes: std::collections::HashSet<u64> = keys.iter().map(hash).collect();
        assert_eq!(hashes.len(), keys.len());
        assert_ne!(hash(&(1usize, 2usize)), hash(&(2usize, 1usize)));
    }
}
