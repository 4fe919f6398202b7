//! Stable, non-cryptographic fingerprinting for cache keys and request
//! coalescing.
//!
//! The serving layer keys its distribution cache, its in-flight request
//! map and its spill store by a `u64` fingerprint of a compute
//! request's opcode and raw payload bytes, and
//! [`Counts::fingerprint`](crate::Counts::fingerprint) hashes a
//! histogram's sorted columns. Those fingerprints must be **stable
//! across processes and platforms** — `std::hash::Hash` with
//! `DefaultHasher`/`RandomState` is randomized per process — so the
//! workspace carries its own hasher, [`Fingerprinter`].
//!
//! # What it computes
//!
//! The state starts at a fixed seed. Each whole little-endian 8-byte
//! word `w` is absorbed with one multiply-mix,
//! `state = (state.rotate_left(23) ^ w) · K` (wrapping, `K` odd). A tail
//! of 1 to 7 bytes is zero-padded to a word, its length is placed in
//! the word's top byte, and the word is absorbed the same way, so `[1]`
//! and `[1, 0]` hash apart. [`finish`](Fingerprinter::finish) runs the
//! state through a 64-bit avalanche finalizer (MurmurHash3's `fmix64`),
//! so every input bit reaches every output bit.
//!
//! For a fixed word each step is a bijection of the state, and for a
//! fixed state a bijection of the word, as is the finalizer. Two inputs
//! written through the same sequence of calls and lengths that differ
//! in a single word therefore always fingerprint apart; a single-bit
//! flip anywhere is such a difference. A call is a unit: one
//! `write_bytes(b"ab")` and two calls `write_bytes(b"a")`,
//! `write_bytes(b"b")` fingerprint differently.
//!
//! The fingerprint is **not a cryptographic hash**: collisions are easy
//! to construct on purpose. That is acceptable here because a
//! collision only serves a cached result for the wrong request, and a
//! hostile client could equally just request the wrong thing. Do not
//! use these fingerprints for authentication or content addressing of
//! untrusted data.
//!
//! # Example
//!
//! ```
//! use hammer_dist::fingerprint::Fingerprinter;
//!
//! let mut h = Fingerprinter::new();
//! h.write_u64(42);
//! h.write_bytes(b"ghz");
//! let a = h.finish();
//!
//! // Same input, same fingerprint — in every process, on every platform.
//! let mut h = Fingerprinter::new();
//! h.write_u64(42);
//! h.write_bytes(b"ghz");
//! assert_eq!(h.finish(), a);
//! ```

/// The initial state.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// The per-word multiplier: odd, with well-spread bits (2⁶⁴ / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// An incremental 64-bit word-at-a-time hasher over a canonical
/// little-endian encoding (see the [module docs](self)).
///
/// All multi-byte writes encode little-endian, and `f64` values hash
/// their IEEE-754 bit pattern (`to_bits`), so two values fingerprint
/// equal exactly when they are bit-identical — `0.0` and `-0.0` hash
/// differently, `NaN` payloads are distinguished, and no float
/// comparison is involved.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    state: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// A hasher at the seed state.
    #[must_use]
    pub fn new() -> Self {
        Self { state: SEED }
    }

    /// The one multiply-mix every word goes through.
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(23) ^ word).wrapping_mul(K);
    }

    /// Absorbs raw bytes: whole little-endian words, then a zero-padded
    /// tail tagged with its length.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 8];
            padded[..tail.len()].copy_from_slice(tail);
            padded[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(padded));
        }
    }

    /// Absorbs one byte — also the canonical way to hash an enum
    /// discriminant tag.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u64` as one word, exactly as
    /// `write_bytes(&v.to_le_bytes())` would.
    pub fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    /// Absorbs a `usize` widened to `u64`, so 32- and 64-bit platforms
    /// agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The fingerprint of everything absorbed so far: the state after
    /// the `fmix64` avalanche.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut x = self.state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(bytes: &[u8]) -> u64 {
        let mut h = Fingerprinter::new();
        h.write_bytes(bytes);
        h.finish()
    }

    #[test]
    fn pinned_vectors_stay_stable() {
        // Fingerprints key the spill store on disk, so the function must
        // not drift silently between builds.
        assert_eq!(Fingerprinter::new().finish(), 0xefd0_1f60_ba99_2926);
        assert_eq!(fp(b"a"), 0x4a29_5dda_f8bc_8581);
        assert_eq!(fp(b"foobar"), 0xb857_15c9_e2b3_3e69);
        assert_eq!(fp(b"0123456789abcdef"), 0x8c92_b3cc_7758_a9b1);
    }

    #[test]
    fn zero_padded_tails_hash_apart_by_length() {
        assert_ne!(fp(&[1]), fp(&[1, 0]));
        assert_ne!(fp(&[]), fp(&[0]));
        assert_ne!(fp(&[0; 7]), fp(&[0; 8]));
        assert_ne!(fp(&[0; 8]), fp(&[0; 9]));
    }

    #[test]
    fn a_single_bit_flip_anywhere_moves_the_hash() {
        for len in 1..=27usize {
            let bytes: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
            let base = fp(&bytes);
            for bit in 0..len * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(fp(&flipped), base, "len {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn write_u64_is_write_bytes_of_its_le_bytes() {
        for v in [0, 1, 0xff, 1 << 63, 0x0123_4567_89ab_cdef, u64::MAX] {
            let mut a = Fingerprinter::new();
            a.write_u64(v);
            a.write_u64(!v);
            let mut b = Fingerprinter::new();
            b.write_bytes(&v.to_le_bytes());
            b.write_bytes(&(!v).to_le_bytes());
            assert_eq!(a.finish(), b.finish(), "{v:#x}");
        }
    }

    #[test]
    fn writes_are_order_sensitive_and_typed() {
        let mut a = Fingerprinter::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprinter::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        // u8 vs u64 of the same value differ (different byte lengths).
        let mut c = Fingerprinter::new();
        c.write_u8(7);
        let mut d = Fingerprinter::new();
        d.write_u64(7);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn floats_hash_their_bit_patterns() {
        let mut a = Fingerprinter::new();
        a.write_f64(0.0);
        let mut b = Fingerprinter::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprinter::new();
        c.write_f64(1.5);
        let mut d = Fingerprinter::new();
        d.write_f64(1.5);
        assert_eq!(c.finish(), d.finish());
    }
}
