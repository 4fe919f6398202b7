//! Stable, non-cryptographic fingerprinting for cache keys and request
//! coalescing.
//!
//! The serving layer keys its distribution cache and in-flight request
//! map by a `u64` fingerprint of the request's semantic content (circuit
//! structure, device, configuration, seed). Those fingerprints must be
//! **stable across processes and platforms** — `std::hash::Hash` with
//! `DefaultHasher`/`RandomState` is randomized per process, so the
//! workspace carries its own hasher: FNV-1a over a canonical
//! little-endian byte encoding.
//!
//! FNV-1a is **not a cryptographic hash**: collisions are easy to
//! construct on purpose. That is acceptable here because fingerprints
//! only dedupe *trusted* inputs (a collision serves a cached result for
//! the wrong request; a hostile client could equally just request the
//! wrong thing). Do not use these fingerprints for authentication or
//! content addressing of untrusted data.
//!
//! # Example
//!
//! ```
//! use hammer_dist::fingerprint::Fnv1a;
//!
//! let mut h = Fnv1a::new();
//! h.write_u64(42);
//! h.write_bytes(b"ghz");
//! let a = h.finish();
//!
//! // Same input, same fingerprint — in every process, on every platform.
//! let mut h = Fnv1a::new();
//! h.write_u64(42);
//! h.write_bytes(b"ghz");
//! assert_eq!(h.finish(), a);
//! ```

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher over a canonical byte encoding.
///
/// All multi-byte writes encode little-endian, and `f64` values hash
/// their IEEE-754 bit pattern (`to_bits`), so two values fingerprint
/// equal exactly when they are bit-identical — `0.0` and `-0.0` hash
/// differently, `NaN` payloads are distinguished, and no float
/// comparison is involved.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte — also the canonical way to hash an enum
    /// discriminant tag.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
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

    /// The fingerprint of everything absorbed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification (64-bit FNV-1a).
        let fp = |s: &str| {
            let mut h = Fnv1a::new();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fp("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fp("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn writes_are_order_sensitive_and_typed() {
        let mut a = Fnv1a::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        // u8 vs u64 of the same value differ (different byte lengths).
        let mut c = Fnv1a::new();
        c.write_u8(7);
        let mut d = Fnv1a::new();
        d.write_u64(7);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn floats_hash_their_bit_patterns() {
        let mut a = Fnv1a::new();
        a.write_f64(0.0);
        let mut b = Fnv1a::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv1a::new();
        c.write_f64(1.5);
        let mut d = Fnv1a::new();
        d.write_f64(1.5);
        assert_eq!(c.finish(), d.finish());
    }
}
