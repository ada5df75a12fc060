//! The workspace's hash functions, in one place.
//!
//! * [`splitmix64`] — the 64-bit finalizer behind [`crate::SimRng`],
//!   fault coin flips, rendezvous placement, synthetic model shapes,
//!   dedup content hashes and the digest's position weights.
//! * [`Fnv1a`] — streaming FNV-1a, the *format* hash of ModelTable name
//!   tags, rendezvous scores and the checkpoint container trailer.
//!   Those bytes are on media or decide placement, so it stays FNV-1a.
//! * [`region_digest`] / [`combine_digests`] — the positional digest,
//!   the one *integrity* word: slot seals, restore verification, buffer
//!   and model checksums all compute it.

/// splitmix64 (Steele et al.) — the standard 64-bit finalizer. Not
/// cryptographic.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Streaming 64-bit FNV-1a.
///
/// # Examples
///
/// ```
/// use portus_sim::hash::Fnv1a;
///
/// let mut split = Fnv1a::new();
/// split.write(b"res");
/// split.write(b"net");
/// let mut whole = Fnv1a::new();
/// whole.write(b"resnet");
/// assert_eq!(split.finish(), whole.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Positional digest of `bytes`, which sit at offset `base` within
/// their region: each byte contributes `(b + 1) * splitmix64(base + i)`
/// and contributions combine with wrapping addition. Because addition
/// is commutative and associative, digests of disjoint chunks that tile
/// a region can be computed in any order — or on any queue pair — and
/// summed with [`combine_digests`] to equal the whole region's digest,
/// which is what lets the striped datapath checksum each WQE run as its
/// completion drains instead of re-reading the full slot afterwards.
/// The `+ 1` keeps zero bytes from vanishing, so a region of zeros at
/// the wrong offset still mismatches.
pub fn region_digest(bytes: &[u8], base: u64) -> u64 {
    let mut acc = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        acc = acc.wrapping_add((b as u64 + 1).wrapping_mul(splitmix64(base + i as u64)));
    }
    acc
}

/// Combines the positional digests of two disjoint chunks of one
/// region (order-independent).
pub fn combine_digests(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        let of = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn finalizer_matches_the_reference_stream() {
        // The first outputs of the reference generator seeded with 0,
        // which adds the golden gamma before each finalization.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }
}
