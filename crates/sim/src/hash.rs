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
//!   and model checksums all compute it. It hashes a little-endian
//!   8-byte word at a time — one `splitmix64` of the word index gives
//!   two odd 32-bit weights, one per 4-byte half — yet stays exactly
//!   additive over a split at any byte offset, because each word's term
//!   is the sum of its bytes' terms.

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

/// The `+ 1` of all four bytes of a half at once: the sum over lanes
/// `j` of `1 << 8j`.
const HALF_ONES: u64 = 0x0101_0101;

/// The odd 32-bit weights `(w0, w1)` of the low and high halves of
/// 8-byte word `k`.
fn word_weights(k: u64) -> (u64, u64) {
    let s = splitmix64(k);
    ((s & 0xFFFF_FFFF) | 1, (s >> 32) | 1)
}

/// The term of byte `b` at absolute offset `p` — the reference
/// definition of [`region_digest`].
fn byte_term(b: u8, p: u64) -> u64 {
    let (w0, w1) = word_weights(p / 8);
    let w = if p % 8 < 4 { w0 } else { w1 };
    ((b as u64 + 1) << (8 * (p % 4))).wrapping_mul(w)
}

/// Positional digest of `bytes`, which sit at offset `base` within
/// their region.
///
/// Byte `b` at absolute offset `p` lies in word `k = p / 8`, half
/// `h = (p % 8) / 4` and lane `j = p % 4`; with `s = splitmix64(k)`,
/// the half weights are `w0 = lo32(s) | 1` and `w1 = hi32(s) | 1`, and
/// the byte contributes `((b + 1) << 8j) * w_h`. Terms combine with
/// wrapping addition. An aligned word `x` therefore contributes
/// `(lo32(x) + 0x0101_0101) * w0 + (hi32(x) + 0x0101_0101) * w1`,
/// which is how the body is hashed; an unaligned head and tail take the
/// per-byte form.
///
/// Properties the integrity checks rely on:
///
/// * **Additive over any split.** Because addition is commutative and
///   associative, digests of disjoint chunks that tile a region — cut
///   at any byte offset — can be computed in any order, or on any queue
///   pair, and summed with [`combine_digests`] to equal the whole
///   region's digest. That lets the striped datapath checksum each WQE
///   run as its completion drains instead of re-reading the full slot.
/// * **Every single-byte change is detected.** The weights are odd, so
///   multiplying by one is a bijection mod 2^64, and `(b + 1) << 8j`
///   takes 256 distinct values below 2^33. A top-lane byte keeps at
///   least 40 bits of its product.
/// * **Position matters.** The `+ 1` keeps zero bytes from vanishing,
///   so a region of zeros at the wrong offset still mismatches, and
///   runs moved to other words meet other weights.
pub fn region_digest(bytes: &[u8], base: u64) -> u64 {
    let head = (base.wrapping_neg() % 8).min(bytes.len() as u64) as usize;
    let (head_bytes, rest) = bytes.split_at(head);
    let words = rest.chunks_exact(8);
    let tail = words.remainder();
    let body_base = base + head as u64;
    let tail_base = body_base + (rest.len() - tail.len()) as u64;
    // `(half + HALF_ONES) * w` summed over the body is
    // `sum(half * w) + HALF_ONES * sum(w)`: the products stay 32 x 32
    // bits and the `+ 1`s cost one multiply per call.
    let (mut lo, mut hi, mut weights) = (0u64, 0u64, 0u64);
    for (k, word) in (body_base / 8..).zip(words) {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of 8"));
        let (w0, w1) = word_weights(k);
        lo = lo.wrapping_add((x & 0xFFFF_FFFF).wrapping_mul(w0));
        hi = hi.wrapping_add((x >> 32).wrapping_mul(w1));
        weights = weights.wrapping_add(w0 + w1);
    }
    let edges = (head_bytes.iter().zip(base..))
        .chain(tail.iter().zip(tail_base..))
        .fold(0u64, |acc, (&b, p)| acc.wrapping_add(byte_term(b, p)));
    lo.wrapping_add(hi)
        .wrapping_add(weights.wrapping_mul(HALF_ONES))
        .wrapping_add(edges)
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

    /// The per-byte reference: the sum of every byte's term.
    fn reference_digest(bytes: &[u8], base: u64) -> u64 {
        (bytes.iter().zip(base..)).fold(0, |acc, (&b, p)| acc.wrapping_add(byte_term(b, p)))
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| splitmix64(i) as u8).collect()
    }

    #[test]
    fn word_path_matches_the_per_byte_reference() {
        let data = pattern(40);
        for base in (0..8).chain((1 << 40) - 3..(1 << 40) + 5) {
            for len in 0..=40 {
                assert_eq!(
                    region_digest(&data[..len], base),
                    reference_digest(&data[..len], base),
                    "base {base}, len {len}"
                );
            }
        }
    }

    #[test]
    fn every_cut_combines_to_the_whole() {
        let data = pattern(70);
        for base in [0, 3, 8, 13] {
            let whole = region_digest(&data, base);
            for cut in 0..=data.len() {
                let (a, b) = data.split_at(cut);
                let (da, db) = (region_digest(a, base), region_digest(b, base + cut as u64));
                assert_eq!(combine_digests(da, db), whole, "base {base}, cut {cut}");
                assert_eq!(combine_digests(db, da), whole, "base {base}, cut {cut}");
            }
        }
    }

    #[test]
    fn region_digest_tiles_commute() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = region_digest(&data, 0);
        // Any partition into offset-tagged tiles sums to the whole,
        // regardless of combine order.
        let a = region_digest(&data[..100], 0);
        let b = region_digest(&data[100..700], 100);
        let c = region_digest(&data[700..], 700);
        assert_eq!(combine_digests(combine_digests(a, b), c), whole);
        assert_eq!(combine_digests(c, combine_digests(b, a)), whole);
        // Position matters: the same bytes at a different base differ.
        assert_ne!(
            region_digest(&data[..100], 0),
            region_digest(&data[..100], 4)
        );
    }

    #[test]
    fn any_one_byte_change_in_any_lane_is_detected() {
        for original in [0u8, 0x5A, 0xFF] {
            let data = [original; 24];
            let clean = region_digest(&data, 0);
            for at in 8..16 {
                for value in (0..=u8::MAX).filter(|&v| v != original) {
                    let mut bad = data;
                    bad[at] = value;
                    // Nonzero, and set below bit 32: every lane keeps
                    // at least 33 bits of its product, where a
                    // whole-word multiply would leave lane 7 eight.
                    let diff = region_digest(&bad, 0).wrapping_sub(clean);
                    assert!(diff.trailing_zeros() < 32, "lane {}, {value:#x}", at % 8);
                }
            }
        }
    }

    #[test]
    fn zeros_at_a_shifted_offset_mismatch() {
        let zeros = [0u8; 100];
        for shift in [1, 4, 8, 64] {
            assert_ne!(region_digest(&zeros, 0), region_digest(&zeros, shift));
        }
    }

    #[test]
    fn swapped_runs_mismatch() {
        let data = pattern(96);
        for (base, run) in [(0, 32), (8, 16), (3, 13), (5, 21)] {
            let (a, b) = (&data[..run], &data[run..2 * run]);
            let straight =
                combine_digests(region_digest(a, base), region_digest(b, base + run as u64));
            let swapped =
                combine_digests(region_digest(b, base), region_digest(a, base + run as u64));
            assert_ne!(straight, swapped, "base {base}, run {run}");
        }
    }

    #[test]
    fn finalizer_matches_the_reference_stream() {
        // The first outputs of the reference generator seeded with 0,
        // which adds the golden gamma before each finalization.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }
}
