//! Bit-level utilities: LFSR pseudo-random binary sequences, bit packing,
//! and Gray coding.
//!
//! Every OFDM standard in the family scrambles or randomizes its payload
//! with an LFSR-derived PRBS (802.11a's S(x) = x⁷+x⁴+1, DVB's
//! x¹⁵+x¹⁴+1 randomizer, …); this module provides the shared machinery.

/// A Fibonacci linear-feedback shift register over GF(2).
///
/// The register holds the last `order` output bits (`bit t-1` = output
/// `t` steps ago); each step emits the XOR of the tapped positions — the
/// convention used by the 802.11a scrambler, the DVB randomizer and the DRM
/// energy-dispersal PRBS, where the generator `x^a + x^b + 1` means
/// `out[n] = out[n-a] ⊕ out[n-b]`.
///
/// # Example
///
/// The 802.11a scrambler polynomial x⁷ + x⁴ + 1 with the all-ones seed
/// produces the well-known 127-bit sequence starting `0000 1110 1111 0010 …`:
///
/// ```
/// use ofdm_dsp::bits::Lfsr;
///
/// let mut s = Lfsr::new(7, &[7, 4], 0x7f);
/// let first: Vec<u8> = (0..8).map(|_| s.next_bit()).collect();
/// assert_eq!(first, vec![0, 0, 0, 0, 1, 1, 1, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u32,
    order: u32,
    taps: Vec<u32>,
}

impl Lfsr {
    /// Creates an LFSR of the given `order` (register length in bits) with
    /// feedback `taps` (1-based exponents of the polynomial) and initial
    /// `seed` (low `order` bits are used; must be nonzero for maximal-length
    /// operation).
    ///
    /// # Panics
    ///
    /// Panics if `order` is 0 or exceeds 31, or if any tap is out of range.
    pub fn new(order: u32, taps: &[u32], seed: u32) -> Self {
        assert!(order > 0 && order <= 31, "order must be in 1..=31");
        assert!(
            taps.iter().all(|&t| t >= 1 && t <= order),
            "taps must be in 1..=order"
        );
        Lfsr {
            state: seed & ((1 << order) - 1),
            order,
            taps: taps.to_vec(),
        }
    }

    /// Advances the register one step and returns the output bit (0 or 1).
    #[inline]
    pub fn next_bit(&mut self) -> u8 {
        let mut fb = 0u32;
        for &t in &self.taps {
            fb ^= (self.state >> (t - 1)) & 1;
        }
        self.state = ((self.state << 1) | fb) & ((1 << self.order) - 1);
        fb as u8
    }

    /// Generates `n` bits into a new vector.
    pub fn take_bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_bit()).collect()
    }

    /// Current register contents (low `order` bits).
    #[inline]
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Reseeds the register.
    pub fn reseed(&mut self, seed: u32) {
        self.state = seed & ((1 << self.order) - 1);
    }
}

/// Packs a slice of bits (each 0 or 1, MSB first) into bytes.
///
/// The final byte is zero-padded on the LSB side if `bits.len()` is not a
/// multiple of 8. Only the low bit of each input byte is read.
pub fn pack_msb_first(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len().div_ceil(8));
    pack_msb_first_into(bits, &mut out);
    out
}

/// [`pack_msb_first`] appending to `out`: eight bits at a time, gathered
/// with one multiply (bit `i` of the little-endian word moves to bit
/// `63 − i` of the product's top byte, and no two partial products
/// overlap, so nothing carries).
pub fn pack_msb_first_into(bits: &[u8], out: &mut Vec<u8>) {
    const LOW_BITS: u64 = 0x0101_0101_0101_0101;
    const GATHER: u64 = 0x8040_2010_0804_0201;
    let gather =
        |group: [u8; 8]| ((u64::from_le_bytes(group) & LOW_BITS).wrapping_mul(GATHER) >> 56) as u8;
    let mut groups = bits.chunks_exact(8);
    out.extend(groups.by_ref().map(|g| {
        let mut group = [0u8; 8];
        group.copy_from_slice(g);
        gather(group)
    }));
    let tail = groups.remainder();
    if !tail.is_empty() {
        let mut group = [0u8; 8];
        group[..tail.len()].copy_from_slice(tail);
        out.push(gather(group));
    }
}

/// The eight bits of each byte value, MSB first, as the little-endian
/// bytes of a `u64`.
const UNPACKED: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut v = 0;
    while v < 256 {
        let mut word = 0u64;
        let mut i = 0;
        while i < 8 {
            word |= (((v >> (7 - i)) & 1) as u64) << (8 * i);
            i += 1;
        }
        table[v] = word;
        v += 1;
    }
    table
};

/// Unpacks bytes into bits, MSB first.
pub fn unpack_msb_first(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    unpack_msb_first_into(bytes, &mut out);
    out
}

/// [`unpack_msb_first`] appending to `out`, one table word per byte.
pub fn unpack_msb_first_into(bytes: &[u8], out: &mut Vec<u8>) {
    out.reserve(bytes.len() * 8);
    for &byte in bytes {
        out.extend_from_slice(&UNPACKED[usize::from(byte)].to_le_bytes());
    }
}

/// Converts a binary value to its Gray code.
#[inline]
pub fn binary_to_gray(v: u32) -> u32 {
    v ^ (v >> 1)
}

/// Converts a Gray code back to binary.
///
/// Uses the fixed descending-shift cascade, correct over the full `u32`
/// range (an adaptive ascending loop overflows its shift count for codes
/// with bits at or above position 16).
#[inline]
pub fn gray_to_binary(mut g: u32) -> u32 {
    g ^= g >> 16;
    g ^= g >> 8;
    g ^= g >> 4;
    g ^= g >> 2;
    g ^= g >> 1;
    g
}

/// Counts bit positions where `a` and `b` differ (for BER measurement).
pub fn hamming_distance(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| (**x & 1) != (**y & 1))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_80211a_scrambler_period_127() {
        let mut s = Lfsr::new(7, &[7, 4], 0x7f);
        let seq = s.take_bits(254);
        // Maximal-length 7-bit LFSR repeats with period 127.
        assert_eq!(&seq[..127], &seq[127..]);
        // Balanced: 64 ones, 63 zeros per period.
        let ones: usize = seq[..127].iter().map(|&b| b as usize).sum();
        assert_eq!(ones, 64);
    }

    #[test]
    fn lfsr_80211a_known_prefix() {
        // IEEE 802.11-2007 Annex G scrambling sequence for the all-ones seed.
        let mut s = Lfsr::new(7, &[7, 4], 0x7f);
        let got = s.take_bits(16);
        assert_eq!(got, vec![0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn lfsr_dvb_randomizer_period() {
        // DVB PRBS x^15 + x^14 + 1 is maximal length: period 2^15 - 1.
        let mut s = Lfsr::new(15, &[15, 14], 0b100101010000000);
        let start = s.state();
        let mut period = 0usize;
        loop {
            s.next_bit();
            period += 1;
            if s.state() == start {
                break;
            }
            assert!(period <= 40000, "no period found");
        }
        assert_eq!(period, (1 << 15) - 1);
    }

    #[test]
    fn lfsr_reseed_and_state() {
        let mut s = Lfsr::new(7, &[7, 4], 0x7f);
        s.take_bits(10);
        s.reseed(0x7f);
        assert_eq!(s.state(), 0x7f);
        assert_eq!(s.take_bits(4), vec![0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn lfsr_order_zero_panics() {
        let _ = Lfsr::new(0, &[1], 1);
    }

    #[test]
    #[should_panic(expected = "taps")]
    fn lfsr_bad_tap_panics() {
        let _ = Lfsr::new(7, &[8], 1);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1];
        let bytes = pack_msb_first(&bits);
        assert_eq!(bytes, vec![0b1011_0010, 0b1111_0001]);
        assert_eq!(unpack_msb_first(&bytes), bits);
    }

    #[test]
    fn pack_unpack_match_the_bitwise_fold() {
        // The per-bit fold the table and multiply versions replaced.
        let fold_pack = |bits: &[u8]| -> Vec<u8> {
            bits.chunks(8)
                .map(|c| {
                    c.iter()
                        .enumerate()
                        .fold(0u8, |acc, (i, &b)| acc | ((b & 1) << (7 - i)))
                })
                .collect()
        };
        let fold_unpack = |bytes: &[u8]| -> Vec<u8> {
            bytes
                .iter()
                .flat_map(|&byte| (0..8).map(move |i| (byte >> (7 - i)) & 1))
                .collect()
        };
        let all: Vec<u8> = (0..=255u8).collect();
        assert_eq!(unpack_msb_first(&all), fold_unpack(&all));
        // Every byte value as input, so high bits must be ignored.
        let mut s = Lfsr::new(15, &[15, 14], 0x1234);
        let noisy: Vec<u8> = (0..803)
            .map(|i| (i as u8).wrapping_mul(37) & 0xfe | s.next_bit())
            .collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 803] {
            assert_eq!(
                pack_msb_first(&noisy[..len]),
                fold_pack(&noisy[..len]),
                "len {len}"
            );
        }
        let mut out = vec![0xaa];
        pack_msb_first_into(&[1, 0, 1], &mut out);
        unpack_msb_first_into(&[0x81], &mut out);
        assert_eq!(out, vec![0xaa, 0b1010_0000, 1, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn pack_pads_final_byte() {
        let bits = vec![1, 1, 1];
        assert_eq!(pack_msb_first(&bits), vec![0b1110_0000]);
    }

    #[test]
    fn gray_roundtrip_and_adjacency() {
        for v in 0u32..256 {
            assert_eq!(gray_to_binary(binary_to_gray(v)), v);
        }
        // Adjacent codes differ in exactly one bit.
        for v in 0u32..255 {
            let d = binary_to_gray(v) ^ binary_to_gray(v + 1);
            assert_eq!(d.count_ones(), 1);
        }
    }

    #[test]
    fn hamming() {
        assert_eq!(hamming_distance(&[0, 1, 1, 0], &[0, 1, 0, 0]), 1);
        assert_eq!(hamming_distance(&[], &[]), 0);
    }
}
