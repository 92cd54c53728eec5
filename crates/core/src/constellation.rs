//! Constellation mapping with per-carrier bit loading.
//!
//! The standard family spans BPSK (802.11a rate 6), QPSK/DQPSK (DAB,
//! HomePlug, DRM), square QAM up to 64-QAM (802.11a, DVB-T) and the DMT
//! systems' per-tone *bit loading* of 2–15 bits (ADSL/VDSL). One Gray-coded
//! rectangular-QAM mapper covers all of them: the constellation is just
//! another Mother Model parameter.
//!
//! All constellations are normalized to unit average symbol energy so that
//! reconfiguration never changes transmit power.
//!
//! [`Modulation::map`] defines the mapping; the transmitter reads points
//! from tables instead. A point's I value depends only on the I bits
//! and its Q value only on the Q bits (the energy normalization divides
//! each component separately), so one I table and one Q table per bit
//! loading, filled from `map` itself once per process, reproduce every
//! point bit for bit.

use ofdm_dsp::bits::{binary_to_gray, gray_to_binary};
use ofdm_dsp::Complex64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A constellation choice for one or all subcarriers.
///
/// # Example
///
/// ```
/// use ofdm_core::constellation::Modulation;
///
/// let m = Modulation::Qam(6); // 64-QAM
/// assert_eq!(m.bits_per_symbol(), 6);
/// let point = m.map(&[0, 0, 0, 0, 0, 0]);
/// // Unit average energy: every point is within a few dB of 1.
/// assert!(point.abs() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// Binary phase-shift keying (1 bit/symbol), points ±1.
    Bpsk,
    /// Quadrature phase-shift keying (2 bits/symbol), Gray coded.
    Qpsk,
    /// Gray-coded rectangular QAM with the given bits/symbol (2..=15).
    /// Even values are square (e.g. `Qam(4)` = 16-QAM); odd values are
    /// rectangular (DMT bit loading).
    Qam(u8),
}

impl Modulation {
    /// Builds the modulation carrying `bits` bits per symbol, or `None`
    /// for unusable bit loadings (0 or > 15) — the fallible entry for
    /// untrusted loading tables.
    pub fn try_from_bits(bits: u8) -> Option<Self> {
        match bits {
            1 => Some(Modulation::Bpsk),
            2 => Some(Modulation::Qpsk),
            3..=15 => Some(Modulation::Qam(bits)),
            _ => None,
        }
    }

    /// Builds the modulation carrying `bits` bits per symbol.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 15; use
    /// [`Modulation::try_from_bits`] for untrusted input.
    pub fn from_bits(bits: u8) -> Self {
        Modulation::try_from_bits(bits).expect("bit loading must be in 1..=15")
    }

    /// Bits carried per constellation symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam(b) => b as usize,
        }
    }

    /// Returns `true` if this modulation is valid (QAM bit counts 2..=15).
    pub fn is_valid(self) -> bool {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => true,
            Modulation::Qam(b) => (2..=15).contains(&b),
        }
    }

    /// I/Q axis level counts `(m_i, m_q)`.
    fn axis_levels(self) -> (u32, u32) {
        let b = self.bits_per_symbol() as u32;
        let bi = b.div_ceil(2);
        let bq = b / 2;
        (1 << bi, 1 << bq)
    }

    /// Normalization factor: √(average symbol energy) of the raw integer
    /// grid, so `map` divides by it.
    fn energy_norm(self) -> f64 {
        let (mi, mq) = self.axis_levels();
        let ei = (mi as f64 * mi as f64 - 1.0) / 3.0;
        let eq = if mq > 1 {
            (mq as f64 * mq as f64 - 1.0) / 3.0
        } else {
            0.0
        };
        (ei + eq).sqrt()
    }

    /// Maps `bits_per_symbol` bits (MSB first; first half to I, second half
    /// to Q) onto a unit-average-energy constellation point.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.bits_per_symbol()`.
    pub fn map(self, bits: &[u8]) -> Complex64 {
        assert_eq!(
            bits.len(),
            self.bits_per_symbol(),
            "wrong number of bits for {self}"
        );
        if self == Modulation::Bpsk {
            return Complex64::new(if bits[0] & 1 == 1 { 1.0 } else { -1.0 }, 0.0);
        }
        let (mi, mq) = self.axis_levels();
        let bi = mi.trailing_zeros() as usize;
        let gray_i = bits[..bi]
            .iter()
            .fold(0u32, |acc, &b| (acc << 1) | (b as u32 & 1));
        let gray_q = bits[bi..]
            .iter()
            .fold(0u32, |acc, &b| (acc << 1) | (b as u32 & 1));
        let li = gray_to_binary(gray_i);
        let lq = gray_to_binary(gray_q);
        let re = 2.0 * li as f64 - (mi as f64 - 1.0);
        let im = if mq > 1 {
            2.0 * lq as f64 - (mq as f64 - 1.0)
        } else {
            0.0
        };
        Complex64::new(re, im) / self.energy_norm()
    }

    /// This bit loading's axis tables.
    ///
    /// # Panics
    ///
    /// Panics unless the modulation [`is valid`](Modulation::is_valid).
    pub(crate) fn axes(self) -> &'static AxisTables {
        &axis_tables()[self.bits_per_symbol() - 1]
    }

    /// Hard-decision demapping: returns the bits of the nearest
    /// constellation point.
    pub fn demap_hard(self, z: Complex64) -> Vec<u8> {
        let mut bits = Vec::with_capacity(self.bits_per_symbol());
        self.demap_hard_into(z, &mut bits);
        bits
    }

    /// Hard-decision demapping that appends the bits of the nearest
    /// constellation point to `out` (MSB first, I bits then Q bits) —
    /// the allocation-free form of [`Modulation::demap_hard`] a receiver
    /// uses to demap a whole frame into one buffer.
    pub fn demap_hard_into(self, z: Complex64, out: &mut Vec<u8>) {
        if self == Modulation::Bpsk {
            out.push(u8::from(z.re >= 0.0));
            return;
        }
        let (mi, mq) = self.axis_levels();
        let norm = self.energy_norm();
        let bi = mi.trailing_zeros() as usize;
        let bq = mq.trailing_zeros() as usize;
        let slice = |v: f64, m: u32| -> u32 {
            let idx = ((v * norm + (m as f64 - 1.0)) / 2.0).round();
            idx.clamp(0.0, m as f64 - 1.0) as u32
        };
        let gi = binary_to_gray(slice(z.re, mi));
        let gq = if mq > 1 {
            binary_to_gray(slice(z.im, mq))
        } else {
            0
        };
        out.extend((0..bi).rev().map(|k| ((gi >> k) & 1) as u8));
        out.extend((0..bq).rev().map(|k| ((gq >> k) & 1) as u8));
    }

    /// All constellation points, in bit-pattern order (useful for EVM
    /// references and plotting).
    pub fn points(self) -> Vec<Complex64> {
        let b = self.bits_per_symbol();
        (0..(1usize << b))
            .map(|v| {
                let bits: Vec<u8> = (0..b).rev().map(|k| ((v >> k) & 1) as u8).collect();
                self.map(&bits)
            })
            .collect()
    }
}

/// One bit loading's constellation as per-axis tables: the I value of
/// each I-bit pattern and the Q value of each Q-bit pattern.
#[derive(Debug)]
pub(crate) struct AxisTables {
    /// Bits per point.
    pub(crate) bits: u32,
    /// Q bits in a word (its low bits).
    q_bits: u32,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl AxisTables {
    /// The point of a `bits`-bit word, the first bit in the most
    /// significant position.
    #[inline]
    pub(crate) fn point(&self, word: usize) -> Complex64 {
        Complex64::new(
            self.re[word >> self.q_bits],
            self.im[word & ((1 << self.q_bits) - 1)],
        )
    }
}

/// The axis tables of bit loadings 1..=15 (index `bits − 1`), filled from
/// [`Modulation::map`] on first use and shared process-wide.
fn axis_tables() -> &'static [AxisTables] {
    static TABLES: OnceLock<Vec<AxisTables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        (1..=15u8)
            .map(|b| {
                let m = Modulation::from_bits(b);
                let q_bits = u32::from(b / 2);
                let point = |word: usize| {
                    let bits: Vec<u8> = (0..b).rev().map(|k| ((word >> k) & 1) as u8).collect();
                    m.map(&bits)
                };
                AxisTables {
                    bits: u32::from(b),
                    q_bits,
                    re: (0..1usize << (u32::from(b) - q_bits))
                        .map(|i| point(i << q_bits).re)
                        .collect(),
                    im: (0..1usize << q_bits).map(|q| point(q).im).collect(),
                }
            })
            .collect()
    })
}

impl fmt::Display for Modulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Modulation::Bpsk => write!(f, "BPSK"),
            Modulation::Qpsk => write!(f, "QPSK"),
            Modulation::Qam(b) => write!(f, "{}-QAM", 1u32 << b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_mods() -> Vec<Modulation> {
        let mut v = vec![Modulation::Bpsk, Modulation::Qpsk];
        v.extend((3..=15).map(Modulation::Qam));
        v
    }

    #[test]
    fn axis_tables_match_map_for_every_pattern_of_every_loading() {
        let mut modulations = vec![Modulation::Bpsk, Modulation::Qpsk];
        modulations.extend((2..=15).map(Modulation::Qam));
        for m in modulations {
            let b = m.bits_per_symbol();
            for word in 0..1usize << b {
                let bits: Vec<u8> = (0..b).rev().map(|i| ((word >> i) & 1) as u8).collect();
                let (want, got) = (m.map(&bits), m.axes().point(word));
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{m} word {word:#b}"
                );
            }
        }
    }

    #[test]
    fn from_bits_roundtrip() {
        for b in 1..=15u8 {
            assert_eq!(Modulation::from_bits(b).bits_per_symbol(), b as usize);
        }
    }

    #[test]
    fn try_from_bits_rejects_without_panicking() {
        assert_eq!(Modulation::try_from_bits(0), None);
        assert_eq!(Modulation::try_from_bits(16), None);
        assert_eq!(Modulation::try_from_bits(255), None);
        assert_eq!(Modulation::try_from_bits(1), Some(Modulation::Bpsk));
        assert_eq!(Modulation::try_from_bits(2), Some(Modulation::Qpsk));
        assert_eq!(Modulation::try_from_bits(15), Some(Modulation::Qam(15)));
    }

    #[test]
    #[should_panic(expected = "bit loading")]
    fn from_bits_zero_panics() {
        let _ = Modulation::from_bits(0);
    }

    #[test]
    #[should_panic(expected = "bit loading")]
    fn from_bits_sixteen_panics() {
        let _ = Modulation::from_bits(16);
    }

    #[test]
    fn unit_average_energy() {
        for m in all_mods() {
            let pts = m.points();
            let e: f64 = pts.iter().map(|p| p.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((e - 1.0).abs() < 1e-12, "{m} energy {e}");
        }
    }

    #[test]
    fn map_demap_roundtrip_all_points() {
        for m in all_mods() {
            let b = m.bits_per_symbol();
            for v in 0..(1usize << b) {
                let bits: Vec<u8> = (0..b).rev().map(|k| ((v >> k) & 1) as u8).collect();
                let z = m.map(&bits);
                assert_eq!(m.demap_hard(z), bits, "{m} pattern {v:0b}");
            }
        }
    }

    #[test]
    fn demap_robust_to_small_noise() {
        for m in [Modulation::Qpsk, Modulation::Qam(4), Modulation::Qam(6)] {
            let b = m.bits_per_symbol();
            for v in 0..(1usize << b) {
                let bits: Vec<u8> = (0..b).rev().map(|k| ((v >> k) & 1) as u8).collect();
                let z = m.map(&bits) + Complex64::new(0.01, -0.01);
                assert_eq!(m.demap_hard(z), bits);
            }
        }
    }

    #[test]
    fn gray_property_adjacent_points_differ_one_bit() {
        // 16-QAM: horizontally adjacent points differ in exactly one bit.
        let m = Modulation::Qam(4);
        let d = 2.0 / m.energy_norm();
        for v in 0..16usize {
            let bits: Vec<u8> = (0..4).rev().map(|k| ((v >> k) & 1) as u8).collect();
            let z = m.map(&bits);
            let right = z + Complex64::new(d, 0.0);
            // If `right` is still inside the constellation, compare bits.
            if right.re * m.energy_norm() <= 3.0 + 1e-9 {
                let nb = m.demap_hard(right);
                let diff: usize = bits.iter().zip(&nb).filter(|(a, b)| a != b).count();
                assert_eq!(diff, 1, "pattern {v:04b}");
            }
        }
    }

    #[test]
    fn bpsk_points() {
        assert_eq!(Modulation::Bpsk.map(&[1]), Complex64::new(1.0, 0.0));
        assert_eq!(Modulation::Bpsk.map(&[0]), Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn qpsk_quadrants() {
        let m = Modulation::Qpsk;
        let s = 1.0 / 2f64.sqrt();
        assert!((m.map(&[1, 1]) - Complex64::new(s, s)).abs() < 1e-12);
        assert!((m.map(&[0, 0]) - Complex64::new(-s, -s)).abs() < 1e-12);
    }

    #[test]
    fn odd_bit_loading_is_rectangular() {
        // 8-QAM (3 bits): 4 I-levels × 2 Q-levels.
        let pts = Modulation::Qam(3).points();
        assert_eq!(pts.len(), 8);
        let mut res: Vec<i64> = pts.iter().map(|p| (p.re * 1e6).round() as i64).collect();
        res.sort_unstable();
        res.dedup();
        assert_eq!(res.len(), 4);
        let mut ims: Vec<i64> = pts.iter().map(|p| (p.im * 1e6).round() as i64).collect();
        ims.sort_unstable();
        ims.dedup();
        assert_eq!(ims.len(), 2);
    }

    #[test]
    fn demap_clamps_out_of_range() {
        let m = Modulation::Qam(4);
        // A wildly out-of-range sample decodes to the nearest corner.
        let bits = m.demap_hard(Complex64::new(100.0, 100.0));
        let corner = m.map(&bits);
        assert!(corner.re > 0.0 && corner.im > 0.0);
        let norm = 3.0 / m.energy_norm();
        assert!((corner.re - norm).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "wrong number of bits")]
    fn map_wrong_bit_count_panics() {
        let _ = Modulation::Qpsk.map(&[1]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Modulation::Bpsk.to_string(), "BPSK");
        assert_eq!(Modulation::Qpsk.to_string(), "QPSK");
        assert_eq!(Modulation::Qam(6).to_string(), "64-QAM");
        assert_eq!(Modulation::Qam(10).to_string(), "1024-QAM");
    }

    #[test]
    fn validity() {
        assert!(Modulation::Bpsk.is_valid());
        assert!(Modulation::Qam(15).is_valid());
        assert!(!Modulation::Qam(0).is_valid());
        assert!(!Modulation::Qam(16).is_valid());
    }
}
