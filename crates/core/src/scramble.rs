//! Additive (synchronous) scrambling / energy dispersal.
//!
//! Every standard in the family whitens its payload with an additive LFSR
//! scrambler — 802.11a's x⁷+x⁴+1, DVB's x¹⁵+x¹⁴+1 energy dispersal, DRM's
//! x⁹+x⁵+1 — differing only in polynomial and seed: exactly the kind of
//! variation the Mother Model absorbs as a parameter.
//!
//! An additive scrambler's output does not depend on the data, so a
//! [`Scrambler`] never steps a register: it XORs the payload against one
//! period of the PRBS (`LfsrSpec::prbs`, built once per spec and shared
//! process-wide) from a running position that wraps at the period.

use crate::pilots::LfsrSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Scrambler configuration: which LFSR to XOR onto the bit stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScramblerSpec {
    /// Generator polynomial and seed.
    pub lfsr: LfsrSpec,
}

impl ScramblerSpec {
    /// 802.11a data scrambler (x⁷+x⁴+1). The standard seeds it with a
    /// pseudo-random nonzero state; the all-ones seed is used here so TX
    /// and reference RX agree.
    pub fn ieee80211() -> Self {
        ScramblerSpec {
            lfsr: LfsrSpec {
                order: 7,
                taps: vec![7, 4],
                seed: 0x7f,
            },
        }
    }

    /// DVB energy-dispersal PRBS (x¹⁵+x¹⁴+1, seed 100101010000000₂).
    pub fn dvb() -> Self {
        ScramblerSpec {
            lfsr: LfsrSpec {
                order: 15,
                taps: vec![15, 14],
                seed: 0b100101010000000,
            },
        }
    }

    /// DRM energy dispersal (x⁹+x⁵+1, all-ones seed).
    pub fn drm() -> Self {
        ScramblerSpec {
            lfsr: LfsrSpec {
                order: 9,
                taps: vec![9, 5],
                seed: 0x1ff,
            },
        }
    }
}

/// A running additive scrambler.
#[derive(Clone)]
pub struct Scrambler {
    spec: ScramblerSpec,
    /// One period of the PRBS, shared with every scrambler on this spec.
    prbs: Arc<[u8]>,
    /// Position of the next PRBS bit, in `0..prbs.len()`.
    pos: usize,
}

impl Scrambler {
    /// Instantiates the scrambler in its seeded state.
    ///
    /// # Panics
    ///
    /// Panics if [`LfsrSpec::validate`] rejects the spec's register;
    /// [`crate::params::OfdmParams::validate`] reports that as a
    /// [`crate::error::ConfigError`] first.
    pub fn new(spec: ScramblerSpec) -> Self {
        let prbs = spec.lfsr.prbs();
        Scrambler { spec, prbs, pos: 0 }
    }

    /// XORs the PRBS onto `bits`, returning the scrambled stream. Because
    /// the scrambler is additive, applying it twice from the same seed is
    /// the identity — the reference receiver descrambles by calling this
    /// same method.
    pub fn scramble(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = bits.to_vec();
        self.scramble_in_place(&mut out);
        out
    }

    /// [`Scrambler::scramble`] in place: each byte becomes its low bit XOR
    /// the next PRBS bit.
    pub fn scramble_in_place(&mut self, bits: &mut [u8]) {
        let mut rest = bits;
        while !rest.is_empty() {
            let prbs = &self.prbs[self.pos..];
            let n = prbs.len().min(rest.len());
            let (head, tail) = rest.split_at_mut(n);
            for (b, &p) in head.iter_mut().zip(prbs) {
                *b = (*b & 1) ^ p;
            }
            self.pos += n;
            if self.pos == self.prbs.len() {
                self.pos = 0;
            }
            rest = tail;
        }
    }

    /// Returns the scrambler to its seeded state (frame boundary).
    pub fn reset(&mut self) {
        self.pos = 0;
    }
}

impl std::fmt::Debug for Scrambler {
    /// The spec and the position in the period, not the period's bits.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scrambler")
            .field("spec", &self.spec)
            .field("period", &self.prbs.len())
            .field("pos", &self.pos)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_twice_is_identity() {
        for spec in [
            ScramblerSpec::ieee80211(),
            ScramblerSpec::dvb(),
            ScramblerSpec::drm(),
        ] {
            let bits: Vec<u8> = (0..200).map(|i| (i % 3 == 0) as u8).collect();
            let mut tx = Scrambler::new(spec.clone());
            let mut rx = Scrambler::new(spec);
            let scrambled = tx.scramble(&bits);
            let recovered = rx.scramble(&scrambled);
            assert_eq!(recovered, bits);
        }
    }

    #[test]
    fn scrambling_changes_the_stream() {
        let bits = vec![0u8; 64];
        let mut s = Scrambler::new(ScramblerSpec::ieee80211());
        let out = s.scramble(&bits);
        // All-zero input → output is the PRBS itself, which is not all-zero.
        assert!(out.contains(&1));
    }

    #[test]
    fn wlan_scrambler_known_sequence() {
        // All-zero input exposes the PRBS: 00001110 11110010 ...
        let mut s = Scrambler::new(ScramblerSpec::ieee80211());
        let out = s.scramble(&[0u8; 16]);
        assert_eq!(out, vec![0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn reset_restarts_sequence() {
        let mut s = Scrambler::new(ScramblerSpec::drm());
        let a = s.scramble(&[0u8; 32]);
        s.reset();
        let b = s.scramble(&[0u8; 32]);
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let bits: Vec<u8> = (0..100).map(|i| (i % 7 == 0) as u8).collect();
        let mut one = Scrambler::new(ScramblerSpec::dvb());
        let whole = one.scramble(&bits);
        let mut two = Scrambler::new(ScramblerSpec::dvb());
        let mut parts = two.scramble(&bits[..40]);
        parts.extend(two.scramble(&bits[40..]));
        assert_eq!(whole, parts);
    }

    #[test]
    fn balanced_output_statistics() {
        // Scrambling all-zeros with a maximal LFSR yields ≈50 % ones.
        let mut s = Scrambler::new(ScramblerSpec::dvb());
        let out = s.scramble(&vec![0u8; 32767]);
        let ones: usize = out.iter().map(|&b| b as usize).sum();
        assert_eq!(ones, 16384); // exactly 2^14 ones per period
    }
}
