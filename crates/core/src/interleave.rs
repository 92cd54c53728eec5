//! Bit interleaving.
//!
//! Two parameterized interleavers cover the family:
//!
//! * [`InterleaverSpec::BlockRowCol`] — the classic write-rows/read-columns
//!   block interleaver (DVB-T inner bit interleaver, DAB time interleaving
//!   approximation);
//! * [`InterleaverSpec::Ieee80211`] — the two-permutation 802.11a/g/16a
//!   interleaver defined over one OFDM symbol of `n_cbps` coded bits with
//!   `n_bpsc` bits per subcarrier.
//!
//! Interleavers are exact permutations; [`Interleaver::deinterleave`]
//! inverts [`Interleaver::interleave`] bit-for-bit (used by the reference
//! receiver). The permutation is tabulated once in [`Interleaver::new`];
//! the transmitter gathers through it into a buffer it reuses from frame
//! to frame.

use crate::error::ConfigError;
use serde::{Deserialize, Serialize};

/// Interleaver configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterleaverSpec {
    /// No interleaving.
    None,
    /// Write row-by-row into a `rows × cols` array, read column-by-column.
    /// Block length is `rows·cols`.
    BlockRowCol {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// The 802.11a two-permutation interleaver over `n_cbps` coded bits per
    /// OFDM symbol, `n_bpsc` coded bits per subcarrier.
    Ieee80211 {
        /// Coded bits per OFDM symbol.
        n_cbps: usize,
        /// Coded bits per subcarrier (1, 2, 4 or 6).
        n_bpsc: usize,
    },
}

impl InterleaverSpec {
    /// The permutation block length (bits processed per call), or `None`
    /// for the pass-through spec.
    pub fn block_len(&self) -> Option<usize> {
        match self {
            InterleaverSpec::None => None,
            InterleaverSpec::BlockRowCol { rows, cols } => Some(rows * cols),
            InterleaverSpec::Ieee80211 { n_cbps, .. } => Some(*n_cbps),
        }
    }
}

/// A ready-to-run interleaver (precomputed permutation).
#[derive(Debug, Clone)]
pub struct Interleaver {
    spec: InterleaverSpec,
    /// `perm[j]` = input index that lands at output position `j`.
    perm: Vec<usize>,
}

impl Interleaver {
    /// Builds the permutation table from a spec.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for zero dimensions or an
    /// 802.11a spec whose `n_cbps` is not divisible by 16·`n_bpsc`
    /// blocks (the standard's column structure needs `n_cbps` ≡ 0 mod 16).
    pub fn new(spec: InterleaverSpec) -> Result<Self, ConfigError> {
        let perm = match &spec {
            InterleaverSpec::None => Vec::new(),
            InterleaverSpec::BlockRowCol { rows, cols } => {
                if *rows == 0 || *cols == 0 {
                    return Err(ConfigError::Invalid(
                        "interleaver dimensions must be nonzero".into(),
                    ));
                }
                // Output position j reads column-major: j = c*rows + r maps
                // to input index r*cols + c.
                let mut perm = Vec::with_capacity(rows * cols);
                for c in 0..*cols {
                    for r in 0..*rows {
                        perm.push(r * cols + c);
                    }
                }
                perm
            }
            InterleaverSpec::Ieee80211 { n_cbps, n_bpsc } => {
                if *n_cbps == 0 || *n_bpsc == 0 || n_cbps % 16 != 0 || n_cbps % n_bpsc != 0 {
                    return Err(ConfigError::Invalid(format!(
                        "invalid 802.11 interleaver (n_cbps={n_cbps}, n_bpsc={n_bpsc})"
                    )));
                }
                let s = (n_bpsc / 2).max(1);
                let n = *n_cbps;
                // Forward: bit k → i → j. Build perm as inverse: output j
                // takes input k.
                let mut perm = vec![0usize; n];
                for k in 0..n {
                    let i = (n / 16) * (k % 16) + k / 16;
                    let j = s * (i / s) + (i + n - (16 * i) / n) % s;
                    perm[j] = k;
                }
                perm
            }
        };
        Ok(Interleaver { spec, perm })
    }

    /// The spec this interleaver was built from.
    pub fn spec(&self) -> &InterleaverSpec {
        &self.spec
    }

    /// Permutes `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the block length.
    pub fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bits.len());
        self.interleave_into(bits, &mut out);
        out
    }

    /// [`Interleaver::interleave`] appending to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the block length.
    pub(crate) fn interleave_into(&self, bits: &[u8], out: &mut Vec<u8>) {
        if self.perm.is_empty() {
            out.extend_from_slice(bits);
            return;
        }
        let n = self.perm.len();
        assert!(
            bits.len().is_multiple_of(n),
            "input length {} is not a multiple of the interleaver block {n}",
            bits.len()
        );
        out.reserve(bits.len());
        for chunk in bits.chunks_exact(n) {
            out.extend(self.perm.iter().map(|&src| chunk[src]));
        }
    }

    /// Inverts [`Interleaver::interleave`].
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the block length.
    pub fn deinterleave(&self, bits: &[u8]) -> Vec<u8> {
        if self.perm.is_empty() {
            return bits.to_vec();
        }
        let n = self.perm.len();
        assert!(
            bits.len().is_multiple_of(n),
            "input length {} is not a multiple of the interleaver block {n}",
            bits.len()
        );
        let mut out = vec![0u8; bits.len()];
        for (blk, chunk) in bits.chunks(n).enumerate() {
            for (j, &b) in chunk.iter().enumerate() {
                out[blk * n + self.perm[j]] = b;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 2) as u8).collect()
    }

    #[test]
    fn none_is_passthrough() {
        let il = Interleaver::new(InterleaverSpec::None).unwrap();
        let bits = ramp(37);
        assert_eq!(il.interleave(&bits), bits);
        assert_eq!(il.deinterleave(&bits), bits);
        assert_eq!(il.spec().block_len(), None);
    }

    #[test]
    fn row_col_small_example() {
        // 2×3: input 012345 written rows [012][345], read columns → 031425.
        let il = Interleaver::new(InterleaverSpec::BlockRowCol { rows: 2, cols: 3 }).unwrap();
        let input: Vec<u8> = vec![0, 1, 2, 3, 4, 5];
        assert_eq!(il.interleave(&input), vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn roundtrip_row_col() {
        let il = Interleaver::new(InterleaverSpec::BlockRowCol { rows: 12, cols: 17 }).unwrap();
        let bits: Vec<u8> = (0..12 * 17 * 3).map(|i| ((i * 7) % 2) as u8).collect();
        assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    fn wlan_interleaver_is_permutation() {
        for (n_cbps, n_bpsc) in [(48, 1), (96, 2), (192, 4), (288, 6)] {
            let il = Interleaver::new(InterleaverSpec::Ieee80211 { n_cbps, n_bpsc }).unwrap();
            // Distinct indices: applying to 0..n yields a permutation.
            let input: Vec<u8> = (0..n_cbps).map(|i| (i % 2) as u8).collect();
            let out = il.interleave(&input);
            assert_eq!(out.len(), n_cbps);
            assert_eq!(il.deinterleave(&out), input, "n_cbps={n_cbps}");
        }
    }

    #[test]
    fn wlan_spreads_adjacent_bits() {
        // Adjacent coded bits must land on distant subcarriers: for
        // n_cbps = 48 the 802.11a first permutation sends bit 0 → 0 and
        // bit 1 → 3 (16 columns of 3).
        let il = Interleaver::new(InterleaverSpec::Ieee80211 {
            n_cbps: 48,
            n_bpsc: 1,
        })
        .unwrap();
        let mut input = vec![0u8; 48];
        input[1] = 1;
        let out = il.interleave(&input);
        let pos = out.iter().position(|&b| b == 1).unwrap();
        assert_eq!(pos, 3);
    }

    #[test]
    fn multi_block_streams() {
        let il = Interleaver::new(InterleaverSpec::Ieee80211 {
            n_cbps: 96,
            n_bpsc: 2,
        })
        .unwrap();
        let bits: Vec<u8> = (0..96 * 4).map(|i| ((i / 3) % 2) as u8).collect();
        assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn wrong_length_panics() {
        let il = Interleaver::new(InterleaverSpec::BlockRowCol { rows: 4, cols: 4 }).unwrap();
        let _ = il.interleave(&ramp(15));
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(Interleaver::new(InterleaverSpec::BlockRowCol { rows: 0, cols: 3 }).is_err());
        assert!(Interleaver::new(InterleaverSpec::Ieee80211 {
            n_cbps: 50,
            n_bpsc: 1
        })
        .is_err());
        assert!(Interleaver::new(InterleaverSpec::Ieee80211 {
            n_cbps: 48,
            n_bpsc: 0
        })
        .is_err());
    }

    #[test]
    fn block_len_reporting() {
        assert_eq!(
            InterleaverSpec::BlockRowCol { rows: 3, cols: 5 }.block_len(),
            Some(15)
        );
        assert_eq!(
            InterleaverSpec::Ieee80211 {
                n_cbps: 192,
                n_bpsc: 4
            }
            .block_len(),
            Some(192)
        );
    }
}
