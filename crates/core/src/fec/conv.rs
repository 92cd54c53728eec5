//! Convolutional encoding with puncturing.
//!
//! [`ConvCode`] encodes from a table built in [`ConvCode::new`]: one word
//! per register value (the last K input bits) holding every generator's
//! output bit as one byte, so a step is a shift, a mask, a lookup and one
//! 8-byte store. Puncturing then compacts the new bits in place, walking
//! the keep mask with a wrapping index. Both the register and the puncture
//! phase carry across [`ConvCode::encode`] calls until [`ConvCode::reset`].

use crate::error::ConfigError;
use serde::{Deserialize, Serialize};

/// A convolutional code definition.
///
/// `polynomials` are the generator taps in binary (LSB = current input bit),
/// e.g. the industry-standard K=7 pair `0o133`/`0o171` used by 802.11a/g,
/// DVB-T, DAB and 802.16a.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Constraint length K (memory = K − 1).
    pub constraint: u32,
    /// Generator polynomials, one per output stream.
    pub polynomials: Vec<u32>,
    /// Puncturing applied to the serialized coded stream.
    pub puncture: PunctureSpec,
}

impl ConvSpec {
    /// The K=7, rate-1/2 mother code (g₀=133₈, g₁=171₈) with no puncturing.
    pub fn k7_rate_half() -> Self {
        ConvSpec {
            constraint: 7,
            polynomials: vec![0o133, 0o171],
            puncture: PunctureSpec::none(),
        }
    }

    /// The K=7 mother code punctured to rate 2/3.
    pub fn k7_rate_two_thirds() -> Self {
        ConvSpec {
            puncture: PunctureSpec::rate_two_thirds(),
            ..ConvSpec::k7_rate_half()
        }
    }

    /// The K=7 mother code punctured to rate 3/4.
    pub fn k7_rate_three_quarters() -> Self {
        ConvSpec {
            puncture: PunctureSpec::rate_three_quarters(),
            ..ConvSpec::k7_rate_half()
        }
    }

    /// The K=7 mother code punctured to rate 5/6.
    pub fn k7_rate_five_sixths() -> Self {
        ConvSpec {
            puncture: PunctureSpec::rate_five_sixths(),
            ..ConvSpec::k7_rate_half()
        }
    }

    /// The code rate as a fraction `(input_bits, output_bits)` including
    /// puncturing.
    pub fn rate(&self) -> (usize, usize) {
        let n_out = self.polynomials.len();
        let period = self.puncture.pattern.len();
        if period == 0 {
            return (1, n_out);
        }
        let kept: usize = self.puncture.pattern.iter().filter(|&&b| b).count();
        // Over one puncture period, period/n_out input bits generate `kept`
        // output bits.
        (period / n_out, kept)
    }
}

/// A puncture mask over the serialized coded stream.
///
/// The pattern repeats with its own length; `true` keeps a bit, `false`
/// deletes it. The pattern length must be a multiple of the number of
/// encoder output streams.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PunctureSpec {
    /// Keep/delete mask.
    pub pattern: Vec<bool>,
}

impl PunctureSpec {
    /// No puncturing (empty pattern).
    pub fn none() -> Self {
        PunctureSpec {
            pattern: Vec::new(),
        }
    }

    /// Rate 2/3 from a rate-1/2 mother code: keep a₁b₁a₂, drop b₂.
    pub fn rate_two_thirds() -> Self {
        PunctureSpec {
            pattern: vec![true, true, true, false],
        }
    }

    /// Rate 3/4: keep a₁b₁a₂b₃ of every six coded bits (802.11a pattern).
    pub fn rate_three_quarters() -> Self {
        PunctureSpec {
            pattern: vec![true, true, true, false, false, true],
        }
    }

    /// Rate 5/6: keep a₁b₁a₂b₃a₄b₅ of every ten coded bits.
    pub fn rate_five_sixths() -> Self {
        PunctureSpec {
            pattern: vec![
                true, true, true, false, false, true, true, false, false, true,
            ],
        }
    }

    /// Returns `true` if the pattern keeps nothing or is absent-but-claimed.
    pub fn is_degenerate(&self) -> bool {
        !self.pattern.is_empty() && !self.pattern.iter().any(|&b| b)
    }
}

/// A running convolutional encoder.
#[derive(Debug, Clone)]
pub struct ConvCode {
    spec: ConvSpec,
    /// The last K input bits, newest in bit 0.
    state: usize,
    /// `(1 << K) − 1`.
    state_mask: usize,
    /// `outputs[state]` holds the output bit of each generator as one
    /// byte, in order, zero padded: its leading little-endian bytes are
    /// the bytes to emit.
    outputs: Vec<u64>,
    /// Index of the next puncture-pattern entry.
    puncture_phase: usize,
}

impl ConvCode {
    /// Builds an encoder from a spec.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadPuncturePattern`] for an all-`false`
    /// pattern and [`ConfigError::Invalid`] for impossible constraint
    /// lengths, no polynomials or more than [`ConvCode::MAX_STREAMS`], or
    /// a polynomial with taps at or above bit K (the register only holds K
    /// bits).
    pub fn new(spec: ConvSpec) -> Result<Self, ConfigError> {
        if spec.constraint == 0 || spec.constraint > 16 {
            return Err(ConfigError::Invalid(format!(
                "constraint length {} is outside 1..=16",
                spec.constraint
            )));
        }
        if spec.polynomials.is_empty() || spec.polynomials.len() > Self::MAX_STREAMS {
            return Err(ConfigError::Invalid(format!(
                "convolutional code needs 1..={} generators, got {}",
                Self::MAX_STREAMS,
                spec.polynomials.len()
            )));
        }
        if let Some(g) = spec
            .polynomials
            .iter()
            .find(|&&g| g >> spec.constraint != 0)
        {
            return Err(ConfigError::Invalid(format!(
                "generator {g:#o} has taps beyond constraint length {}",
                spec.constraint
            )));
        }
        if spec.puncture.is_degenerate() {
            return Err(ConfigError::BadPuncturePattern);
        }
        if !spec
            .puncture
            .pattern
            .len()
            .is_multiple_of(spec.polynomials.len())
        {
            return Err(ConfigError::BadPuncturePattern);
        }
        let states = 1usize << spec.constraint;
        let outputs = (0..states as u32)
            .map(|reg| {
                spec.polynomials
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| u64::from((reg & g).count_ones() & 1) << (8 * i))
                    .sum()
            })
            .collect();
        Ok(ConvCode {
            spec,
            state: 0,
            state_mask: states - 1,
            outputs,
            puncture_phase: 0,
        })
    }

    /// The most generators a code may have: a step's output bits fill
    /// one 8-byte word, as in the Viterbi decoder's branch table.
    pub const MAX_STREAMS: usize = 8;

    /// The encoder's spec.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Encodes `bits`, applying puncturing, without terminating the trellis.
    pub fn encode(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bits.len() * self.spec.polynomials.len());
        self.encode_into(bits, &mut out);
        out
    }

    /// [`ConvCode::encode`] appending to `out`.
    pub(crate) fn encode_into(&mut self, bits: &[u8], out: &mut Vec<u8>) {
        let n = self.spec.polynomials.len();
        let start = out.len();
        let end = start + bits.len() * n;
        // Each step stores a whole word; the next step's word overwrites
        // the padding, and the slack past `end` is cut below.
        out.resize(end + 8, 0);
        let (outputs, mask) = (&self.outputs[..], self.state_mask);
        let steps = &mut out[start..];
        let mut state = self.state;
        for (i, &b) in bits.iter().enumerate() {
            state = ((state << 1) | usize::from(b & 1)) & mask;
            steps[i * n..i * n + 8].copy_from_slice(&outputs[state].to_le_bytes());
        }
        self.state = state;
        out.truncate(end);
        let pattern = &self.spec.puncture.pattern;
        if !pattern.is_empty() {
            let mut kept = start;
            for read in start..end {
                if pattern[self.puncture_phase] {
                    out[kept] = out[read];
                    kept += 1;
                }
                self.puncture_phase += 1;
                if self.puncture_phase == pattern.len() {
                    self.puncture_phase = 0;
                }
            }
            out.truncate(kept);
        }
    }

    /// Encodes `bits` followed by K−1 zero tail bits, returning the encoder
    /// to the zero state (the 802.11a/DVB framing convention).
    pub fn encode_terminated(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_terminated_into(bits, &mut out);
        out
    }

    /// [`ConvCode::encode_terminated`] appending to `out`.
    pub(crate) fn encode_terminated_into(&mut self, bits: &[u8], out: &mut Vec<u8>) {
        self.encode_into(bits, out);
        let tail = [0u8; 16];
        self.encode_into(&tail[..self.spec.constraint as usize - 1], out);
    }

    /// Returns to the zero state and puncture phase 0.
    pub fn reset(&mut self) {
        self.state = 0;
        self.puncture_phase = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_half_output_length() {
        let mut c = ConvCode::new(ConvSpec::k7_rate_half()).unwrap();
        assert_eq!(c.encode(&[1, 0, 1, 1]).len(), 8);
        assert_eq!(c.spec().rate(), (1, 2));
    }

    #[test]
    fn known_k7_vector() {
        // Impulse response of g0 = 133₈, g1 = 171₈: input 1 followed by
        // zeros emits the generator taps MSB-first.
        let mut c = ConvCode::new(ConvSpec::k7_rate_half()).unwrap();
        let out = c.encode(&[1, 0, 0, 0, 0, 0, 0]);
        // g0 = 1011011₂ (133₈), g1 = 1111001₂ (171₈), read tap-by-tap as
        // the 1 shifts through the register (LSB = newest bit).
        let g0_bits = [1, 1, 0, 1, 1, 0, 1]; // 133₈ LSB-first
        let g1_bits = [1, 0, 0, 1, 1, 1, 1]; // 171₈ LSB-first
        for i in 0..7 {
            assert_eq!(out[2 * i], g0_bits[i], "g0 tap {i}");
            assert_eq!(out[2 * i + 1], g1_bits[i], "g1 tap {i}");
        }
    }

    #[test]
    fn termination_returns_to_zero_state() {
        let mut c = ConvCode::new(ConvSpec::k7_rate_half()).unwrap();
        let out = c.encode_terminated(&[1, 1, 0, 1]);
        assert_eq!(out.len(), 2 * (4 + 6));
        // After termination, encoding zeros emits zeros.
        assert!(c.encode(&[0, 0, 0]).iter().all(|&b| b == 0));
    }

    #[test]
    fn punctured_rates_lengths() {
        // 12 input bits → 24 coded; 2/3 keeps 18; 3/4 keeps 16; 5/6 keeps ~14.4→ multiples only.
        let mut c23 = ConvCode::new(ConvSpec::k7_rate_two_thirds()).unwrap();
        assert_eq!(c23.encode(&[0; 12]).len(), 18);
        assert_eq!(c23.spec().rate(), (2, 3));

        let mut c34 = ConvCode::new(ConvSpec::k7_rate_three_quarters()).unwrap();
        assert_eq!(c34.encode(&[0; 12]).len(), 16);
        assert_eq!(c34.spec().rate(), (3, 4));

        let mut c56 = ConvCode::new(ConvSpec::k7_rate_five_sixths()).unwrap();
        assert_eq!(c56.encode(&[0; 10]).len(), 12);
        assert_eq!(c56.spec().rate(), (5, 6));
    }

    #[test]
    fn puncture_keeps_correct_positions() {
        // Rate 3/4: serialized [a1 b1 a2 b2 a3 b3] keeps indices 0,1,2,5.
        let mut full = ConvCode::new(ConvSpec::k7_rate_half()).unwrap();
        let mut punct = ConvCode::new(ConvSpec::k7_rate_three_quarters()).unwrap();
        let bits = [1, 0, 1, 1, 0, 1];
        let unpunctured = full.encode(&bits);
        let punctured = punct.encode(&bits);
        let expect: Vec<u8> = unpunctured
            .iter()
            .enumerate()
            .filter(|(i, _)| [0usize, 1, 2, 5].contains(&(i % 6)))
            .map(|(_, &b)| b)
            .collect();
        assert_eq!(punctured, expect);
    }

    #[test]
    fn reset_reproduces() {
        let mut c = ConvCode::new(ConvSpec::k7_rate_three_quarters()).unwrap();
        let a = c.encode(&[1, 1, 0, 1, 0, 0, 1]);
        c.reset();
        let b = c.encode(&[1, 1, 0, 1, 0, 0, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn encoder_is_linear() {
        // code(x ⊕ y) = code(x) ⊕ code(y) for a linear code from state 0.
        let x = [1u8, 0, 1, 1, 0, 0, 1, 0];
        let y = [0u8, 1, 1, 0, 1, 0, 0, 1];
        let xy: Vec<u8> = x.iter().zip(&y).map(|(a, b)| a ^ b).collect();
        let enc = |bits: &[u8]| {
            let mut c = ConvCode::new(ConvSpec::k7_rate_half()).unwrap();
            c.encode(bits)
        };
        let cx = enc(&x);
        let cy = enc(&y);
        let cxy = enc(&xy);
        let sum: Vec<u8> = cx.iter().zip(&cy).map(|(a, b)| a ^ b).collect();
        assert_eq!(cxy, sum);
    }

    #[test]
    fn degenerate_puncture_rejected() {
        let spec = ConvSpec {
            puncture: PunctureSpec {
                pattern: vec![false, false],
            },
            ..ConvSpec::k7_rate_half()
        };
        assert_eq!(
            ConvCode::new(spec).unwrap_err(),
            ConfigError::BadPuncturePattern
        );
    }

    #[test]
    fn misaligned_puncture_rejected() {
        let spec = ConvSpec {
            puncture: PunctureSpec {
                pattern: vec![true, true, false],
            },
            ..ConvSpec::k7_rate_half()
        };
        assert_eq!(
            ConvCode::new(spec).unwrap_err(),
            ConfigError::BadPuncturePattern
        );
    }

    #[test]
    fn bad_constraint_rejected() {
        let spec = ConvSpec {
            constraint: 0,
            ..ConvSpec::k7_rate_half()
        };
        assert!(matches!(
            ConvCode::new(spec).unwrap_err(),
            ConfigError::Invalid(_)
        ));
    }

    #[test]
    fn no_polynomials_rejected() {
        let spec = ConvSpec {
            polynomials: vec![],
            ..ConvSpec::k7_rate_half()
        };
        assert!(matches!(
            ConvCode::new(spec).unwrap_err(),
            ConfigError::Invalid(_)
        ));
    }
}
