//! FEC decoding: hard-decision Viterbi with depuncturing.
//!
//! Decodes the K≤16 convolutional codes of [`ofdm_core::fec::conv`].
//! Punctured positions re-enter the stream as erasures that contribute no
//! branch metric. Reed–Solomon decoding lives with its encoder in
//! [`ofdm_core::fec::rs`].

use ofdm_core::fec::ConvSpec;

/// The received hard bits of one trellis step: bit `i` of `mask` is set
/// when stream `i` arrived (was not punctured or erased), and bit `i` of
/// `bits` is its value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StepBits {
    mask: u8,
    bits: u8,
}

/// A hard-decision Viterbi decoder for one [`ConvSpec`].
///
/// Every decode runs one butterfly add-compare-select core: next state
/// `ns` has the two predecessors `ns >> 1` and `(ns >> 1) | n_states/2`,
/// the lower one wins on equal metrics, and the choice is kept as one
/// decision bit per state and step.
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    spec: ConvSpec,
    /// The encoder's output word for every full register
    /// `(state << 1) | input`.
    outputs: Vec<u8>,
}

impl ViterbiDecoder {
    /// The most output streams a decoder takes: the per-step branch-metric
    /// table has `2^n_streams` entries, indexed by a `u8` output word.
    const MAX_STREAMS: usize = 8;

    /// Builds a decoder matched to an encoder spec.
    ///
    /// # Panics
    ///
    /// Panics if the constraint length is outside 2..=16 (the trellis
    /// would need more than 32k states), if there are no generator
    /// polynomials or more than 8 (one `u8` output word), or if the puncture
    /// pattern keeps no bit or its length is not a multiple of the stream
    /// count — the specs `ConvCode::new` rejects.
    pub fn new(spec: ConvSpec) -> Self {
        assert!(
            spec.constraint >= 2 && spec.constraint <= 16,
            "constraint length out of range"
        );
        let n_streams = spec.polynomials.len();
        assert!(
            (1..=Self::MAX_STREAMS).contains(&n_streams),
            "output stream count out of range"
        );
        assert!(
            !spec.puncture.is_degenerate(),
            "puncture pattern keeps no bit"
        );
        assert!(
            spec.puncture.pattern.len().is_multiple_of(n_streams),
            "puncture pattern length is not a multiple of the stream count"
        );
        let n_states = 1u32 << (spec.constraint - 1);
        let outputs = (0..2 * n_states)
            .map(|full| {
                let mut word = 0u8;
                for (i, &g) in spec.polynomials.iter().enumerate() {
                    word |= (((full & g).count_ones() & 1) as u8) << i;
                }
                word
            })
            .collect();
        ViterbiDecoder { spec, outputs }
    }

    /// The matching spec.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Decodes a *punctured* hard-bit stream produced by
    /// `ConvCode::encode_terminated`, returning the message bits with the
    /// K−1 tail bits removed.
    ///
    /// `msg_len` is the message length in bits (pre-termination); the
    /// punctured stream may carry trailing pad bits, which are ignored.
    /// Positions past the end of a short stream decode as erasures.
    pub fn decode_terminated(&self, punctured: &[u8], msg_len: usize) -> Vec<u8> {
        let steps = msg_len + (self.spec.constraint - 1) as usize;
        let mut decoded = self.decode(&self.depuncture(punctured, steps), true);
        decoded.truncate(msg_len);
        decoded
    }

    /// Re-inserts punctured positions as erasures, `steps` trellis steps
    /// long: walks the pattern (all-keep when empty) and takes the next
    /// received bit at each kept position while any remain.
    fn depuncture(&self, punctured: &[u8], steps: usize) -> Vec<StepBits> {
        let mut keep = self.spec.puncture.pattern.iter().cycle();
        let mut src = punctured.iter();
        (0..steps)
            .map(|_| {
                let mut step = StepBits::default();
                for i in 0..self.spec.polynomials.len() {
                    if *keep.next().unwrap_or(&true) {
                        if let Some(&b) = src.next() {
                            step.mask |= 1 << i;
                            step.bits |= (b & 1) << i;
                        }
                    }
                }
                step
            })
            .collect()
    }

    /// Viterbi over `steps` trellis steps; `symbols` holds
    /// `steps × n_streams` optional hard bits (`None` is an erasure; only
    /// the low bit of a `Some` counts). When `terminated` the survivor
    /// ending in state 0 is traced; otherwise the best end state.
    pub fn decode_hard(&self, symbols: &[Option<u8>], steps: usize, terminated: bool) -> Vec<u8> {
        let n_streams = self.spec.polynomials.len();
        let received: Vec<StepBits> = symbols[..steps * n_streams]
            .chunks(n_streams)
            .map(|symbols| {
                let mut step = StepBits::default();
                for (i, sym) in symbols.iter().enumerate() {
                    if let Some(b) = sym {
                        step.mask |= 1 << i;
                        step.bits |= (b & 1) << i;
                    }
                }
                step
            })
            .collect();
        self.decode(&received, terminated)
    }

    /// The add-compare-select core shared by both entry points.
    fn decode(&self, received: &[StepBits], terminated: bool) -> Vec<u8> {
        // Unreachable states (the first K−1 steps) start at INF and may
        // grow past it by a few branch metrics without overflowing; they
        // always lose to a reachable predecessor, so the traceback never
        // visits them.
        const INF: u32 = u32::MAX / 2;
        let k = self.spec.constraint as usize;
        let n_states = 1usize << (k - 1);
        let half = n_states / 2;
        let words = n_states.div_ceil(64);
        let steps = received.len();

        let mut metric = vec![INF; n_states];
        metric[0] = 0;
        let mut next = vec![0u32; n_states];
        let mut decisions = vec![0u64; steps * words];
        // Indexed by a u8 output word, so every lookup is in bounds.
        let mut branch = [0u32; 1 << Self::MAX_STREAMS];
        let out_words = 1 << self.spec.polynomials.len();
        let (low, high) = self.outputs.split_at(n_states);
        // Next states per decision word, and their predecessor pairs.
        let lanes = n_states.min(64);

        for (step, dec) in received.iter().zip(decisions.chunks_exact_mut(words)) {
            // Hamming distance of every possible output word to the
            // received (unerased) bits.
            for (word, bm) in branch[..out_words].iter_mut().enumerate() {
                *bm = ((word as u8 ^ step.bits) & step.mask).count_ones();
            }
            // Butterfly: predecessors s0 and s0 + half feed the next
            // states 2·s0 and 2·s0 + 1, whose full registers are `ns`
            // (from s0) and `ns + n_states` (from s0 + half).
            let (m_lo, m_hi) = metric.split_at(half);
            let blocks = dec
                .iter_mut()
                .zip(m_lo.chunks(lanes / 2).zip(m_hi.chunks(lanes / 2)))
                .zip(next.chunks_mut(lanes))
                .zip(low.chunks(lanes).zip(high.chunks(lanes)));
            for (((word, (m0s, m1s)), nx), (lo, hi)) in blocks {
                let mut bits = 0u64;
                let butterflies = m0s
                    .iter()
                    .zip(m1s)
                    .zip(nx.chunks_exact_mut(2))
                    .zip(lo.chunks_exact(2).zip(hi.chunks_exact(2)));
                for (j, (((&m0, &m1), nx), (lo, hi))) in butterflies.enumerate() {
                    for b in 0..2 {
                        let c0 = m0 + branch[lo[b] as usize];
                        let c1 = m1 + branch[hi[b] as usize];
                        // Strict: the lower predecessor wins a tie.
                        bits |= u64::from(c1 < c0) << (2 * j + b);
                        nx[b] = c0.min(c1);
                    }
                }
                *word = bits;
            }
            std::mem::swap(&mut metric, &mut next);
        }

        // Pick the end state.
        let mut state = if terminated {
            0usize
        } else {
            metric
                .iter()
                .enumerate()
                .min_by_key(|(_, &m)| m)
                .map(|(s, _)| s)
                .unwrap_or(0)
        };

        // Traceback: a decision bit is the MSB of the predecessor state;
        // the input bit is the LSB of the current state.
        let mut out = vec![0u8; steps];
        for (t, bit) in out.iter_mut().enumerate().rev() {
            *bit = (state & 1) as u8;
            let msb = (decisions[t * words + state / 64] >> (state % 64)) & 1;
            state = (state >> 1) | ((msb as usize) << (k - 2));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::fec::{ConvCode, PunctureSpec};
    use proptest::prelude::*;

    /// The pre-butterfly depuncturer, kept as the oracle's input path:
    /// punctured positions become `None`, kept ones `Some(bit)`.
    fn reference_depuncture(spec: &ConvSpec, punctured: &[u8]) -> Vec<Option<u8>> {
        let pattern = &spec.puncture.pattern;
        if pattern.is_empty() {
            return punctured.iter().map(|&b| Some(b & 1)).collect();
        }
        let mut out = Vec::with_capacity(punctured.len() * 2);
        let mut src = 0usize;
        let mut phase = 0usize;
        while src < punctured.len() {
            if pattern[phase] {
                out.push(Some(punctured[src] & 1));
                src += 1;
            } else {
                out.push(None);
            }
            phase = (phase + 1) % pattern.len();
        }
        // Trailing deleted positions of the final period.
        while !pattern[phase] {
            out.push(None);
            phase = (phase + 1) % pattern.len();
            if out.len() > punctured.len() * pattern.len() {
                break;
            }
        }
        out
    }

    /// The pre-butterfly `decode_terminated`, on the oracle decoder.
    fn reference_decode_terminated(spec: &ConvSpec, punctured: &[u8], msg_len: usize) -> Vec<u8> {
        let tail = (spec.constraint - 1) as usize;
        let total_in = msg_len + tail;
        let n_streams = spec.polynomials.len();
        let full = reference_depuncture(spec, punctured);
        let needed = total_in * n_streams;
        // Pad with erasures if puncturing under-supplied the tail.
        let mut symbols = full;
        symbols.resize(needed.max(symbols.len()), None);
        let mut decoded = reference_decode_hard(spec, &symbols[..needed], total_in, true);
        decoded.truncate(msg_len);
        decoded
    }

    /// The pre-butterfly Viterbi loop, verbatim but for `self` becoming
    /// `spec`: per-state forward ACS with a fresh `Vec` per step, skipping
    /// unreachable states. The new core must decode every bit the same.
    fn reference_decode_hard(
        spec: &ConvSpec,
        symbols: &[Option<u8>],
        steps: usize,
        terminated: bool,
    ) -> Vec<u8> {
        let k = spec.constraint;
        let n_states = 1usize << (k - 1);
        let state_mask = (n_states - 1) as u32;
        let n_streams = spec.polynomials.len();
        const INF: u32 = u32::MAX / 2;

        // Precompute branch outputs: full register = (state << 1) | bit.
        let mut outputs = vec![0u32; n_states * 2];
        for s in 0..n_states {
            for b in 0..2u32 {
                let full = ((s as u32) << 1) | b;
                let mut bits = 0u32;
                for (i, &g) in spec.polynomials.iter().enumerate() {
                    bits |= ((full & g).count_ones() & 1) << i;
                }
                outputs[s * 2 + b as usize] = bits;
            }
        }

        let mut metric = vec![INF; n_states];
        metric[0] = 0;
        let mut decisions: Vec<Vec<u8>> = Vec::with_capacity(steps);

        for t in 0..steps {
            let mut next = vec![INF; n_states];
            let mut dec = vec![0u8; n_states];
            for s in 0..n_states {
                let m = metric[s];
                if m >= INF {
                    continue;
                }
                for b in 0..2u32 {
                    let out = outputs[s * 2 + b as usize];
                    let mut bm = 0u32;
                    for i in 0..n_streams {
                        if let Some(r) = symbols[t * n_streams + i] {
                            bm += (((out >> i) & 1) as u8 ^ r) as u32;
                        }
                    }
                    let ns = ((((s as u32) << 1) | b) & state_mask) as usize;
                    let cand = m + bm;
                    if cand < next[ns] {
                        next[ns] = cand;
                        // Decision: the *previous* state's top bit is what
                        // falls out; store the input bit and source parity.
                        dec[ns] = ((s >> (k - 2)) as u8) & 1;
                    }
                }
            }
            decisions.push(dec);
            metric = next;
        }

        // Pick the end state.
        let mut state = if terminated {
            0usize
        } else {
            metric
                .iter()
                .enumerate()
                .min_by_key(|(_, &m)| m)
                .map(|(s, _)| s)
                .unwrap_or(0)
        };

        // Traceback: at each step the stored decision bit is the MSB of the
        // predecessor state; the input bit is the LSB of the current state.
        let mut out = vec![0u8; steps];
        for t in (0..steps).rev() {
            let input = (state & 1) as u8;
            out[t] = input;
            let msb = decisions[t][state] as usize;
            state = (state >> 1) | (msb << (k as usize - 2));
        }
        out
    }

    fn spec(constraint: u32, polynomials: Vec<u32>, puncture: PunctureSpec) -> ConvSpec {
        ConvSpec {
            constraint,
            polynomials,
            puncture,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The butterfly core decodes exactly the bits of the reference
        /// loop — terminated and unterminated, clean, noisy, all-erased and
        /// all-zero (every metric tied) — for K = 2..=9 at every standard
        /// rate and for the K = 3 (7, 5) code.
        #[test]
        fn butterfly_core_matches_reference_decoder(
            constraint in 2u32..=9,
            taps in any::<u32>(),
            rate in 0usize..5,
            msg in vec(0u8..=1, 0..160),
            flip_percent in 0u64..=25,
            stream in 0u8..4,
            noise_seed in any::<u64>(),
        ) {
            let puncture = [
                PunctureSpec::none(),
                PunctureSpec::rate_two_thirds(),
                PunctureSpec::rate_three_quarters(),
                PunctureSpec::rate_five_sixths(),
                PunctureSpec::none(),
            ][rate].clone();
            let spec = if rate == 4 {
                spec(3, vec![0b111, 0b101], puncture)
            } else {
                // Two generators with both the newest and oldest tap set.
                let ends = 1 | (1 << (constraint - 1));
                let span = (1u32 << constraint) - 1;
                spec(constraint, vec![(taps & span) | ends, ((taps >> 16) & span) | ends], puncture)
            };
            let mut coded = ConvCode::new(spec.clone()).expect("valid").encode_terminated(&msg);
            // Stream 0 is all-erased: the decoder sees no bit at all.
            let erased = stream == 0;
            match stream {
                0 => {}
                1 => coded.iter_mut().for_each(|b| *b = 0),
                _ => {
                    let mut x = noise_seed | 1;
                    for b in coded.iter_mut() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x % 100 < flip_percent {
                            *b ^= 1;
                        }
                    }
                }
            }
            let decoder = ViterbiDecoder::new(spec.clone());
            let punctured: &[u8] = if erased { &[] } else { &coded };
            prop_assert_eq!(
                decoder.decode_terminated(punctured, msg.len()),
                reference_decode_terminated(&spec, punctured, msg.len())
            );
            let mut symbols = reference_depuncture(&spec, &coded);
            if erased {
                symbols.iter_mut().for_each(|s| *s = None);
            }
            let steps = symbols.len() / spec.polynomials.len();
            symbols.truncate(steps * spec.polynomials.len());
            for terminated in [false, true] {
                prop_assert_eq!(
                    decoder.decode_hard(&symbols, steps, terminated),
                    reference_decode_hard(&spec, &symbols, steps, terminated)
                );
            }
        }
    }

    fn roundtrip(spec: ConvSpec, msg: &[u8]) -> Vec<u8> {
        let mut enc = ConvCode::new(spec.clone()).unwrap();
        let coded = enc.encode_terminated(msg);
        ViterbiDecoder::new(spec).decode_terminated(&coded, msg.len())
    }

    fn test_msg(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 7 + 3) % 5 < 2) as u8).collect()
    }

    #[test]
    fn clean_rate_half_roundtrip() {
        let msg = test_msg(100);
        assert_eq!(roundtrip(ConvSpec::k7_rate_half(), &msg), msg);
    }

    #[test]
    fn clean_punctured_roundtrips() {
        for spec in [
            ConvSpec::k7_rate_two_thirds(),
            ConvSpec::k7_rate_three_quarters(),
            ConvSpec::k7_rate_five_sixths(),
        ] {
            let msg = test_msg(120);
            assert_eq!(roundtrip(spec.clone(), &msg), msg, "{:?}", spec.puncture);
        }
    }

    #[test]
    fn corrects_scattered_bit_errors() {
        let spec = ConvSpec::k7_rate_half();
        let msg = test_msg(200);
        let mut enc = ConvCode::new(spec.clone()).unwrap();
        let mut coded = enc.encode_terminated(&msg);
        // Flip well-separated bits — free distance 10 handles these.
        for pos in [10usize, 90, 170, 250, 330] {
            coded[pos] ^= 1;
        }
        let decoded = ViterbiDecoder::new(spec).decode_terminated(&coded, msg.len());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn corrects_errors_in_punctured_stream() {
        let spec = ConvSpec::k7_rate_three_quarters();
        let msg = test_msg(96);
        let mut enc = ConvCode::new(spec.clone()).unwrap();
        let mut coded = enc.encode_terminated(&msg);
        coded[17] ^= 1;
        coded[89] ^= 1;
        let decoded = ViterbiDecoder::new(spec).decode_terminated(&coded, msg.len());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn depuncture_reinserts_erasures() {
        let decoder = ViterbiDecoder::new(ConvSpec::k7_rate_two_thirds()); // pattern 1,1,1,0
        let steps = decoder.depuncture(&[1, 0, 1], 2);
        assert_eq!(
            steps,
            vec![
                StepBits {
                    mask: 0b11,
                    bits: 0b01
                },
                StepBits {
                    mask: 0b01,
                    bits: 0b01
                },
            ]
        );
    }

    #[test]
    fn depuncture_no_pattern_is_identity() {
        let decoder = ViterbiDecoder::new(ConvSpec::k7_rate_half());
        let steps = decoder.depuncture(&[1, 1, 0], 2);
        assert_eq!(
            steps,
            vec![
                StepBits {
                    mask: 0b11,
                    bits: 0b11
                },
                StepBits {
                    mask: 0b01,
                    bits: 0b00
                },
            ]
        );
    }

    #[test]
    fn short_messages() {
        let msg = vec![1u8];
        assert_eq!(roundtrip(ConvSpec::k7_rate_half(), &msg), msg);
        let msg2 = vec![1u8, 0, 1];
        assert_eq!(roundtrip(ConvSpec::k7_rate_half(), &msg2), msg2);
    }

    #[test]
    fn small_constraint_code() {
        // K = 3, g = (7, 5) — the classic example code.
        let spec = ConvSpec {
            constraint: 3,
            polynomials: vec![0b111, 0b101],
            puncture: PunctureSpec::none(),
        };
        let msg = test_msg(64);
        assert_eq!(roundtrip(spec, &msg), msg);
    }

    #[test]
    fn unterminated_decode_best_state() {
        let spec = ConvSpec::k7_rate_half();
        let msg = test_msg(50);
        let mut enc = ConvCode::new(spec.clone()).unwrap();
        let coded = enc.encode(&msg); // NOT terminated
        let symbols: Vec<Option<u8>> = coded.iter().map(|&b| Some(b)).collect();
        let decoded = ViterbiDecoder::new(spec).decode_hard(&symbols, msg.len(), false);
        // All but the last few bits (no tail protection) must match.
        assert_eq!(&decoded[..40], &msg[..40]);
    }

    #[test]
    #[should_panic(expected = "constraint")]
    fn giant_constraint_rejected() {
        let _ = ViterbiDecoder::new(spec(17, vec![1], PunctureSpec::none()));
    }

    #[test]
    #[should_panic(expected = "stream count")]
    fn missing_polynomials_rejected() {
        let _ = ViterbiDecoder::new(spec(7, vec![], PunctureSpec::none()));
    }

    #[test]
    #[should_panic(expected = "stream count")]
    fn too_many_streams_rejected() {
        let _ = ViterbiDecoder::new(spec(7, vec![0o133; 9], PunctureSpec::none()));
    }

    #[test]
    #[should_panic(expected = "keeps no bit")]
    fn all_false_puncture_pattern_rejected() {
        let pattern = PunctureSpec {
            pattern: vec![false; 4],
        };
        let _ = ViterbiDecoder::new(spec(7, vec![0o133, 0o171], pattern));
    }

    #[test]
    #[should_panic(expected = "multiple of the stream count")]
    fn ragged_puncture_pattern_rejected() {
        let pattern = PunctureSpec {
            pattern: vec![true, true, false],
        };
        let _ = ViterbiDecoder::new(spec(7, vec![0o133, 0o171], pattern));
    }
}
