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
/// Every decode runs one add-compare-select core over blocks of `i16`
/// lanes, one lane per butterfly, written as straight-line arithmetic
/// that the compiler vectorises:
///
/// * **Branch classes.** Butterfly `j` joins predecessors `j` and
///   `j + n_states/2` to next states `2j` and `2j + 1`, whose full
///   registers are `2j + b` and `2j + b + n_states`. Every convolutional
///   code is linear (`out(x ^ y) = out(x) ^ out(y)`), so its four branch
///   words are `w_j ^ {0, T0, T1, T0 ^ T1}` with `w_j = out(2j)`,
///   `T0 = out(1)` and `T1 = out(n_states)`. A step adjusts the received
///   bits by each class once and sums every butterfly's Hamming distances
///   from per-stream bit planes of `w_j`, with no table gather.
/// * **Metrics.** Path metrics are `i16`, and every `RENORM = 256` steps
///   the minimum is subtracted from all of them, which leaves every
///   comparison unchanged. No metric leaves `[0, INF + n·(K−1) +
///   RENORM·n]` for `n ≤ 8` streams and `K ≤ 16`, at most 18552 with
///   `INF = 2^14`, below `i16::MAX`, so nothing overflows: a reachable
///   state is at most `n·(K−1) ≤ 120` above the minimum (any state is
///   K−1 steps from the best one, at most `n` per step), every metric
///   grows by at most `RENORM·n` between renormalisations, and the
///   unreachable states of the first K−1 steps start at `INF`, above any
///   reachable metric of those steps, so they always lose to a reachable
///   predecessor.
/// * **Ties.** The lower predecessor wins on equal metrics (the upper one
///   only when strictly cheaper), the rule of the per-state reference
///   loop the tests keep, so every decoded bit is the same.
/// * **Decisions.** Even and odd next states are computed as separate
///   lane arrays and interleaved back into state order; each state's
///   choice is one bit per step, `⌈n_states/16⌉` `u16` words a step.
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    spec: ConvSpec,
    /// Stream `i`'s bit of every butterfly's base word `w_j = out(2j)`,
    /// `0` or `1`, one lane per butterfly: plane `i` is
    /// `planes[i·half .. (i+1)·half]` with `half = n_states/2`.
    planes: Vec<i16>,
    /// Per stream, its bit of each class `[0, T0, T1, T0 ^ T1]` XORed with
    /// a received `0` (entry 0) or `1` (entry 1): XORed onto a plane lane,
    /// it gives that stream's term of the class's Hamming distance.
    flips: Vec<[[i16; 4]; 2]>,
}

impl ViterbiDecoder {
    /// The most output streams a decoder takes: a step's received bits
    /// and erasure mask are one `u8` word each.
    const MAX_STREAMS: usize = 8;

    /// Butterflies per block: two 128-bit registers of `i16` lanes.
    const LANES: usize = 16;

    /// Steps between renormalisations of the path metrics.
    const RENORM: usize = 256;

    /// The starting metric of every state but 0.
    const INF: i16 = 1 << 14;

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
        let parity = |full: u32, g: u32| ((full & g).count_ones() & 1) as i16;
        let n_states = 1u32 << (spec.constraint - 1);
        let planes = spec
            .polynomials
            .iter()
            .flat_map(|&g| (0..n_states / 2).map(move |j| parity(2 * j, g)))
            .collect();
        let flips = spec
            .polynomials
            .iter()
            .map(|&g| {
                let (t0, t1) = (parity(1, g), parity(n_states, g));
                let classes = [0, t0, t1, t0 ^ t1];
                [classes, classes.map(|c| c ^ 1)]
            })
            .collect();
        ViterbiDecoder {
            spec,
            planes,
            flips,
        }
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
        let mut decoded = self.decode(&self.depuncture(punctured, steps));
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

    /// Viterbi over `received.len()` steps, tracing back the survivor
    /// that ends in state 0.
    fn decode(&self, received: &[StepBits]) -> Vec<u8> {
        let k = self.spec.constraint as usize;
        let n_states = 1usize << (k - 1);
        let row = n_states.div_ceil(16);
        // Trellises narrower than a block (K ≤ 5) run one butterfly a block.
        let decisions = if n_states / 2 >= Self::LANES {
            self.forward::<{ Self::LANES }>(received)
        } else {
            self.forward::<1>(received)
        };

        // Traceback: a decision bit is the MSB of the predecessor state;
        // the input bit is the LSB of the current state.
        let mut state = 0usize;
        let mut out = vec![0u8; received.len()];
        for (bit, dec) in out.iter_mut().zip(decisions.chunks_exact(row)).rev() {
            *bit = (state & 1) as u8;
            let msb = (dec[state / 16] >> (state % 16)) & 1;
            state = (state >> 1) | (usize::from(msb) << (k - 2));
        }
        out
    }

    /// The add-compare-select core, `L` butterflies a block: every
    /// step's row of decision bits.
    fn forward<const L: usize>(&self, received: &[StepBits]) -> Vec<u16> {
        let n_states = 1usize << (self.spec.constraint - 1);
        let half = n_states / 2;
        let row = n_states.div_ceil(16);
        let mut metric = vec![Self::INF; n_states];
        metric[0] = 0;
        let mut next = vec![0i16; n_states];
        let mut decisions = vec![0u16; received.len() * row];
        let streams: Vec<_> = self
            .planes
            .chunks_exact(half)
            .map(|plane| plane.as_chunks::<L>().0)
            .zip(&self.flips)
            .collect();
        // A step's unerased streams: each one's plane and the flips of its
        // received bit.
        let mut live: [(&[[i16; L]], [i16; 4]); Self::MAX_STREAMS] =
            [(&[], [0; 4]); Self::MAX_STREAMS];

        for (t, (step, dec)) in received
            .iter()
            .zip(decisions.chunks_exact_mut(row))
            .enumerate()
        {
            if t % Self::RENORM == 0 {
                let min = metric.iter().copied().min().unwrap_or(0);
                metric.iter_mut().for_each(|m| *m -= min);
            }
            let mut n_live = 0;
            for (i, &(plane, flips)) in streams.iter().enumerate() {
                live[n_live] = (plane, flips[usize::from((step.bits >> i) & 1)]);
                n_live += usize::from((step.mask >> i) & 1);
            }
            let (m_lo, m_hi) = metric.split_at(half);
            let blocks = m_lo
                .as_chunks::<L>()
                .0
                .iter()
                .zip(m_hi.as_chunks::<L>().0)
                .zip(next.chunks_exact_mut(2 * L));
            for (b, ((m0, m1), nx)) in blocks.enumerate() {
                // Per class, the block's Hamming distances.
                let mut dist = [[0i16; L]; 4];
                for &(plane, flips) in &live[..n_live] {
                    for (d, x) in dist.iter_mut().zip(flips) {
                        for (d, p) in d.iter_mut().zip(&plane[b]) {
                            *d += p ^ x;
                        }
                    }
                }
                // Next state 2j is reached through w (from j) or w ^ T1
                // (from j + half); 2j + 1 through w ^ T0 or w ^ T0 ^ T1.
                let (even, even_won) = add_compare_select(m0, m1, &dist[0], &dist[2]);
                let (odd, odd_won) = add_compare_select(m0, m1, &dist[1], &dist[3]);
                let mut won = [0i16; 2 * Self::LANES];
                for l in 0..L {
                    nx[2 * l] = even[l];
                    nx[2 * l + 1] = odd[l];
                    won[2 * l] = even_won[l];
                    won[2 * l + 1] = odd_won[l];
                }
                let at = 2 * L * b;
                for (word, lanes) in dec[at / 16..].iter_mut().zip(won[..2 * L].chunks(16)) {
                    *word |= pack_decisions(lanes) << (at % 16);
                }
            }
            std::mem::swap(&mut metric, &mut next);
        }
        decisions
    }
}

/// One lane-wise add-compare-select: per lane, the survivor's metric and
/// `-1` where the upper predecessor (`m1`) won, which it does only when
/// strictly cheaper.
fn add_compare_select<const L: usize>(
    m0: &[i16; L],
    m1: &[i16; L],
    d0: &[i16; L],
    d1: &[i16; L],
) -> ([i16; L], [i16; L]) {
    let mut metric = [0i16; L];
    let mut won = [0i16; L];
    for l in 0..L {
        let (c0, c1) = (m0[l] + d0[l], m1[l] + d1[l]);
        metric[l] = c0.min(c1);
        won[l] = -i16::from(c1 < c0);
    }
    (metric, won)
}

/// Packs up to 16 decision lanes (each `0` or `-1`) into one word, lane
/// `b` into bit `b`.
fn pack_decisions(lanes: &[i16]) -> u16 {
    #[cfg(target_arch = "x86_64")]
    if let Ok(lanes) = <&[i16; 16]>::try_from(lanes) {
        use std::arch::x86_64::{_mm_loadu_si128, _mm_movemask_epi8, _mm_packs_epi16};
        // SAFETY: SSE2 is part of the x86_64 baseline, so these
        // intrinsics exist on every x86_64 target; the two unaligned
        // 16-byte loads read lanes 0..8 and 8..16 of a 16-lane array.
        // The saturating pack keeps each lane's sign, and movemask
        // gathers the 16 signs in lane order.
        return unsafe {
            let lo = _mm_loadu_si128(lanes.as_ptr().cast());
            let hi = _mm_loadu_si128(lanes.as_ptr().add(8).cast());
            _mm_movemask_epi8(_mm_packs_epi16(lo, hi)) as u16
        };
    }
    lanes
        .iter()
        .enumerate()
        .fold(0, |word, (b, &lane)| word | (lane as u16 & (1 << b)))
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

    /// Encodes `msg` and passes it through `channel`: 0 erases the whole
    /// stream, 1 zeroes it (every metric tied), any other value flips each
    /// bit with probability `flip_percent`%. Then checks that the lane
    /// core decodes exactly the bits of the reference loop.
    fn assert_matches_reference(
        spec: &ConvSpec,
        msg: &[u8],
        channel: u8,
        flip_percent: u64,
        noise_seed: u64,
    ) -> Result<(), String> {
        let mut coded = ConvCode::new(spec.clone())
            .expect("valid")
            .encode_terminated(msg);
        match channel {
            0 => coded.clear(),
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
        prop_assert_eq!(
            ViterbiDecoder::new(spec.clone()).decode_terminated(&coded, msg.len()),
            reference_decode_terminated(spec, &coded, msg.len())
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lane core decodes exactly the bits of the reference loop —
        /// clean, noisy, all-erased and all-zero — for K = 2..=10 and
        /// 1..=8 streams with unconstrained generator taps (so `T0` and
        /// `T1` need not be all-ones), unpunctured, at the standard
        /// rate-1/2 puncture patterns and at random ones.
        #[test]
        fn butterfly_core_matches_reference_decoder(
            constraint in 2u32..=10,
            n_streams in 1usize..=8,
            taps in vec(any::<u32>(), 8),
            rate in 0usize..5,
            keep in any::<u32>(),
            msg in vec(0u8..=1, 0..160),
            flip_percent in 0u64..=25,
            channel in 0u8..4,
            noise_seed in any::<u64>(),
        ) {
            let span = (1u32 << constraint) - 1;
            let polynomials: Vec<u32> = taps[..n_streams].iter().map(|&g| g & span).collect();
            let puncture = match rate {
                1..=3 if n_streams == 2 => [
                    PunctureSpec::rate_two_thirds(),
                    PunctureSpec::rate_three_quarters(),
                    PunctureSpec::rate_five_sixths(),
                ][rate - 1]
                    .clone(),
                // A random pattern of 1..=4 periods, its first bit kept.
                4 => PunctureSpec {
                    pattern: (0..(1 + (keep >> 30) as usize) * n_streams)
                        .map(|i| i == 0 || (keep >> (i % 30)) & 1 == 1)
                        .collect(),
                },
                _ => PunctureSpec::none(),
            };
            assert_matches_reference(
                &spec(constraint, polynomials, puncture),
                &msg,
                channel,
                flip_percent,
                noise_seed,
            )?;
        }
    }

    /// One long message per stream count, over ten renormalisation
    /// periods, at 25% flips and all-erased: the standard K = 7 pair for
    /// two streams, and fixed generators for the others.
    #[test]
    fn long_streams_match_reference_decoder() {
        let msg: Vec<u8> = (0..10 * ViterbiDecoder::RENORM + 40)
            .map(|i| ((i * 7 + 3) % 5 < 2) as u8)
            .collect();
        for n_streams in 1..=8usize {
            let spec = if n_streams == 2 {
                ConvSpec::k7_rate_half()
            } else {
                let constraint = 2 + n_streams as u32;
                let span = (1u32 << constraint) - 1;
                let polynomials = (0..n_streams as u32)
                    .map(|i| (0x9e37_79b9u32.rotate_left(5 * i) >> 3) & span)
                    .collect();
                spec(constraint, polynomials, PunctureSpec::none())
            };
            for (channel, flip_percent) in [(2, 25), (0, 0)] {
                assert_matches_reference(&spec, &msg, channel, flip_percent, 17 + n_streams as u64)
                    .unwrap_or_else(|e| panic!("{n_streams} streams, channel {channel}: {e}"));
            }
        }
    }

    /// The widest trellis `new` accepts, K = 16 with eight streams, where
    /// a reachable metric can sit the full `n·(K−1) = 120` above the best.
    #[test]
    fn widest_trellis_matches_reference_decoder() {
        let polynomials = (0..8u32)
            .map(|i| 0x8001 | (0x6a09_e667u32.rotate_left(3 * i) & 0xffff))
            .collect();
        let msg: Vec<u8> = (0..24).map(|i| ((i * 5 + 1) % 3 == 0) as u8).collect();
        assert_matches_reference(
            &spec(16, polynomials, PunctureSpec::none()),
            &msg,
            2,
            25,
            99,
        )
        .expect("lane core matches the reference");
    }

    /// Seven all-zero generators received as all ones cost every branch
    /// 7 a step, close to the `n` a step the metric bound allows, so the
    /// metrics climb through twenty renormalisations; the eighth stream
    /// carries the message at 25% flips.
    #[test]
    fn renormalisation_keeps_fast_growing_metrics_exact() {
        let spec = spec(3, vec![0b111, 0, 0, 0, 0, 0, 0, 0], PunctureSpec::none());
        let msg: Vec<u8> = (0..20 * ViterbiDecoder::RENORM)
            .map(|i| ((i * 7 + 3) % 5 < 2) as u8)
            .collect();
        let mut coded = ConvCode::new(spec.clone())
            .expect("valid")
            .encode_terminated(&msg);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for (i, b) in coded.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 8 != 0 {
                *b = 1;
            } else if x % 100 < 25 {
                *b ^= 1;
            }
        }
        assert_eq!(
            ViterbiDecoder::new(spec.clone()).decode_terminated(&coded, msg.len()),
            reference_decode_terminated(&spec, &coded, msg.len())
        );
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
