//! The transmitter's table-driven bit path against the per-bit code it
//! replaced, kept here as the oracle: an LFSR stepped once per bit for the
//! scrambler, `Gf256::mul` for the Reed–Solomon division, a popcount and a
//! modulo puncture step per coded bit for the convolutional encoder,
//! `Modulation::map` on each cell's bit group for the mapper, and batch
//! `symbol::assemble` for the streaming carry window. Every comparison is
//! exact: bytes for bits, `f64::to_bits` for samples and cells. (The
//! constellation's axis tables are checked against `Modulation::map` for
//! every bit pattern of every loading in `ofdm-core`'s unit tests.)

use ofdm_core::fec::{ConvCode, ConvSpec, Gf256, PunctureSpec, ReedSolomon};
use ofdm_core::framing::{render_element, PreambleElement};
use ofdm_core::params::presets::minimal_test_params;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::{LfsrSpec, PilotGenerator};
use ofdm_core::scramble::{Scrambler, ScramblerSpec};
use ofdm_core::symbol::{assemble, SymbolModulator};
use ofdm_core::{MotherModel, StreamState};
use ofdm_dsp::Complex64;
use ofdm_standards::drm::{self, RobustnessMode};
use ofdm_standards::{default_params, StandardId};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// The per-bit additive scrambler: one LFSR step per bit.
struct OracleScrambler {
    spec: LfsrSpec,
    lfsr: ofdm_dsp::bits::Lfsr,
}

impl OracleScrambler {
    fn new(spec: LfsrSpec) -> Self {
        let lfsr = spec.build();
        OracleScrambler { spec, lfsr }
    }

    fn scramble(&mut self, bits: &[u8]) -> Vec<u8> {
        bits.iter()
            .map(|&b| (b & 1) ^ self.lfsr.next_bit())
            .collect()
    }

    fn reset(&mut self) {
        self.lfsr.reseed(self.spec.seed);
    }
}

/// The `gf.mul` systematic RS encoder.
fn oracle_rs_encode(n: usize, k: usize, msg: &[u8]) -> Vec<u8> {
    let gf = Gf256::new();
    let two_t = n - k;
    let mut generator = vec![1u8];
    for i in 0..two_t {
        generator = gf.poly_mul(&generator, &[1, gf.alpha_pow(i)]);
    }
    let mut rem = vec![0u8; two_t];
    for &m in msg {
        let coef = m ^ rem[0];
        rem.rotate_left(1);
        rem[two_t - 1] = 0;
        if coef != 0 {
            for (i, r) in rem.iter_mut().enumerate() {
                *r ^= gf.mul(generator[i + 1], coef);
            }
        }
    }
    let mut out = msg.to_vec();
    out.extend_from_slice(&rem);
    out
}

/// The per-bit convolutional encoder: a popcount per generator and a
/// modulo per puncture step, on an unmasked register.
struct OracleConv {
    spec: ConvSpec,
    state: u32,
    phase: usize,
}

impl OracleConv {
    fn new(spec: ConvSpec) -> Self {
        OracleConv {
            spec,
            state: 0,
            phase: 0,
        }
    }

    fn encode(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for &b in bits {
            self.state = (self.state << 1) | (b as u32 & 1);
            for gi in 0..self.spec.polynomials.len() {
                let parity = (self.state & self.spec.polynomials[gi]).count_ones() & 1;
                let pattern = &self.spec.puncture.pattern;
                let keep = if pattern.is_empty() {
                    true
                } else {
                    let keep = pattern[self.phase];
                    self.phase = (self.phase + 1) % pattern.len();
                    keep
                };
                if keep {
                    out.push(parity as u8);
                }
            }
        }
        out
    }
}

/// Cuts `0..len` at the given fractions of its length.
fn splits(len: usize, cuts: &[u16]) -> Vec<std::ops::Range<usize>> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|&c| len * usize::from(c) / usize::from(u16::MAX))
        .collect();
    points.push(0);
    points.push(len);
    points.sort_unstable();
    points.windows(2).map(|w| w[0]..w[1]).collect()
}

fn lfsr_specs() -> Vec<LfsrSpec> {
    vec![
        ScramblerSpec::ieee80211().lfsr,
        ScramblerSpec::dvb().lfsr,
        ScramblerSpec::drm().lfsr,
        LfsrSpec::dvb_wk(),
        // Not maximal length: x⁴+x²+1 has short cycles.
        LfsrSpec {
            order: 4,
            taps: vec![4, 2],
            seed: 0b0110,
        },
        LfsrSpec {
            order: LfsrSpec::MAX_ORDER,
            taps: vec![20, 17],
            seed: 0xabcde,
        },
    ]
}

fn puncture_presets() -> Vec<PunctureSpec> {
    vec![
        PunctureSpec::none(),
        PunctureSpec::rate_two_thirds(),
        PunctureSpec::rate_three_quarters(),
        PunctureSpec::rate_five_sixths(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The table scrambler equals the per-bit LFSR, whatever the call
    /// boundaries (including ones far past a period), and `reset` returns
    /// both to the seed.
    #[test]
    fn scrambler_matches_the_per_bit_lfsr(
        which in 0usize..6,
        bits in vec(0u8..=255, 0..3000),
        cuts in vec(any::<u16>(), 0..6),
        reset_at in any::<u16>(),
    ) {
        let spec = lfsr_specs()[which].clone();
        let mut table = Scrambler::new(ScramblerSpec { lfsr: spec.clone() });
        let mut oracle = OracleScrambler::new(spec);
        for part in splits(bits.len(), &cuts) {
            prop_assert_eq!(table.scramble(&bits[part.clone()]), oracle.scramble(&bits[part]));
        }
        table.reset();
        oracle.reset();
        let tail = &bits[bits.len() * usize::from(reset_at) / usize::from(u16::MAX)..];
        let mut in_place = tail.to_vec();
        table.scramble_in_place(&mut in_place);
        prop_assert_eq!(in_place, oracle.scramble(tail));
    }

    /// The table RS encoder equals the `gf.mul` division for shortened and
    /// full-length codes with 2 to 254 parity bytes.
    #[test]
    fn rs_encoder_matches_the_gf_mul_division(
        code in 0usize..6,
        seed in any::<u64>(),
    ) {
        let (n, k) = [(204, 188), (120, 108), (255, 239), (20, 12), (255, 253), (255, 1)][code];
        let mut x = seed | 1;
        let msg: Vec<u8> = (0..k)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let rs = ReedSolomon::new(n, k);
        prop_assert_eq!(rs.encode(&msg), oracle_rs_encode(n, k, &msg));
        prop_assert_eq!(rs.encode(&vec![0; k]), vec![0; n]);
    }

    /// The table convolutional encoder equals the per-bit one for every
    /// puncture preset and K = 3..=9, continued across arbitrary call
    /// boundaries, and after `reset`.
    #[test]
    fn conv_encoder_matches_the_per_bit_encoder(
        preset in 0usize..4,
        constraint in 3u32..=9,
        taps in any::<u32>(),
        bits in vec(0u8..=1, 0..700),
        cuts in vec(any::<u16>(), 0..6),
    ) {
        let span = (1u32 << constraint) - 1;
        let ends = 1 | (1 << (constraint - 1));
        let spec = ConvSpec {
            constraint,
            polynomials: vec![(taps & span) | ends, ((taps >> 12) & span) | ends],
            puncture: puncture_presets()[preset].clone(),
        };
        let mut table = ConvCode::new(spec.clone()).expect("valid spec");
        let mut oracle = OracleConv::new(spec.clone());
        for part in splits(bits.len(), &cuts) {
            prop_assert_eq!(table.encode(&bits[part.clone()]), oracle.encode(&bits[part]));
        }
        table.reset();
        let mut fresh = OracleConv::new(spec);
        let mut want = fresh.encode(&bits);
        want.extend(fresh.encode(&[0; 8][..constraint as usize - 1]));
        prop_assert_eq!(table.encode_terminated(&bits), want);
    }
}

#[test]
fn conv_encoder_matches_for_one_to_eight_streams() {
    // The registry's K=7 pair, and wider codes up to the 8-stream limit,
    // with a puncture pattern as long as two steps.
    let polys = [0o133, 0o171, 0o165, 0o117, 0o135, 0o163, 0o145, 0o177];
    let bits: Vec<u8> = (0..500)
        .map(|i| ((i * 13 + i / 7) % 3 == 0) as u8)
        .collect();
    for n in 1..=8 {
        let mut pattern = vec![true; 2 * n];
        pattern[n] = false;
        for puncture in [PunctureSpec::none(), PunctureSpec { pattern }] {
            let spec = ConvSpec {
                constraint: 7,
                polynomials: polys[..n].to_vec(),
                puncture,
            };
            let mut table = ConvCode::new(spec.clone()).expect("valid spec");
            let mut oracle = OracleConv::new(spec);
            assert_eq!(
                table.encode(&bits[..123]),
                oracle.encode(&bits[..123]),
                "n={n}"
            );
            assert_eq!(
                table.encode(&bits[123..]),
                oracle.encode(&bits[123..]),
                "n={n}"
            );
        }
    }
    // Nine streams, and taps the K-bit register cannot hold, are errors.
    let nine = ConvSpec {
        polynomials: vec![0o133; 9],
        ..ConvSpec::k7_rate_half()
    };
    assert!(ConvCode::new(nine).is_err());
    let wide = ConvSpec {
        polynomials: vec![0o133, 0o371],
        ..ConvSpec::k7_rate_half()
    };
    assert!(ConvCode::new(wide).is_err());
}

fn cases() -> Vec<(String, OfdmParams)> {
    let mut cases: Vec<(String, OfdmParams)> = StandardId::ALL
        .iter()
        .map(|&id| (id.key().to_owned(), default_params(id)))
        .collect();
    cases.extend(
        RobustnessMode::ALL
            .iter()
            .map(|&mode| (format!("drm {mode:?}"), drm::params(mode))),
    );
    let mut tapered = minimal_test_params();
    tapered.taper_len = 4;
    tapered.preamble = vec![
        PreambleElement::Null { len: 23 },
        PreambleElement::FreqDomain {
            cells: vec![(1, Complex64::ONE), (-3, Complex64::new(0.0, -1.0))],
        },
    ];
    cases.push(("minimal, tapered".into(), tapered));
    cases
}

fn payload(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 7 + i / 3 + seed) % 5 < 2) as u8)
        .collect()
}

/// The per-cell mapper: each data carrier's bit group copied out (zeros
/// past the end) and mapped with `Modulation::map`, differential phases
/// chained per carrier, cells sorted by carrier.
fn oracle_cells(params: &OfdmParams, coded: &[u8]) -> Vec<Vec<(i32, Complex64)>> {
    let pilots = PilotGenerator::new(params.pilots.clone());
    let all_data = params.map.data_carriers();
    let mut diff_ref: HashMap<i32, Complex64> = HashMap::new();
    for element in &params.preamble {
        if let Some(cells) = element.reference_cells() {
            diff_ref.extend(cells.iter().copied());
        }
    }
    let mut symbols = Vec::new();
    let mut cursor = 0;
    while cursor < coded.len() {
        let symbol_index = symbols.len();
        let mut cells = pilots.cells(symbol_index);
        let bits = &coded[cursor..];
        let mut consumed = 0;
        let mut group = [0u8; 16];
        for k in params.map.data_excluding(&pilots.carriers(symbol_index)) {
            let idx = all_data.binary_search(&k).expect("carrier from the map");
            let modulation = params.modulation.modulation_at(idx);
            let b = modulation.bits_per_symbol();
            for (i, slot) in group[..b].iter_mut().enumerate() {
                *slot = *bits.get(consumed + i).unwrap_or(&0);
            }
            consumed = (consumed + b).min(bits.len());
            let mut point = modulation.map(&group[..b]);
            if params.differential {
                let prev = diff_ref.get(&k).copied().unwrap_or(Complex64::ONE);
                point = prev * point;
                diff_ref.insert(k, point);
            }
            cells.push((k, point));
        }
        cells.sort_by_key(|c| c.0);
        symbols.push(cells);
        cursor += consumed;
        if consumed == 0 {
            break;
        }
    }
    symbols
}

fn same_cells(a: &[Vec<(i32, Complex64)>], b: &[Vec<(i32, Complex64)>]) -> bool {
    let bits = |s: &[Vec<(i32, Complex64)>]| -> Vec<(i32, u64, u64)> {
        s.iter()
            .flatten()
            .map(|&(k, v)| (k, v.re.to_bits(), v.im.to_bits()))
            .collect()
    };
    a.len() == b.len() && bits(a) == bits(b)
}

#[test]
fn mapper_matches_the_per_cell_map_loop() {
    for (label, params) in cases() {
        let bits = payload(params.nominal_bits_per_symbol() * 5 / 2 + 7, label.len());
        let coded = MotherModel::new(params.clone())
            .expect("valid preset")
            .encode_payload(&bits);
        let frame = MotherModel::new(params.clone())
            .expect("valid preset")
            .transmit(&bits)
            .expect("valid payload");
        assert!(
            same_cells(frame.symbol_cells(), &oracle_cells(&params, &coded)),
            "{label}: symbol cells differ from the per-cell mapper"
        );
    }
}

#[test]
fn streamed_frames_match_batch_assembly_at_every_chunking() {
    for (label, params) in cases() {
        let modulator = SymbolModulator::new(
            params.map.fft_size(),
            params.guard,
            params.taper_len,
            params.map.is_hermitian(),
        )
        .expect("valid preset");
        let frames = [
            payload(params.nominal_bits_per_symbol() * 3 / 2 + 5, 1),
            payload(params.nominal_bits_per_symbol() / 3 + 1, 2),
        ];
        // The oracle: every section rendered, then overlap-added in one
        // batch, per frame.
        let mut tx = MotherModel::new(params.clone()).expect("valid preset");
        let want: Vec<Vec<Complex64>> = frames
            .iter()
            .map(|p| {
                let frame = tx.transmit(p).expect("valid payload");
                let mut sections: Vec<_> = params
                    .preamble
                    .iter()
                    .map(|e| render_element(e, &modulator))
                    .collect();
                sections.extend(frame.symbol_cells().iter().map(|c| modulator.modulate(c)));
                assemble(&sections)
            })
            .collect();
        for chunk in [1usize, 7, 256, usize::MAX] {
            let mut tx = MotherModel::new(params.clone()).expect("valid preset");
            let mut state = StreamState::new();
            for (f, p) in frames.iter().enumerate() {
                tx.begin_stream(p, &mut state).expect("valid payload");
                let mut out = Vec::new();
                while tx.stream_into(&mut state, chunk, &mut out) > 0 {}
                assert!(state.is_finished(), "{label} chunk {chunk}");
                assert_eq!(tx.stream_into(&mut state, chunk, &mut out), 0);
                let same = out.len() == want[f].len()
                    && out.iter().zip(&want[f]).all(|(a, b)| {
                        (a.re.to_bits(), a.im.to_bits()) == (b.re.to_bits(), b.im.to_bits())
                    });
                assert!(
                    same,
                    "{label} frame {f} chunk {chunk}: differs from batch assembly"
                );
            }
        }
    }
}
