//! Bit-exact pin of the transmitter's output for every registry standard
//! and every DRM robustness mode.
//!
//! Each case transmits two frames from one Mother Model (so pilot
//! sequences, differential references and coder state carry from frame to
//! frame) and hashes, with FNV-1a over `f64::to_bits`, the waveforms, the
//! logged symbol cells and `encode_payload`'s bits. The same two frames
//! streamed from a fresh model at chunks of 1, 37 and 256 samples must
//! hash to the same waveform. The hashes were recorded from the per-bit
//! transmitter (per-bit scrambler, `gf.mul` Reed–Solomon, per-bit
//! convolutional encoder, `Modulation::map` mapper); the golden vectors'
//! 1e-12 tolerance cannot show bit identity, these can.
//!
//! The four Hermitian (DMT) standards' waveform hashes were re-recorded
//! when their symbols moved to half-length real synthesis, after
//! `dmt_waveforms_match_the_mirrored_full_length_oracle` had checked
//! them against the full-length path (which still reproduces the old
//! hashes). Their cell and bit hashes did not change.
//!
//! The 802.11a and 802.11g waveform hashes were re-recorded when their
//! training fields (rendered by a 64-point inverse FFT) moved from the
//! deleted complex radix-2 engine to the split engine, after
//! `ofdm-standards`' `training_bodies_match_a_naive_inverse_dft` had
//! checked the new bodies against a `dft_naive` render (≤ 1e-12 of peak).
//! Their cell and bit hashes did not change.

use ofdm_core::framing::{render_element, PreambleElement};
use ofdm_core::params::OfdmParams;
use ofdm_core::symbol::{assemble, SymbolModulator};
use ofdm_core::tx::StreamState;
use ofdm_core::MotherModel;
use ofdm_dsp::Complex64;
use ofdm_standards::drm::{self, RobustnessMode};
use ofdm_standards::{default_params, StandardId};

/// FNV-1a over little-endian 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn samples(&mut self, samples: &[Complex64]) {
        self.word(samples.len() as u64);
        for z in samples {
            self.word(z.re.to_bits());
            self.word(z.im.to_bits());
        }
    }

    fn cells(&mut self, symbols: &[Vec<(i32, Complex64)>]) {
        self.word(symbols.len() as u64);
        for cells in symbols {
            self.word(cells.len() as u64);
            for &(k, v) in cells {
                self.word(k as i64 as u64);
                self.word(v.re.to_bits());
                self.word(v.im.to_bits());
            }
        }
    }

    fn bits(&mut self, bits: &[u8]) {
        self.word(bits.len() as u64);
        for &b in bits {
            self.word(u64::from(b));
        }
    }
}

/// Deterministic payload bits (xorshift64).
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 63) as u8
        })
        .collect()
}

fn cases() -> Vec<(String, OfdmParams)> {
    let mut cases: Vec<(String, OfdmParams)> = StandardId::ALL
        .iter()
        .map(|&id| (id.key().to_owned(), default_params(id)))
        .collect();
    cases.extend(
        RobustnessMode::ALL
            .iter()
            .map(|&mode| (format!("drm-{mode:?}"), drm::params(mode))),
    );
    cases
}

/// The two payloads of a case: about one and a half symbols, then half a
/// symbol, so frames end on partly filled symbols.
fn payloads(params: &OfdmParams, seed: u64) -> [Vec<u8>; 2] {
    let nominal = params.nominal_bits_per_symbol();
    [
        payload(nominal * 3 / 2 + 11, seed),
        payload(nominal / 2 + 3, seed ^ 0x5eed),
    ]
}

/// `(waveform, cells, encode_payload bits)` hashes of one case, checking
/// on the way that every streamed chunking reproduces the waveform.
fn hashes(label: &str, params: &OfdmParams, seed: u64) -> (u64, u64, u64) {
    let frames = payloads(params, seed);
    let mut tx = MotherModel::new(params.clone()).expect("valid preset");
    let (mut wave, mut cells) = (Fnv::new(), Fnv::new());
    for p in &frames {
        let frame = tx.transmit(p).expect("valid payload");
        wave.samples(&frame.samples());
        cells.cells(frame.symbol_cells());
    }
    for chunk in [1usize, 37, 256] {
        let mut tx = MotherModel::new(params.clone()).expect("valid preset");
        let mut state = StreamState::new();
        let mut streamed = Fnv::new();
        for p in &frames {
            let mut out = Vec::new();
            tx.begin_stream(p, &mut state).expect("valid payload");
            while tx.stream_into(&mut state, chunk, &mut out) > 0 {}
            assert!(state.is_finished(), "{label} chunk {chunk}");
            streamed.samples(&out);
        }
        assert_eq!(streamed.0, wave.0, "{label}: streamed at chunk {chunk}");
    }
    let mut bits = Fnv::new();
    let mut tx = MotherModel::new(params.clone()).expect("valid preset");
    for p in &frames {
        bits.bits(&tx.encode_payload(p));
    }
    (wave.0, cells.0, bits.0)
}

#[test]
fn transmitter_output_is_pinned_bit_for_bit() {
    // (case, waveform hash, cells hash, encode_payload hash).
    const PINS: [(&str, u64, u64, u64); 14] = [
        (
            "802.11a",
            0x8c48e84d40f9e917,
            0xf0bda4dfd303787b,
            0xb56f955bfbcbd1db,
        ),
        (
            "802.11g",
            0xd398475b6b55b0b3,
            0xf7e3b61115d27623,
            0x28c8b70ef614cd9a,
        ),
        (
            "adsl",
            0xb7763004860cb7e2,
            0x5a92c6c93d423694,
            0xbd286b1a27cbcf9b,
        ),
        (
            "drm",
            0x41337b548301c9b9,
            0xc69c3a693908b5fb,
            0x4abe3f2f1907e17f,
        ),
        (
            "vdsl",
            0x64cad4d693de2638,
            0xa6c910532576e3bd,
            0x275b58606c69fc5a,
        ),
        (
            "dab",
            0x02d0ee30a869edc4,
            0x5a79d20d4e0eb49b,
            0x7f734db19b26f24d,
        ),
        (
            "dvb-t",
            0xe1af5a24cfc9f639,
            0xf8c6d1181be46041,
            0xb020462e488f4014,
        ),
        (
            "802.16a",
            0x72a2239f031d7c4e,
            0xdcb56853d4009067,
            0x5c0fd32591869e97,
        ),
        (
            "homeplug",
            0xbad4d6884c4510b6,
            0x102235ddc9d64ab8,
            0x99330a82b4a238d5,
        ),
        (
            "adsl2+",
            0xf479fa2e8084972d,
            0x6a990523d5a1e3f3,
            0x008607955087bfdc,
        ),
        (
            "drm-A",
            0x7a590a091f7ca179,
            0x373047b6ec59a807,
            0x6a2ea3da82b4d6df,
        ),
        (
            "drm-B",
            0x2fb1554c588b2f49,
            0x5567051bda69ebbd,
            0xc48e5bf748189dec,
        ),
        (
            "drm-C",
            0xa8c645527c608042,
            0x60268fc7e6e0c67f,
            0x55ea9b7c1d615196,
        ),
        (
            "drm-D",
            0x3cd94f70c5b50678,
            0x27a7d7e80d72afeb,
            0x30fc0dbb2c248216,
        ),
    ];
    let got: Vec<(String, u64, u64, u64)> = cases()
        .iter()
        .enumerate()
        .map(|(i, (label, params))| {
            let (w, c, b) = hashes(label, params, 0x7B17_0000 + i as u64);
            (label.clone(), w, c, b)
        })
        .collect();
    let rendered: Vec<String> = got
        .iter()
        .map(|(l, w, c, b)| format!("(\"{l}\", {w:#018x}, {c:#018x}, {b:#018x}),"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "{}", rendered.join("\n"));
    for ((label, w, c, b), pin) in got.iter().zip(PINS) {
        assert_eq!(
            (label.as_str(), *w, *c, *b),
            pin,
            "pins changed; observed:\n{}",
            rendered.join("\n")
        );
    }
}

/// `cells` with every Hermitian carrier's conjugate mirror appended: the
/// full-length grid of a real DMT symbol.
fn mirrored(cells: &[(i32, Complex64)]) -> Vec<(i32, Complex64)> {
    cells
        .iter()
        .flat_map(|&(k, v)| [(k, v), (-k, v.conj())])
        .collect()
}

#[test]
fn dmt_waveforms_match_the_mirrored_full_length_oracle() {
    // The oracle is the full-length synthesis Hermitian maps used before
    // the half-length path: a complex (non-Hermitian) modulator over the
    // mirrored grid, one N-point inverse per symbol, overlap-added from
    // the frame's logged cells and its preamble. Two frames per standard,
    // so pilot and coder state carry over; the preamble (HomePlug's
    // frequency-domain reference) is rendered through both paths.
    let mut checked = Vec::new();
    for (i, (label, params)) in cases().iter().enumerate() {
        if !params.map.is_hermitian() {
            continue;
        }
        let oracle =
            SymbolModulator::new(params.map.fft_size(), params.guard, params.taper_len, false)
                .expect("valid preset");
        let mut tx = MotherModel::new(params.clone()).expect("valid preset");
        let mut wave = Fnv::new();
        for p in &payloads(params, 0x7B17_0000 + i as u64) {
            let frame = tx.transmit(p).expect("valid payload");
            let mut sections: Vec<_> = params
                .preamble
                .iter()
                .map(|e| match e {
                    PreambleElement::FreqDomain { cells } => oracle.modulate(&mirrored(cells)),
                    other => render_element(other, &oracle),
                })
                .collect();
            sections.extend(
                frame
                    .symbol_cells()
                    .iter()
                    .map(|cells| oracle.modulate(&mirrored(cells))),
            );
            let want = assemble(&sections);
            wave.samples(&want);
            let got = frame.samples();
            assert_eq!(got.len(), want.len(), "{label}");
            let peak = want.iter().map(|z| z.abs()).fold(0.0, f64::max);
            let err = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err <= 1e-12 * peak, "{label}: error {err:e} of peak {peak}");
            assert!(
                got.iter().all(|z| z.im.to_bits() == 0),
                "{label}: the half-length body is real, its imaginary part +0.0"
            );
        }
        checked.push((label.clone(), wave.0));
    }
    // The oracle is the old path bit for bit: it reproduces the waveform
    // hashes pinned for these standards before the half-length synthesis.
    assert_eq!(
        checked,
        [
            ("adsl".to_owned(), 0x1257_73bd_c590_6505),
            ("vdsl".to_owned(), 0x0973_b00c_0e7c_352d),
            ("homeplug".to_owned(), 0xb3e4_a7ee_527b_94d2),
            ("adsl2+".to_owned(), 0x3dc9_a713_742f_0f13),
        ]
    );
}
