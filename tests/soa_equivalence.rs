//! Registry-wide equivalence properties for the structure-of-arrays
//! refactor: for every member of the ten-standard family, the batched
//! split-component kernels must reproduce the retained scalar paths —
//! bit-exactly where the arithmetic is identical (PA scalar twins, the
//! streaming transmitter) and within a 1e-12 numerical bound where
//! floating-point reassociation is inherent (the polar PA oracle, the
//! radix-4 split FFT vs the complex engine).
//!
//! The frozen golden waveforms in `tests/golden_vectors.rs` pin the same
//! contract against pre-refactor history; this suite pins the live scalar
//! reference paths against the batched kernels on real per-standard
//! waveforms.

use ofdm_core::source::OfdmSource;
use ofdm_core::MotherModel;
use ofdm_dsp::{fft, kernels, Complex64};
use ofdm_standards::{default_params, StandardId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;

fn random_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
}

/// One transmitted frame per standard, split into component arrays — the
/// PA equivalence checks run on realistic OFDM envelopes, not synthetic
/// noise.
fn standard_waveform(id: StandardId) -> (Vec<f64>, Vec<f64>) {
    let params = default_params(id);
    let n_bits = (2 * params.nominal_bits_per_symbol()).clamp(200, 20_000);
    let mut tx = MotherModel::new(params).unwrap_or_else(|e| panic!("{id}: {e}"));
    let frame = tx
        .transmit(&random_bits(n_bits, 0x0005_0AE0 ^ id as u64))
        .unwrap_or_else(|e| panic!("{id}: {e}"));
    let (re, im) = frame.signal().parts();
    (re.to_vec(), im.to_vec())
}

type SplitApply<'a> = &'a dyn Fn(&mut [f64], &mut [f64]);
type SampleOracle<'a> = &'a dyn Fn(Complex64) -> Complex64;

fn assert_close(got: Complex64, want: Complex64, tol: f64, ctx: &str) {
    let err = (got - want).norm_sqr().sqrt();
    let scale = 1.0 + want.norm_sqr().sqrt();
    assert!(
        err <= tol * scale,
        "{ctx}: got {got}, reference {want}, err {err:.3e}"
    );
}

/// The batched AM/AM–AM/PM kernels agree with the classic polar
/// (`hypot`/`atan2`/`from_polar`) per-sample oracle on every standard's
/// waveform. The kernels avoid the transcendentals, so exact bit equality
/// is not guaranteed — the bound is 1e-12 relative, far below any EVM the
/// benches resolve.
#[test]
fn pa_kernels_match_polar_oracle_on_every_standard() {
    let rapp = RappPa::new(1.0, 3.0).with_input_backoff_db(8.0);
    let saleh = SalehPa::classic().with_gain_db(-12.0);
    let clip = SoftClipPa::new(1.0).with_gain_db(-6.0);
    for id in StandardId::ALL {
        let (re0, im0) = standard_waveform(id);
        let cases: [(&str, SplitApply, SampleOracle); 3] = [
            ("rapp", &|r, i| rapp.apply_split(r, i), &|z| {
                rapp.distort_reference(z)
            }),
            ("saleh", &|r, i| saleh.apply_split(r, i), &|z| {
                saleh.distort_reference(z)
            }),
            ("softclip", &|r, i| clip.apply_split(r, i), &|z| {
                clip.distort_reference(z)
            }),
        ];
        for (name, batched, oracle) in cases {
            let mut re = re0.clone();
            let mut im = im0.clone();
            batched(&mut re, &mut im);
            for (n, (&r0, &i0)) in re0.iter().zip(&im0).enumerate() {
                let want = oracle(Complex64::new(r0, i0));
                let got = Complex64::new(re[n], im[n]);
                assert_close(got, want, 1e-12, &format!("{id}/{name} sample {n}"));
            }
        }
    }
}

/// The scalar single-sample kernels are definitionally the same arithmetic
/// as the batched split kernels, so they must agree to the bit on every
/// standard's waveform — any divergence means the two paths drifted apart.
#[test]
fn pa_scalar_twins_are_bit_exact_on_every_standard() {
    let (gain, sat, p) = (0.631, 1.0, 3.0);
    let (aa, ba, ap, bp) = (2.1587, 1.1517, 4.033, 9.104);
    for id in StandardId::ALL {
        let (re0, im0) = standard_waveform(id);
        let mut re = re0.clone();
        let mut im = im0.clone();
        kernels::rapp_apply_split(&mut re, &mut im, gain, sat, p);
        for (n, (&r0, &i0)) in re0.iter().zip(&im0).enumerate() {
            let want = kernels::rapp_apply_sample(Complex64::new(r0, i0), gain, sat, p);
            assert_eq!((re[n], im[n]), (want.re, want.im), "{id}: rapp sample {n}");
        }

        let mut re = re0.clone();
        let mut im = im0.clone();
        kernels::saleh_apply_split(&mut re, &mut im, gain, aa, ba, ap, bp);
        for (n, (&r0, &i0)) in re0.iter().zip(&im0).enumerate() {
            let want = kernels::saleh_apply_sample(Complex64::new(r0, i0), gain, aa, ba, ap, bp);
            assert_eq!((re[n], im[n]), (want.re, want.im), "{id}: saleh sample {n}");
        }

        let mut re = re0.clone();
        let mut im = im0.clone();
        kernels::softclip_apply_split(&mut re, &mut im, gain, sat);
        for (n, (&r0, &i0)) in re0.iter().zip(&im0).enumerate() {
            let want = kernels::softclip_apply_sample(Complex64::new(r0, i0), gain, sat);
            assert_eq!(
                (re[n], im[n]),
                (want.re, want.im),
                "{id}: softclip sample {n}"
            );
        }
    }
}

/// The split-array FFT path and the complex interleaved API run one
/// engine: at every FFT size the registry uses, both directions, their
/// outputs are equal bit for bit.
#[test]
fn fft_split_path_matches_complex_engine_at_registry_sizes() {
    let mut sizes: Vec<usize> = StandardId::ALL
        .iter()
        .map(|&id| default_params(id).map.fft_size())
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut rng = StdRng::seed_from_u64(0xFF7_5EED);
    let mut scratch = fft::FftScratch::new();
    for n in sizes {
        let plan = fft::plan(n);
        let data: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        for forward in [true, false] {
            let mut complex = data.clone();
            let mut re: Vec<f64> = data.iter().map(|z| z.re).collect();
            let mut im: Vec<f64> = data.iter().map(|z| z.im).collect();
            if forward {
                plan.forward_in(&mut complex, &mut scratch);
                plan.forward_split_in(&mut re, &mut im, &mut scratch);
            } else {
                plan.inverse_in(&mut complex, &mut scratch);
                plan.inverse_split_in(&mut re, &mut im, &mut scratch);
            }
            for (k, &want) in complex.iter().enumerate() {
                assert_eq!(
                    (re[k].to_bits(), im[k].to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "n={n} forward={forward} bin {k}"
                );
            }
        }
    }
}

/// The streaming transmitter (split grid, precomputed pilot templates and
/// symbol plans, reused scratch) emits exactly the batch frame for every
/// standard at every chunking — the SoA hot path may not perturb a single
/// bit of the waveform.
#[test]
fn streaming_equals_batch_for_every_standard() {
    for id in StandardId::ALL {
        let params = default_params(id);
        let n_bits = (2 * params.nominal_bits_per_symbol()).clamp(200, 20_000);
        let mut batch = OfdmSource::new(params.clone(), n_bits, 0xBA7C ^ id as u64)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let want = batch.process(&[]).unwrap_or_else(|e| panic!("{id}: {e}"));
        for chunk_len in [997usize, 1 << 14] {
            let mut src = OfdmSource::new(params.clone(), n_bits, 0xBA7C ^ id as u64)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            src.begin_stream();
            let mut got = Signal::empty(want.sample_rate());
            let mut chunk = Signal::default();
            while src
                .stream_chunk(chunk_len, &mut chunk)
                .unwrap_or_else(|e| panic!("{id}: {e}"))
                > 0
            {
                got.extend_from(&chunk);
            }
            assert_eq!(got, want, "{id} chunk_len {chunk_len}");
        }
    }
}

/// The receiver hot path reads the frame straight from its split re/im
/// storage (`demodulate_at_parts`); the retained interleaved entry point
/// (`demodulate_at` on a gathered `samples()` copy) is the reference. The
/// two must agree to the bit on every symbol of every standard in the
/// family, and the full receiver must still decode the payload error-free
/// through the split path.
#[test]
fn receiver_split_path_is_bit_exact_on_every_standard() {
    use ofdm_rx::demod::OfdmDemodulator;
    use ofdm_rx::receiver::ReferenceReceiver;
    for id in StandardId::ALL {
        let params = default_params(id);
        let n_bits = (2 * params.nominal_bits_per_symbol()).clamp(200, 20_000);
        let sent = random_bits(n_bits, 0x05EE_D0DE ^ id as u64);
        let mut tx = MotherModel::new(params.clone()).unwrap_or_else(|e| panic!("{id}: {e}"));
        let frame = tx.transmit(&sent).unwrap_or_else(|e| panic!("{id}: {e}"));

        // Symbol-level: split demodulation vs the interleaved reference.
        let demod = OfdmDemodulator::new(params.clone());
        let modulator = ofdm_core::symbol::SymbolModulator::new(
            params.map.fft_size(),
            params.guard,
            params.taper_len,
            params.map.is_hermitian(),
        )
        .unwrap_or_else(|e| panic!("{id}: {e}"));
        let preamble = ofdm_core::framing::preamble_len(&params.preamble, &modulator);
        let samples = frame.samples();
        let (re, im) = frame.signal().parts();
        let sym_len = demod.symbol_len();
        for s in 0..frame.symbol_count() {
            let offset = preamble + s * sym_len;
            let reference = demod
                .demodulate_at(&samples, offset, s)
                .unwrap_or_else(|| panic!("{id}: symbol {s} interleaved"));
            let split = demod
                .demodulate_at_parts(re, im, offset, s)
                .unwrap_or_else(|| panic!("{id}: symbol {s} split"));
            assert_eq!(reference, split, "{id}: symbol {s} diverged across layouts");
        }

        // End-to-end: the split-path receiver still decodes cleanly.
        let mut rx = ReferenceReceiver::new(params).unwrap_or_else(|e| panic!("{id}: {e}"));
        let got = rx
            .receive(frame.signal(), sent.len())
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(got, sent, "{id}: split-path loopback must be error-free");
    }
}
