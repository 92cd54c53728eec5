//! Shared workload generators and measurement helpers for the experiment
//! lab and the `experiments` binary.

pub mod gates;
pub mod lab;
pub mod theory;
pub mod waterfall;

use ofdm_core::params::OfdmParams;
use ofdm_core::tx::Frame;
use ofdm_core::{count_bit_errors, MotherModel};
use ofdm_rx::receiver::ReferenceReceiver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random payload bits.
pub fn payload_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
}

/// Transmits `n_bits` through a fresh Mother Model configured by `params`.
///
/// # Panics
///
/// Panics if the preset fails to build or transmit — presets are expected
/// to be valid.
pub fn transmit_frame(params: &OfdmParams, n_bits: usize, seed: u64) -> Frame {
    let mut tx = MotherModel::new(params.clone()).expect("valid preset");
    tx.transmit(&payload_bits(n_bits, seed))
        .expect("nonempty payload")
}

/// Runs a bit-exact loopback, returning the number of bit errors.
///
/// # Panics
///
/// Panics if the chain fails to build or decode.
pub fn loopback_errors(params: &OfdmParams, n_bits: usize, seed: u64) -> usize {
    let sent = payload_bits(n_bits, seed);
    let mut tx = MotherModel::new(params.clone()).expect("valid preset");
    let frame = tx.transmit(&sent).expect("nonempty payload");
    let mut rx = ReferenceReceiver::new(params.clone()).expect("valid preset");
    let got = rx
        .receive(frame.signal(), sent.len())
        .expect("loopback decodes");
    count_bit_errors(&sent, &got) as usize
}

/// EVM (dB) of a received waveform against the transmitted frame's cell
/// ground truth, after estimating and removing one common complex gain
/// (the RF chain's net gain/rotation — an RF measurement would do the
/// same normalization).
///
/// Averages over up to `max_symbols` OFDM symbols.
///
/// # Panics
///
/// Panics if the frame carries no symbols or the waveform is too short.
pub fn evm_after_gain_correction(
    params: &OfdmParams,
    frame: &Frame,
    received: &rfsim::Signal,
    max_symbols: usize,
) -> f64 {
    use ofdm_dsp::Complex64;
    let demod = ofdm_rx::demod::OfdmDemodulator::new(params.clone());
    let modulator = ofdm_core::symbol::SymbolModulator::new(
        params.map.fft_size(),
        params.guard,
        params.taper_len,
        params.map.is_hermitian(),
    )
    .expect("params validated");
    let preamble = ofdm_core::framing::preamble_len(&params.preamble, &modulator);
    let sym_len = demod.symbol_len();
    let n = frame.symbol_count().min(max_symbols).max(1);
    // Common complex gain over all cells of the first n symbols.
    let mut num = Complex64::ZERO;
    let mut den = 0.0f64;
    let mut pairs: Vec<(Complex64, Complex64)> = Vec::new();
    // Demodulate from the split re/im storage directly; the interleaved
    // samples() view would allocate a whole-waveform copy per symbol.
    let (rx_re, rx_im) = received.parts();
    for s in 0..n {
        let rx_cells = demod
            .demodulate_at_parts(rx_re, rx_im, preamble + s * sym_len, s)
            .expect("received waveform long enough");
        for (r, t) in rx_cells.iter().zip(&frame.symbol_cells()[s]) {
            debug_assert_eq!(r.0, t.0);
            num += r.1 * t.1.conj();
            den += t.1.norm_sqr();
            pairs.push((r.1, t.1));
        }
    }
    let gain = num / den;
    let mut err = 0.0;
    let mut refpow = 0.0;
    for (r, t) in pairs {
        err += (r * gain.inv() - t).norm_sqr();
        refpow += t.norm_sqr();
    }
    10.0 * (err / refpow).max(1e-20).log10()
}

/// Times a closure over `iters` runs, returning seconds per run (best of
/// three batches to shave scheduler noise).
pub fn time_per_run<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters.max(1) as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::params::presets::minimal_test_params;

    #[test]
    fn payload_is_deterministic() {
        assert_eq!(payload_bits(64, 9), payload_bits(64, 9));
        assert_ne!(payload_bits(64, 9), payload_bits(64, 10));
        assert!(payload_bits(64, 1).iter().all(|&b| b <= 1));
    }

    #[test]
    fn loopback_helper_is_error_free() {
        assert_eq!(loopback_errors(&minimal_test_params(), 200, 3), 0);
    }

    #[test]
    fn frame_helper_transmits() {
        let f = transmit_frame(&minimal_test_params(), 48, 1);
        assert_eq!(f.symbol_count(), 2);
    }

    #[test]
    fn timing_is_positive() {
        let t = time_per_run(
            || {
                std::hint::black_box(1 + 1);
            },
            10,
        );
        assert!(t >= 0.0);
    }
}
