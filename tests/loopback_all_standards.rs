//! E1 as an integration test: one Mother Model engine reconfigures into
//! every member of the standard family, and the matched reference receiver
//! recovers the payload bit-exactly for each.

use ofdm_bench::evm_after_gain_correction;
use ofdm_core::MotherModel;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::{default_params, StandardId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;

fn random_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
}

#[test]
fn every_standard_loops_back_bit_exact() {
    for id in StandardId::ALL {
        let params = default_params(id);
        let n_bits = (2 * params.nominal_bits_per_symbol()).clamp(200, 20_000);
        let sent = random_bits(n_bits, 0xDA7E_2005 ^ id as u64);

        let mut tx = MotherModel::new(params.clone())
            .unwrap_or_else(|e| panic!("{id}: config rejected: {e}"));
        let frame = tx
            .transmit(&sent)
            .unwrap_or_else(|e| panic!("{id}: tx failed: {e}"));
        let mut rx = ReferenceReceiver::new(params)
            .unwrap_or_else(|e| panic!("{id}: rx config rejected: {e}"));
        let got = rx
            .receive(frame.signal(), sent.len())
            .unwrap_or_else(|e| panic!("{id}: rx failed: {e}"));
        assert_eq!(got.len(), sent.len(), "{id}");
        let errors = sent.iter().zip(&got).filter(|(a, b)| a != b).count();
        assert_eq!(errors, 0, "{id}: {errors} bit errors in loopback");
    }
}

#[test]
fn single_engine_survives_rapid_reconfiguration() {
    // Interleave standards to prove no state leaks across reconfigurations.
    let mut tx = MotherModel::new(default_params(StandardId::Ieee80211a)).expect("valid");
    for round in 0..3 {
        for id in StandardId::ALL {
            let params = default_params(id);
            tx.reconfigure(params.clone())
                .expect("reconfigure succeeds");
            let sent = random_bits(300, round * 31 + id as u64);
            let frame = tx.transmit(&sent).expect("transmit succeeds");
            let mut rx = ReferenceReceiver::new(params).expect("valid");
            let got = rx.receive(frame.signal(), sent.len()).expect("decodes");
            assert_eq!(got, sent, "{id} round {round}");
        }
    }
}

#[test]
fn fresh_transmitters_reproduce_waveforms() {
    // Determinism: same payload + same preset → identical samples.
    for id in [StandardId::Ieee80211a, StandardId::Dab, StandardId::Adsl] {
        let params = default_params(id);
        let sent = random_bits(500, 7);
        let mut tx1 = MotherModel::new(params.clone()).expect("valid");
        let mut tx2 = MotherModel::new(params).expect("valid");
        let f1 = tx1.transmit(&sent).expect("tx");
        let f2 = tx2.transmit(&sent).expect("tx");
        assert_eq!(f1.signal().samples(), f2.signal().samples(), "{id}");
    }
}

#[test]
fn every_standard_meets_spectral_occupancy_and_evm_bounds() {
    // Two physical-layer sanity gates per standard:
    //  * the 99% occupied bandwidth matches the band the carrier allocation
    //    nominally spans (measured ratios sit at 0.98–0.99 across the
    //    family; the window is wide enough to never flake, tight enough to
    //    catch a wrong IFFT bin mapping or sample-rate mix-up), and
    //  * the clean-loopback EVM against the frame's cell ground truth is at
    //    the numerical floor — the demodulator recovers every constellation
    //    point to machine precision when nothing impairs the signal.
    for id in StandardId::ALL {
        let params = default_params(id);
        let n_bits = (6 * params.nominal_bits_per_symbol()).clamp(200, 40_000);
        let mut tx = MotherModel::new(params.clone()).expect("valid preset");
        let frame = tx
            .transmit(&random_bits(n_bits, 0x0B5E_55ED ^ id as u64))
            .expect("tx");

        let mut g = Graph::new();
        let src = g.add(SamplePlayback::new(frame.signal().clone()));
        let sa = g.add(SpectrumAnalyzer::new(512));
        g.chain(&[src, sa]).expect("wires");
        g.execute(&ExecPlan::batch()).expect("runs");
        let obw = g
            .block::<SpectrumAnalyzer>(sa)
            .expect("present")
            .occupied_bandwidth(0.99)
            .expect("ran");

        let spacing = params.subcarrier_spacing();
        let carriers = params.map.data_carriers();
        let f_hi = (*carriers.last().expect("nonempty map") as f64 + 1.0) * spacing;
        let f_lo = if params.map.is_hermitian() {
            // A real DMT line signal occupies ± the tone band.
            -f_hi
        } else {
            (carriers[0] as f64 - 1.0) * spacing
        };
        let nominal = f_hi - f_lo;
        let ratio = obw / nominal;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "{id}: 99% OBW {obw:.0} Hz vs nominal {nominal:.0} Hz (ratio {ratio:.3})"
        );

        let evm = evm_after_gain_correction(&params, &frame, frame.signal(), 4);
        assert!(
            evm < -100.0,
            "{id}: clean loopback EVM {evm:.1} dB must sit at the numerical floor"
        );
    }
}

#[test]
fn dmt_members_emit_real_signals_and_wireless_members_do_not() {
    let real_expected = [
        (StandardId::Adsl, true),
        (StandardId::Adsl2Plus, true),
        (StandardId::Vdsl, true),
        (StandardId::HomePlug10, true),
        (StandardId::Ieee80211a, false),
        (StandardId::Dab, false),
        (StandardId::DvbT, false),
    ];
    for (id, expect_real) in real_expected {
        let params = default_params(id);
        let n_bits = (params.nominal_bits_per_symbol()).clamp(100, 8_000);
        let mut tx = MotherModel::new(params).expect("valid");
        let frame = tx.transmit(&random_bits(n_bits, 3)).expect("tx");
        let max_im = frame
            .signal()
            .samples()
            .iter()
            .map(|z| z.im.abs())
            .fold(0.0f64, f64::max);
        if expect_real {
            assert!(
                max_im < 1e-9,
                "{id}: DMT output must be real (got {max_im:.2e})"
            );
        } else {
            assert!(max_im > 1e-3, "{id}: wireless output must be complex");
        }
    }
}
