//! DSL-family link tests: the DMT members (ADSL, ADSL2+, VDSL) through
//! the copper-loop channel with averaged channel estimation — the wired
//! counterpart of `broadcast_links.rs`.

use ofdm_core::MotherModel;
use ofdm_rx::demod::OfdmDemodulator;
use ofdm_rx::eq::ChannelEstimator;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::{default_params, StandardId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;

fn random_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
}

/// Sends `n_symbols` of random payload over a mild loop, estimates the
/// channel from the first half of the frame, decodes the whole frame.
fn loop_ber(id: StandardId, loss_db: f64, snr_db: f64, seed: u64) -> f64 {
    let params = default_params(id);
    let n_bits = 8 * params.nominal_bits_per_symbol();
    let sent = random_bits(n_bits, seed);
    let mut tx = MotherModel::new(params.clone()).expect("valid");
    let frame = tx.transmit(&sent).expect("tx");

    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let line = g.add(DslLineChannel::new(loss_db, 300e3));
    let noise = g.add(AwgnChannel::from_snr_db(snr_db, seed ^ 0xA5));
    g.chain(&[src, line, noise]).expect("wiring");
    g.execute(&ExecPlan::batch()).expect("runs");
    let received = g.output(noise).expect("ran").clone();

    // Data-aided channel estimation over the first half of the frame (the
    // test plays the role of the modem's training phase).
    let demod = OfdmDemodulator::new(params.clone());
    let sym_len = demod.symbol_len();
    let mut estimator = ChannelEstimator::new();
    for s in 0..frame.symbol_count() / 2 {
        let cells = demod
            .demodulate_at_parts(received.re(), received.im(), s * sym_len, s)
            .expect("symbol present");
        estimator.accumulate(&cells, &frame.symbol_cells()[s]);
    }

    let mut rx = ReferenceReceiver::new(params).expect("valid");
    rx.set_channel_estimate(estimator.estimate());
    let got = rx.receive(&received, sent.len()).expect("decodes");
    sent.iter().zip(&got).filter(|(a, b)| a != b).count() as f64 / sent.len() as f64
}

#[test]
fn adsl_decodes_over_a_short_loop() {
    // The default ADSL loading tops out at 14 bits/tone, so it needs a
    // premium line; a short loop with high SNR carries it error-free.
    let ber = loop_ber(StandardId::Adsl, 3.0, 55.0, 1);
    assert_eq!(ber, 0.0, "ber {ber}");
}

#[test]
fn adsl2plus_decodes_over_a_short_loop() {
    let ber = loop_ber(StandardId::Adsl2Plus, 2.0, 55.0, 2);
    assert_eq!(ber, 0.0, "ber {ber}");
}

#[test]
fn longer_loops_degrade_the_fixed_loading() {
    // The same fixed loading over a much lossier loop must produce errors
    // on the deep-attenuation tones — the reason real modems train
    // (demonstrated in examples/adsl_training.rs).
    let short = loop_ber(StandardId::Adsl, 3.0, 55.0, 3);
    let long = loop_ber(StandardId::Adsl, 30.0, 38.0, 3);
    assert!(long > short, "loss must matter: short {short}, long {long}");
    assert!(long > 1e-3, "a 30 dB loop must break 14-bit tones: {long}");
}

#[test]
fn vdsl_frame_structure_survives_the_line() {
    // VDSL's 8192-point symbols through the loop: spot-check that the
    // per-tone estimate brings the highest-loaded tones back within their
    // decision regions at high SNR (full-frame BER is exercised by the
    // loopback suite; this guards the channel/equalizer path at scale).
    let params = default_params(StandardId::Vdsl);
    let sent = random_bits(2 * params.nominal_bits_per_symbol(), 4);
    let mut tx = MotherModel::new(params.clone()).expect("valid");
    let frame = tx.transmit(&sent).expect("tx");

    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let line = g.add(DslLineChannel::new(1.0, 300e3));
    let noise = g.add(AwgnChannel::from_snr_db(60.0, 6));
    g.chain(&[src, line, noise]).expect("wiring");
    g.execute(&ExecPlan::batch()).expect("runs");
    let received = g.output(noise).expect("ran").clone();

    let demod = OfdmDemodulator::new(params.clone());
    let mut estimator = ChannelEstimator::new();
    let cells0 = demod
        .demodulate_at_parts(received.re(), received.im(), 0, 0)
        .expect("symbol present");
    estimator.accumulate(&cells0, &frame.symbol_cells()[0]);
    let mut rx = ReferenceReceiver::new(params).expect("valid");
    rx.set_channel_estimate(estimator.estimate());
    let got = rx.receive(&received, sent.len()).expect("decodes");
    let errors = sent.iter().zip(&got).filter(|(a, b)| a != b).count();
    assert_eq!(errors, 0, "{errors} errors over a premium VDSL loop");
}
