//! Broadcast/powerline link tests: the differential family members (DAB,
//! HomePlug) through their design-target channels.
//!
//! Differential QPSK needs no channel estimation — the previous symbol's
//! cell *is* the reference, so a static (or slowly fading) channel gain
//! cancels in the ratio. These tests verify that property end to end, and
//! that coding carries HomePlug through the impulsive powerline noise it
//! was built for.

use ofdm_core::MotherModel;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::{dab, default_params, homeplug10, StandardId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;

fn random_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
}

fn count_errors(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[test]
fn dab_differential_survives_static_multipath_without_equalization() {
    // A static two-ray channel rotates and scales every carrier; the
    // differential receiver never estimates it and still decodes clean.
    let params = dab::params(dab::TxMode::III);
    let sent = random_bits(2000, 5);
    let mut tx = MotherModel::new(params.clone()).expect("valid");
    let frame = tx.transmit(&sent).expect("tx");

    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    // Echo inside the 63-sample guard of mode III.
    let ch = g.add(MultipathChannel::two_ray(20, 0.4));
    let noise = g.add(AwgnChannel::from_snr_db(28.0, 7));
    g.chain(&[src, ch, noise]).expect("wiring");
    g.execute(&ExecPlan::batch()).expect("runs");
    let received = g.output(noise).expect("ran").clone();

    // NO channel estimate installed: differential demod self-references.
    let mut rx = ReferenceReceiver::new(params).expect("valid");
    let got = rx.receive(&received, sent.len()).expect("decodes");
    assert_eq!(count_errors(&sent, &got), 0);
}

#[test]
fn dab_survives_slow_rayleigh_fading() {
    // Mode I symbols are 1.246 ms; at walking-speed Doppler the channel is
    // effectively constant across adjacent symbols — differential DQPSK's
    // home turf.
    let params = dab::params(dab::TxMode::I);
    let sent = random_bits(3000, 11);
    let mut tx = MotherModel::new(params.clone()).expect("valid");
    let frame = tx.transmit(&sent).expect("tx");

    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let fading = g.add(FadingChannel::rayleigh(vec![(0, 1.0)], 2.0, 3)); // 2 Hz Doppler
    let noise = g.add(AwgnChannel::from_snr_db(30.0, 9));
    g.chain(&[src, fading, noise]).expect("wiring");
    g.execute(&ExecPlan::batch()).expect("runs");
    let received = g.output(noise).expect("ran").clone();

    let mut rx = ReferenceReceiver::new(params).expect("valid");
    let got = rx.receive(&received, sent.len()).expect("decodes");
    let ber = count_errors(&sent, &got) as f64 / sent.len() as f64;
    // The K=7 code cleans up the residual differential noise.
    assert_eq!(ber, 0.0, "ber {ber}");
}

#[test]
fn dab_fast_fading_degrades_gracefully() {
    // At vehicular Doppler approaching the symbol rate, differential
    // references decorrelate and errors appear — the model reproduces the
    // qualitative Doppler sensitivity, not a cliff into garbage.
    let params = dab::params(dab::TxMode::I);
    let sent = random_bits(3000, 13);
    let mut tx = MotherModel::new(params.clone()).expect("valid");
    let frame = tx.transmit(&sent).expect("tx");

    let run = |doppler: f64| -> f64 {
        let mut g = Graph::new();
        let src = g.add(SamplePlayback::new(frame.signal().clone()));
        let fading = g.add(FadingChannel::rayleigh(vec![(0, 1.0)], doppler, 3));
        let noise = g.add(AwgnChannel::from_snr_db(30.0, 9));
        g.chain(&[src, fading, noise]).expect("wiring");
        g.execute(&ExecPlan::batch()).expect("runs");
        let received = g.output(noise).expect("ran").clone();
        let mut rx = ReferenceReceiver::new(params.clone()).expect("valid");
        let got = rx.receive(&received, sent.len()).expect("decodes");
        count_errors(&sent, &got) as f64 / sent.len() as f64
    };
    let slow = run(2.0);
    let fast = run(300.0);
    assert!(fast > slow, "Doppler must hurt: slow {slow}, fast {fast}");
}

#[test]
fn homeplug_robo_mode_defeats_impulsive_noise() {
    // The powerline scenario HomePlug exists for: frequent impulses on top
    // of a decent background SNR. HomePlug 1.0's robust fallback (ROBO) is
    // a rate-1/2 configuration: below the coding threshold it rides out
    // impulse levels that corrupt uncoded bits. (The standard rate-3/4
    // payload mode measurably does NOT beat uncoded under whole-symbol
    // bursts — hard-decision punctured Viterbi multiplies burst errors, a
    // known effect this model reproduces.)
    let mut robo_params = default_params(StandardId::HomePlug10);
    robo_params.conv_code = Some(ofdm_core::fec::ConvSpec::k7_rate_half());
    robo_params.name = "HomePlug ROBO-like (rate 1/2)".into();
    let mut uncoded_params = default_params(StandardId::HomePlug10);
    uncoded_params.conv_code = None;
    uncoded_params.interleaver = ofdm_core::interleave::InterleaverSpec::None;
    uncoded_params.name = "HomePlug uncoded (ablation)".into();

    let sent = random_bits(1200, 21);
    let ber_for = |params: &ofdm_core::params::OfdmParams| -> f64 {
        let mut tx = MotherModel::new(params.clone()).expect("valid");
        let frame = tx.transmit(&sent).expect("tx");
        let mut g = Graph::new();
        let src = g.add(SamplePlayback::new(frame.signal().clone()));
        let ch = g.add(ImpulsiveNoiseChannel::new(28.0, 0.05, 34.0, 17));
        g.chain(&[src, ch]).expect("wiring");
        g.execute(&ExecPlan::batch()).expect("runs");
        let received = g.output(ch).expect("ran").clone();
        let mut rx = ReferenceReceiver::new(params.clone()).expect("valid");
        let got = rx.receive(&received, sent.len()).expect("decodes");
        count_errors(&sent, &got) as f64 / sent.len() as f64
    };

    let robo_ber = ber_for(&robo_params);
    let uncoded_ber = ber_for(&uncoded_params);
    assert_eq!(robo_ber, 0.0, "ROBO mode must ride out the impulses");
    assert!(
        uncoded_ber > 0.0,
        "the impulse train must actually corrupt uncoded bits"
    );
}

#[test]
fn homeplug_hermitian_waveform_is_real_through_the_chain() {
    let params = homeplug10::default_params();
    let sent = random_bits(600, 2);
    let mut tx = MotherModel::new(params).expect("valid");
    let frame = tx.transmit(&sent).expect("tx");
    // A power line carries real voltages; the model must too.
    for z in frame.samples() {
        assert!(z.im.abs() < 1e-9);
    }
}
