//! Interference studies through the co-simulation: a desired OFDM signal
//! combined with an in-band narrowband interferer — the kind of RF
//! coexistence question the paper's methodology is meant to answer.

use ofdm_core::MotherModel;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::ieee80211a::{self, WlanRate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;

fn random_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
}

/// BER of a coded 802.11a link with a CW interferer at `cir_db`
/// carrier-to-interference ratio, parked at +3.2 MHz.
fn ber_with_interferer(cir_db: f64) -> f64 {
    let params = ieee80211a::params(WlanRate::Mbps12);
    let sent = random_bits(4000, 77);
    let mut tx = MotherModel::new(params.clone()).expect("valid");
    let frame = tx.transmit(&sent).expect("tx");
    let n = frame.signal().len();

    let mut g = Graph::new();
    let desired = g.add(SamplePlayback::new(frame.signal().clone()));
    let jammer = g.add(ToneSource::new(3.2e6, 20e6, n).with_amplitude(10f64.powf(-cir_db / 20.0)));
    let sum = g.add(Combiner::new());
    let noise = g.add(AwgnChannel::from_snr_db(25.0, 5));
    g.connect(desired, sum, 0).expect("wiring");
    g.connect(jammer, sum, 1).expect("wiring");
    g.connect(sum, noise, 0).expect("wiring");
    g.execute(&ExecPlan::batch()).expect("runs");
    let received = g.output(noise).expect("ran").clone();

    let mut rx = ReferenceReceiver::new(params).expect("valid");
    let got = rx.receive(&received, sent.len()).expect("decodes");
    sent.iter().zip(&got).filter(|(a, b)| a != b).count() as f64 / sent.len() as f64
}

#[test]
fn weak_cw_interferer_is_absorbed_by_coding() {
    // A tone 20 dB below the OFDM signal hits a couple of subcarriers;
    // the interleaver spreads the damage and the code removes it.
    assert_eq!(ber_with_interferer(20.0), 0.0);
}

#[test]
fn strong_cw_interferer_breaks_the_link_monotonically() {
    let weak = ber_with_interferer(15.0);
    let strong = ber_with_interferer(-10.0);
    assert!(
        strong > weak,
        "CIR must matter: weak {weak}, strong {strong}"
    );
    assert!(strong > 1e-2, "a dominant tone must corrupt bits: {strong}");
}

#[test]
fn interferer_energy_is_localized_in_frequency() {
    // The spectrum analyzer sees the jammer as a narrow spike on top of
    // the flat OFDM spectrum — the picture an RF designer would check.
    let params = ieee80211a::params(WlanRate::Mbps12);
    let sent = random_bits(4000, 9);
    let mut tx = MotherModel::new(params).expect("valid");
    let frame = tx.transmit(&sent).expect("tx");
    let n = frame.signal().len();

    let mut g = Graph::new();
    let desired = g.add(SamplePlayback::new(frame.signal().clone()));
    let jammer = g.add(ToneSource::new(3.2e6, 20e6, n).with_amplitude(1.0));
    let sum = g.add(Combiner::new());
    let sa = g.add(SpectrumAnalyzer::new(256));
    g.connect(desired, sum, 0).expect("wiring");
    g.connect(jammer, sum, 1).expect("wiring");
    g.connect(sum, sa, 0).expect("wiring");
    g.execute(&ExecPlan::batch()).expect("runs");

    let sa_ref = g.block::<SpectrumAnalyzer>(sa).expect("present");
    let spike = sa_ref.band_power(3.0e6, 3.4e6).expect("ran");
    let reference_band = sa_ref.band_power(-3.4e6, -3.0e6).expect("ran");
    // Equal-width band on the other side holds only OFDM power: the
    // jammer band must dominate it clearly.
    assert!(
        spike > 5.0 * reference_band,
        "spike {spike:.3e} vs reference {reference_band:.3e}"
    );
}
