//! DVB-T broadcast scenario: the Mother Model as a 2k-mode terrestrial TV
//! transmitter, received over a single-frequency-network-style echo
//! channel using its own scattered pilots for channel estimation.
//!
//! Demonstrates the heavyweight family member end to end: RS(204,188) +
//! K=7 coding, 1704 carriers, continual + scattered boosted pilots — and
//! the receiver-side payoff of the scattered grid: accumulating pilots
//! over the 4-symbol stagger covers every 3rd carrier with a direct
//! channel observation.
//!
//! Run with: `cargo run --release --example dvbt_broadcast`

use ofdm_core::constellation::Modulation;
use ofdm_core::MotherModel;
use ofdm_rx::demod::OfdmDemodulator;
use ofdm_rx::eq::ChannelEstimator;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::dvbt::{self, DvbtMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = dvbt::params(DvbtMode::Mode2k, Modulation::Qam(4), 8);
    println!("configuration : {}", params.name);
    println!("used carriers : {}", params.map.data_count());
    println!(
        "symbol        : {:.1} µs ({} + {} samples)",
        params.symbol_duration() * 1e6,
        params.map.fft_size(),
        params.guard.samples(params.map.fft_size()),
    );

    // Transmit a few MPEG-TS packets worth of bits.
    let mut rng = StdRng::seed_from_u64(2005);
    let payload: Vec<u8> = (0..188 * 8 * 12).map(|_| rng.gen_range(0..=1u8)).collect();
    let mut tx = MotherModel::new(params.clone())?;
    let frame = tx.transmit(&payload)?;
    println!("TS payload    : {} bytes", payload.len() / 8);
    println!("OFDM symbols  : {}", frame.symbol_count());

    // SFN-style channel: a strong long echo (inside the 256-sample guard)
    // plus noise.
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let ch = g.add(MultipathChannel::two_ray(180, 0.5));
    let noise = g.add(AwgnChannel::from_snr_db(26.0, 4));
    g.chain(&[src, ch, noise])?;
    g.execute(&ExecPlan::batch())?;
    let received = g.output(noise).expect("channel ran").clone();

    // Receiver: estimate the channel from the boosted pilots only —
    // exactly what a DVB-T receiver has. The 4-symbol stagger fills the
    // grid to one pilot every 3 carriers.
    let demod = OfdmDemodulator::new(params.clone());
    let sym_len = demod.symbol_len();
    let mut estimator = ChannelEstimator::new();
    for s in 0..frame.symbol_count().min(4) {
        let cells = demod
            .demodulate_at(&received.samples(), s * sym_len, s)
            .expect("symbol present");
        let pilots = demod.pilot_cells(s);
        estimator.accumulate(&cells, &pilots);
    }
    let est = estimator.estimate();
    println!("\npilot-estimated carriers : {}", est.len());
    let coverage = est.len() as f64 / params.map.data_count() as f64;
    println!("direct grid coverage     : {:.0} %", coverage * 100.0);

    // The deep SFN echo puts notches in the band; show the estimate sees
    // them.
    let mags: Vec<f64> = (-852..=852)
        .step_by(3)
        .map(|k| est.gain_at(k).abs())
        .collect();
    let max_h = mags.iter().cloned().fold(0.0f64, f64::max);
    let min_h = mags.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "channel magnitude range  : {:.2} … {:.2} ({:.1} dB swing)",
        min_h,
        max_h,
        20.0 * (max_h / min_h).log10()
    );

    // Decode with the pilot-derived estimate; RS mops up the carriers
    // sitting in the notches.
    let mut rx = ReferenceReceiver::new(params)?;
    rx.set_channel_estimate(est);
    let decoded = rx.receive(&received, payload.len())?;
    let errors = payload.iter().zip(&decoded).filter(|(a, b)| a != b).count();
    println!("\ndecoded bit errors       : {errors}/{}", payload.len());
    assert_eq!(errors, 0, "RS + CC must deliver an error-free TS");
    println!("OK — terrestrial chain verified through an SFN echo channel");
    Ok(())
}
