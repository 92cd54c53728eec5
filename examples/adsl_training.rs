//! DMT line training: the Mother Model's reconfigurability used *in the
//! loop*. An ADSL modem doesn't ship with a fixed constellation — it
//! measures each tone's SNR over the actual copper pair and loads bits
//! accordingly. Here the whole cycle runs inside the co-simulation:
//!
//! 1. transmit a conservative QPSK probe over the loop model,
//! 2. measure per-tone SNR at the receiver,
//! 3. compute the gap-approximation bit loading,
//! 4. **reconfigure the same Mother Model** with the trained loading,
//! 5. verify the trained configuration decodes error-free and report the
//!    rate gained.
//!
//! Run with: `cargo run --release --example adsl_training`

use ofdm_core::constellation::Modulation;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::symbol::GuardInterval;
use ofdm_core::MotherModel;
use ofdm_rx::demod::OfdmDemodulator;
use ofdm_rx::eq::{equalize, ChannelEstimator};
use ofdm_rx::loading::{gap_loading, to_mother_model_loading, total_bits, ToneSnr};
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::adsl;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;

/// The loop + noise environment shared by probe and showtime.
///
/// Symbol timing is left at the transmit grid: the line filter's causal
/// delay spread (≤ 32 samples) fits the DMT cyclic prefix, and the
/// per-tone channel estimate absorbs its group-delay phase ramp.
/// (Advancing the timing by the group delay would create *pre-cursor*
/// taps the CP cannot protect, raising an ISI floor — the classic DMT
/// timing pitfall.)
fn line_channel(g: &mut Graph, src: BlockId) -> BlockId {
    let line = g.add(DslLineChannel::new(18.0, 300e3));
    let noise = g.add(AwgnChannel::from_snr_db(48.0, 12));
    g.connect(src, line, 0).expect("wiring");
    g.connect(line, noise, 0).expect("wiring");
    noise
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The probe configuration: flat QPSK on every candidate tone.
    let tones: Vec<i32> = (adsl::FIRST_TONE..=adsl::LAST_TONE)
        .filter(|&t| t != adsl::PILOT_TONE)
        .collect();
    let probe_params = OfdmParams::builder("ADSL training probe (flat QPSK)")
        .sample_rate(adsl::SAMPLE_RATE)
        .map(SubcarrierMap::new(adsl::FFT_SIZE, tones.clone(), true)?)
        .guard(GuardInterval::Samples(adsl::GUARD_SAMPLES))
        .modulation(Modulation::Qpsk)
        .build()?;

    let mut modem = MotherModel::new(probe_params.clone())?;
    let n_probe_symbols = 32;
    // The probe payload must be aperiodic: a repeating pattern would make
    // every DMT symbol identical, turning real inter-symbol interference
    // into an invisible circular extension and poisoning the SNR estimate.
    let mut rng = StdRng::seed_from_u64(0xAD51);
    let probe_bits: Vec<u8> = (0..probe_params.nominal_bits_per_symbol() * n_probe_symbols)
        .map(|_| rng.gen_range(0..=1u8))
        .collect();
    let probe = modem.transmit(&probe_bits)?;

    // --- 2. Through the loop, then measure per-tone SNR.
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(probe.signal().clone()));
    let out = line_channel(&mut g, src);
    g.execute(&ExecPlan::batch())?;
    let received = g.output(out).expect("channel ran").clone();

    let demod = OfdmDemodulator::new(probe_params.clone());
    let sym_len = demod.symbol_len();
    // Channel estimation averaged over the first half of the probe (a
    // single-symbol estimate would cap post-equalization SNR and poison
    // the high-bit tones), SNR measurement over the second half.
    let usable = probe.symbol_count();
    let mut estimator = ChannelEstimator::new();
    for s in 0..usable / 2 {
        let cells = demod
            .demodulate_at_parts(received.re(), received.im(), s * sym_len, s)
            .expect("probe symbol present");
        estimator.accumulate(&cells, &probe.symbol_cells()[s]);
    }
    let est = estimator.estimate();
    let mut snr = ToneSnr::new();
    for s in usable / 2..usable {
        let cells = demod
            .demodulate_at_parts(received.re(), received.im(), s * sym_len, s)
            .expect("probe symbol present");
        let eq_cells = equalize(&cells, &est);
        snr.accumulate(&eq_cells, &probe.symbol_cells()[s]);
    }
    println!("tones probed        : {}", snr.tone_count());
    println!(
        "SNR at tone 40/220  : {:.1} / {:.1} dB",
        snr.snr_db(40).unwrap_or(f64::NAN),
        snr.snr_db(220).unwrap_or(f64::NAN),
    );

    // --- 3. Gap loading (Γ = 9.8 dB + the standard 6 dB noise margin).
    let loading = gap_loading(&snr, 15.8, 2, 14);
    let trained_bits_per_symbol = total_bits(&loading);
    let dark = loading.iter().filter(|&&(_, b)| b == 0).count();
    println!("\ntrained loading     : {trained_bits_per_symbol} bits/symbol ({dark} dark tones)");
    let flat_bits = probe_params.nominal_bits_per_symbol();
    println!("flat-QPSK loading   : {flat_bits} bits/symbol");
    println!(
        "rate gain           : {:.2}×",
        trained_bits_per_symbol as f64 / flat_bits as f64
    );

    // --- 4. Reconfigure the SAME modem with the trained loading.
    let (carriers, mods) = to_mother_model_loading(&loading);
    let trained_params = OfdmParams::builder("ADSL showtime (trained loading)")
        .sample_rate(adsl::SAMPLE_RATE)
        .map(SubcarrierMap::new(adsl::FFT_SIZE, carriers, true)?)
        .guard(GuardInterval::Samples(adsl::GUARD_SAMPLES))
        .bit_loading(mods)
        .build()?;
    modem.reconfigure(trained_params.clone())?; // ← the Mother Model moment

    // --- 5. Showtime: transmit at the trained rate, decode through the
    //        same loop with equalization.
    let payload: Vec<u8> = (0..trained_bits_per_symbol * 8)
        .map(|_| rng.gen_range(0..=1u8))
        .collect();
    let frame = modem.transmit(&payload)?;
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let out = line_channel(&mut g, src);
    g.execute(&ExecPlan::batch())?;
    let showtime_rx = g.output(out).expect("channel ran").clone();

    let mut rx = ReferenceReceiver::new(trained_params.clone())?;
    rx.set_channel_estimate(est);
    let decoded = rx.receive(&showtime_rx, payload.len())?;
    let errors = payload.iter().zip(&decoded).filter(|(a, b)| a != b).count();
    let rate_mbps = trained_bits_per_symbol as f64 / trained_params.symbol_duration() / 1e6;
    println!("\nshowtime rate       : {rate_mbps:.2} Mbit/s");
    println!("showtime errors     : {errors}/{} bits", payload.len());
    assert_eq!(errors, 0, "trained loading must decode error-free");
    assert!(
        trained_bits_per_symbol > flat_bits,
        "training must beat flat QPSK on this loop"
    );
    println!("\nOK — measure → reload → reconfigure cycle closed");
    Ok(())
}
