//! The paper's speed argument, measured: behavioral Mother Model vs the
//! RT-level bit-true 802.11a transmitter, inside and outside a full RF
//! system simulation.
//!
//! "Since the digital block was modeled at behavioral level, it was fast
//! to simulate i.e. it had only negligible influence to the total
//! simulation time of the whole transmitter" — this example reproduces
//! that comparison on your machine.
//!
//! Run with: `cargo run --release --example behavioral_vs_rtl`

use ofdm_core::source::OfdmSource;
use ofdm_core::MotherModel;
use ofdm_rtl::Tx80211aRtl;
use ofdm_standards::ieee80211a::{self, WlanRate};
use rfsim::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rate = WlanRate::Mbps12;
    let payload: Vec<u8> = (0..4800).map(|i| ((i * 11) % 3 == 0) as u8).collect();

    // (a) Behavioral transmitter alone.
    let mut beh = MotherModel::new(ieee80211a::params(rate))?;
    let t = Instant::now();
    let frame_b = beh.transmit(&payload)?;
    let t_beh = t.elapsed();

    // (b) RT-level transmitter alone (bit-true, cycle-scheduled).
    let rtl = Tx80211aRtl::new(rate);
    let t = Instant::now();
    let frame_r = rtl.transmit(&payload);
    let t_rtl = t.elapsed();

    // Functional equivalence first (they must produce the same waveform).
    let max_dev = frame_b
        .signal()
        .samples()
        .iter()
        .zip(&frame_r.samples)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0f64, f64::max);

    // (c) Full RF simulation without a digital source (a tone instead).
    let run_rf = |g: &mut Graph, src: BlockId| -> Result<(), SimError> {
        let dac = g.add(Dac::new(10, 4.0));
        let lo = g.add(LocalOscillator::new(0.0, 100.0, 3));
        let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
        let sa = g.add(SpectrumAnalyzer::new(256));
        g.chain(&[src, dac, lo, pa, sa])?;
        g.execute(&ExecPlan::batch()).map(|_| ())
    };
    let n_samples = frame_b.signal().len();
    let mut g_tone = Graph::new();
    let tone = g_tone.add(ToneSource::new(1e6, 20e6, n_samples));
    let t = Instant::now();
    run_rf(&mut g_tone, tone)?;
    let t_rf_tone = t.elapsed();

    // (d) Full RF simulation with the behavioral OFDM source.
    let mut g_ofdm = Graph::new();
    let src = g_ofdm.add(OfdmSource::new(ieee80211a::params(rate), payload.len(), 1)?);
    let t = Instant::now();
    run_rf(&mut g_ofdm, src)?;
    let t_rf_ofdm = t.elapsed();

    println!("payload: {} bits → {} samples\n", payload.len(), n_samples);
    println!("behavioral TX alone      : {t_beh:>12.2?}");
    println!(
        "RT-level TX alone        : {t_rtl:>12.2?}   ({} clock cycles)",
        frame_r.cycles
    );
    println!("RF sim with tone source  : {t_rf_tone:>12.2?}");
    println!("RF sim with OFDM source  : {t_rf_ofdm:>12.2?}");
    println!();
    println!(
        "RT-level / behavioral    : {:>8.1}×",
        t_rtl.as_secs_f64() / t_beh.as_secs_f64().max(1e-9)
    );
    println!(
        "OFDM-source overhead on the RF sim: {:+.1} %",
        (t_rf_ofdm.as_secs_f64() / t_rf_tone.as_secs_f64() - 1.0) * 100.0
    );
    println!("behavioral vs RTL max sample deviation: {max_dev:.2e}");

    assert!(max_dev < 0.02, "models must agree functionally");
    Ok(())
}
