//! ADSL downstream scenario: the Mother Model reconfigured to discrete
//! multitone (the paper's third demonstrated standard), driven through a
//! behavioral copper-loop model.
//!
//! Highlights what makes the DMT members of the family different: a
//! Hermitian-symmetric IFFT producing a *real* line signal, and per-tone
//! bit loading instead of one constellation.
//!
//! Run with: `cargo run --release --example adsl_modem`

use ofdm_core::MotherModel;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::adsl;
use rfsim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = adsl::default_params();
    println!("configuration : {}", params.name);
    println!("IFFT size     : {}", params.map.fft_size());
    println!("data tones    : {}", params.map.data_count());
    println!(
        "symbol rate   : {:.0} DMT symbols/s",
        1.0 / params.symbol_duration()
    );
    let bits_per_sym = adsl::bits_per_symbol();
    println!("bits/symbol   : {bits_per_sym}");
    println!(
        "gross rate    : {:.2} Mbit/s",
        bits_per_sym as f64 / params.symbol_duration() / 1e6
    );

    // Bit-loading profile overview.
    let loading = adsl::bit_loading();
    println!("\nbit loading (tone → bits):");
    for (i, chunk) in loading.chunks(32).enumerate() {
        let first = adsl::FIRST_TONE as usize + i * 32;
        let bars: String = chunk
            .iter()
            .map(|m| char::from_digit(m.bits_per_symbol() as u32, 16).unwrap_or('?'))
            .collect();
        println!("  tone {first:>4}: {bars}");
    }

    // Transmit one superframe worth of bits.
    let mut tx = MotherModel::new(params.clone())?;
    let payload: Vec<u8> = (0..8000).map(|i| ((i * 17 + 3) % 7 < 3) as u8).collect();
    let frame = tx.transmit(&payload)?;
    println!("\nDMT symbols   : {}", frame.symbol_count());
    println!("line samples  : {}", frame.samples().len());
    let max_im = frame
        .samples()
        .iter()
        .map(|z| z.im.abs())
        .fold(0.0f64, f64::max);
    println!("max |Im|      : {max_im:.2e}  (real line signal)");
    println!("PAPR          : {:.2} dB", frame.signal().papr_db());

    // Drive it down a behavioral copper loop and measure the slope.
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let line = g.add(DslLineChannel::new(10.0, 300e3));
    let sa = g.add(SpectrumAnalyzer::new(512));
    g.chain(&[src, line, sa])?;
    g.execute(&ExecPlan::batch())?;
    let sa_ref = g.block::<SpectrumAnalyzer>(sa).expect("analyzer present");
    let low = sa_ref.band_power(140e3, 300e3).expect("ran");
    let high = sa_ref.band_power(900e3, 1.06e6).expect("ran");
    println!(
        "\nloop slope    : low band {:.1} dB above high band",
        10.0 * (low / high).log10()
    );

    // Loopback (no channel): the DMT chain is bit-exact.
    let mut rx = ReferenceReceiver::new(params)?;
    let decoded = rx.receive(frame.signal(), payload.len())?;
    let errors = payload.iter().zip(&decoded).filter(|(a, b)| a != b).count();
    println!("loopback      : {errors}/{} bit errors", payload.len());
    assert_eq!(errors, 0);
    println!("OK — ADSL DMT chain verified");
    Ok(())
}
