//! Quickstart: configure the Mother Model as 802.11a, transmit a frame,
//! inspect it, and decode it back with the reference receiver.
//!
//! Run with: `cargo run --release --example quickstart`

use ofdm_core::MotherModel;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::ieee80211a::{self, WlanRate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a standard from the family — here 802.11a at 24 Mbit/s.
    //    The "standard" is nothing but a parameter set.
    let params = ieee80211a::params(WlanRate::Mbps24);
    println!("configuration : {}", params.name);
    println!("FFT size      : {}", params.map.fft_size());
    println!("data carriers : {}", params.map.data_count());
    println!("symbol length : {:.2} µs", params.symbol_duration() * 1e6);

    // 2. Build the transmitter and send random payload bits.
    let mut tx = MotherModel::new(params.clone())?;
    let mut rng = StdRng::seed_from_u64(2005);
    let payload: Vec<u8> = (0..1200).map(|_| rng.gen_range(0..=1u8)).collect();
    let frame = tx.transmit(&payload)?;
    println!("\npayload bits  : {}", frame.payload_bits());
    println!("coded bits    : {}", frame.coded_bits());
    println!("OFDM symbols  : {}", frame.symbol_count());
    println!("samples       : {}", frame.signal().len());
    println!("duration      : {:.2} µs", frame.signal().duration() * 1e6);
    println!("mean power    : {:.3}", frame.signal().power());
    println!("PAPR          : {:.2} dB", frame.signal().papr_db());

    // 3. Decode it back — the loopback is bit-exact.
    let mut rx = ReferenceReceiver::new(params)?;
    let decoded = rx.receive(frame.signal(), payload.len())?;
    let errors = payload.iter().zip(&decoded).filter(|(a, b)| a != b).count();
    println!("\nloopback BER  : {errors}/{} errors", payload.len());
    assert_eq!(errors, 0, "loopback must be error-free");
    println!("OK — transmit/receive chain verified");
    Ok(())
}
