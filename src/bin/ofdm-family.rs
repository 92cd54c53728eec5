//! `ofdm-family` — command-line front end to the Mother Model.
//!
//! ```text
//! ofdm-family list                     # the ten standards
//! ofdm-family info 802.11a            # one preset's parameters
//! ofdm-family loopback dvb-t          # TX → RX bit-exactness check
//! ofdm-family papr dab                # PAPR + CCDF of a transmitted frame
//! ofdm-family spectrum adsl           # ASCII PSD of the line signal
//! ```
//!
//! Run via `cargo run --release --bin ofdm-family -- <command> [standard]`.

use ofdm_core::MotherModel;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::{default_params, StandardId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("info") => with_standard(&args, cmd_info),
        Some("loopback") => with_standard(&args, cmd_loopback),
        Some("papr") => with_standard(&args, cmd_papr),
        Some("spectrum") => with_standard(&args, cmd_spectrum),
        _ => {
            eprintln!(
                "usage: ofdm-family <list | info <std> | loopback <std> | papr <std> | spectrum <std>>"
            );
            eprintln!("standards: {}", keys().join(", "));
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn keys() -> Vec<&'static str> {
    StandardId::ALL.iter().map(|id| id.key()).collect()
}

fn with_standard(
    args: &[String],
    f: fn(StandardId) -> Result<(), Box<dyn std::error::Error>>,
) -> Result<(), Box<dyn std::error::Error>> {
    let key = args
        .get(1)
        .ok_or_else(|| format!("missing standard; one of: {}", keys().join(", ")))?;
    let id = StandardId::from_key(key)
        .ok_or_else(|| format!("unknown standard `{key}`; one of: {}", keys().join(", ")))?;
    f(id)
}

fn cmd_list() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:>7} {:>7} {:>9} {:>12}  name",
        "key", "FFT", "guard", "carriers", "rate (MHz)"
    );
    for id in StandardId::ALL {
        let p = default_params(id);
        println!(
            "{:<10} {:>7} {:>7} {:>9} {:>12.3}  {}",
            id.key(),
            p.map.fft_size(),
            p.guard.samples(p.map.fft_size()),
            p.map.data_count(),
            p.sample_rate / 1e6,
            p.name,
        );
    }
    Ok(())
}

fn cmd_info(id: StandardId) -> Result<(), Box<dyn std::error::Error>> {
    let p = default_params(id);
    println!("name               : {}", p.name);
    println!("sample rate        : {} Hz", p.sample_rate);
    println!("FFT size           : {}", p.map.fft_size());
    println!(
        "guard interval     : {} samples",
        p.guard.samples(p.map.fft_size())
    );
    println!("data carriers      : {}", p.map.data_count());
    println!("carrier spacing    : {:.3} Hz", p.subcarrier_spacing());
    println!("symbol duration    : {:.3} µs", p.symbol_duration() * 1e6);
    println!("real (DMT) output  : {}", p.map.is_hermitian());
    println!("differential       : {}", p.differential);
    println!("bits per symbol    : {}", p.nominal_bits_per_symbol());
    println!("scrambler          : {}", p.scrambler.is_some());
    println!(
        "outer code         : {}",
        p.rs_outer
            .map(|rs| format!("RS({}, {})", rs.n, rs.k))
            .unwrap_or_else(|| "none".into())
    );
    println!(
        "inner code         : {}",
        p.conv_code
            .as_ref()
            .map(|c| {
                let (k, n) = c.rate();
                format!("K={} rate {k}/{n}", c.constraint)
            })
            .unwrap_or_else(|| "none".into())
    );
    println!("preamble elements  : {}", p.preamble.len());
    Ok(())
}

fn frame_for(
    id: StandardId,
    seed: u64,
) -> Result<(ofdm_core::tx::Frame, Vec<u8>), Box<dyn std::error::Error>> {
    let p = default_params(id);
    let mut rng = StdRng::seed_from_u64(seed);
    let bits: Vec<u8> = (0..4 * p.nominal_bits_per_symbol().max(100))
        .map(|_| rng.gen_range(0..=1u8))
        .collect();
    let mut tx = MotherModel::new(p)?;
    let frame = tx.transmit(&bits)?;
    Ok((frame, bits))
}

fn cmd_loopback(id: StandardId) -> Result<(), Box<dyn std::error::Error>> {
    let (frame, sent) = frame_for(id, 1)?;
    let mut rx = ReferenceReceiver::new(default_params(id))?;
    let got = rx.receive(frame.signal(), sent.len())?;
    let errors = sent.iter().zip(&got).filter(|(a, b)| a != b).count();
    println!("payload bits : {}", sent.len());
    println!("OFDM symbols : {}", frame.symbol_count());
    println!("samples      : {}", frame.samples().len());
    println!("bit errors   : {errors}");
    if errors == 0 {
        println!("loopback     : PASS");
        Ok(())
    } else {
        Err("loopback produced bit errors".into())
    }
}

fn cmd_papr(id: StandardId) -> Result<(), Box<dyn std::error::Error>> {
    let (frame, _) = frame_for(id, 2)?;
    println!("mean power : {:.3}", frame.signal().power());
    println!("PAPR       : {:.2} dB", frame.signal().papr_db());
    let thresholds: Vec<f64> = (0..=12).map(|i| i as f64).collect();
    let ccdf = ofdm_dsp::stats::power_ccdf(&frame.samples(), &thresholds);
    println!("\nCCDF (P[power > x dB above average]):");
    for (t, p) in thresholds.iter().zip(&ccdf) {
        let bar = "#".repeat((p * 50.0).round() as usize);
        println!("  {t:>4.0} dB  {p:>9.2e}  {bar}");
    }
    Ok(())
}

fn cmd_spectrum(id: StandardId) -> Result<(), Box<dyn std::error::Error>> {
    let (frame, _) = frame_for(id, 3)?;
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let sa = g.add(SpectrumAnalyzer::new(256));
    g.chain(&[src, sa])?;
    g.execute(&ExecPlan::batch())?;
    let sa_ref = g.block::<SpectrumAnalyzer>(sa).expect("analyzer present");
    let psd = sa_ref.psd_shifted_db().expect("ran");
    println!(
        "occupied bandwidth (99%): {:.4} MHz",
        sa_ref.occupied_bandwidth(0.99).expect("ran") / 1e6
    );
    println!("\nPSD ({} bins → 24 bands):", psd.len());
    let bands = 24usize;
    let chunk = psd.len() / bands;
    for b in 0..bands {
        let slice = &psd[b * chunk..(b + 1) * chunk];
        let f = slice[slice.len() / 2].0;
        let avg: f64 = slice.iter().map(|(_, p)| *p).sum::<f64>() / slice.len() as f64;
        let bar = "#".repeat(((avg + 90.0).max(0.0) / 2.5) as usize);
        println!("{:>9.3} MHz {avg:>7.1} dB  {bar}", f / 1e6);
    }
    Ok(())
}
