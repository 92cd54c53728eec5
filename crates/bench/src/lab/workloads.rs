//! Workload kernels for the experiment lab.
//!
//! Each kernel is a pure function of `(cell config, seed)` returning a
//! flat list of [`Metric`]s; the legacy E1–E13 experiment bodies live
//! here, parameterized by [`CellCfg`] fields so the spec files under
//! `examples/lab/` can reproduce them bit-identically (the legacy seeds
//! are spec data, not code). Wall-clock measurements are emitted as
//! [`Metric::volatile`] and never enter the byte-stable `lab/v1` cells.
//!
//! The service kernels (E12/E13) drive the real `rfsim-server` /
//! `rfsim-cli` binaries over TCP — the bench crate sits *below*
//! `ofdm-server` in the dependency graph, so the cross-process contract
//! is exercised the same way `ci.sh` does it: as sibling processes,
//! located next to the current executable (override with
//! `RFSIM_BIN_DIR`).

use super::{CellCfg, Metric};
use crate::waterfall::{
    measure_ber_point, run_waterfall, waterfall_json, ChannelProfile, WaterfallSpec,
};
use crate::{
    evm_after_gain_correction, loopback_errors, payload_bits, time_per_run, transmit_frame,
};
use ofdm_core::source::OfdmSource;
use ofdm_core::MotherModel;
use ofdm_rtl::{FxFormat, Tx80211aRtl};
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::ieee80211a::{self, WlanRate};
use ofdm_standards::{dab, default_params, StandardId};
use rfsim::prelude::*;
use serde::json::Value;
use std::path::PathBuf;
use std::time::Duration;

/// Dispatches a cell to its workload kernel.
///
/// # Errors
///
/// Unknown workload names, malformed config fields, or kernel failures.
pub fn run(name: &str, cfg: &CellCfg, seed: u64) -> Result<Vec<Metric>, String> {
    match name {
        "loopback" => loopback(cfg, seed),
        "rf_cosim" => rf_cosim(cfg),
        "tx_timing" => tx_timing(cfg),
        "design_effort" => design_effort(cfg),
        "rtl_equivalence" => rtl_equivalence(cfg),
        "evm_chain" => evm_chain(cfg),
        "coded_ber" => coded_ber(cfg),
        "doppler_ber" => doppler_ber(cfg),
        "fault_sweep" => fault_sweep_metrics(),
        "watchdog" => watchdog(cfg),
        "breaker_degraded" => breaker_degraded(),
        "breaker_fail_fast" => breaker_fail_fast(),
        "checkpoint_resume" => checkpoint_resume(cfg, seed),
        "ber_grid" => ber_grid(cfg),
        "service_roundtrip" => service(cfg, seed, false),
        "service_chaos" => service(cfg, seed, true),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn standard(cfg: &CellCfg) -> Result<StandardId, String> {
    let key = cfg.str("standard")?;
    StandardId::from_key(key).ok_or_else(|| format!("unknown standard `{key}`"))
}

fn wlan_rate(cfg: &CellCfg, default: WlanRate) -> Result<WlanRate, String> {
    let name = cfg.str_or("rate", "")?;
    if name.is_empty() {
        return Ok(default);
    }
    WlanRate::ALL
        .iter()
        .copied()
        .find(|r| format!("{r:?}") == name)
        .ok_or_else(|| format!("unknown 802.11a rate `{name}`"))
}

fn bool_or(cfg: &CellCfg, key: &str, default: bool) -> Result<bool, String> {
    match cfg.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("field `{key}` is not a boolean")),
    }
}

// ---------------------------------------------------------------------
// E1 — reconfiguration matrix: zero-error loopback per standard.
// ---------------------------------------------------------------------

fn loopback(cfg: &CellCfg, seed: u64) -> Result<Vec<Metric>, String> {
    let id = standard(cfg)?;
    let p = default_params(id);
    // Legacy E1 fills ≥4 OFDM symbols so PAPR reflects random data.
    let n_bits = cfg.usize_or("n_bits", 4 * p.nominal_bits_per_symbol().max(100))?;
    let payload_seed = cfg.u64_or("payload_seed", seed)?;
    let frame = transmit_frame(&p, n_bits, payload_seed);
    let errors = loopback_errors(&p, n_bits, payload_seed);
    Ok(vec![
        Metric::new("loopback_errors", errors as f64),
        Metric::new("papr_db", frame.signal().papr_db()),
        Metric::new("fft_size", p.map.fft_size() as f64),
        Metric::new("guard_samples", p.guard.samples(p.map.fft_size()) as f64),
        Metric::new("data_carriers", p.map.data_count() as f64),
        Metric::new("fs_mhz", p.sample_rate / 1e6),
        Metric::new("t_sym_us", p.symbol_duration() * 1e6),
    ])
}

// ---------------------------------------------------------------------
// E2 — RF co-simulation: OBW, out-of-band regrowth and EVM through a
// 4x-oversampled Rapp PA lineup, per standard × input back-off.
// ---------------------------------------------------------------------

fn rf_cosim(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    use ofdm_dsp::resample::Resampler;
    use ofdm_dsp::spectrum::band_power;

    let id = standard(cfg)?;
    let ibo_db = cfg.f64("ibo_db")?;
    let payload_seed = cfg.u64_or("payload_seed", 5)?;
    let n_symbols = cfg.usize_or("n_symbols", 6)?;
    let p = default_params(id);
    let frame = transmit_frame(
        &p,
        n_symbols * p.nominal_bits_per_symbol().max(100),
        payload_seed,
    );

    // The nominal occupied band from the carrier allocation.
    let spacing = p.subcarrier_spacing();
    let carriers = p.map.data_carriers();
    let f_hi = (*carriers.last().ok_or("empty carrier map")? as f64 + 1.0) * spacing;
    let f_lo = if p.map.is_hermitian() {
        // A real line signal occupies ± the tone band.
        -f_hi
    } else {
        (carriers[0] as f64 - 1.0) * spacing
    };

    // 4× oversampled path: spectral regrowth lands inside Nyquist.
    let mut up = Resampler::new(4, 1, 16);
    let oversampled = Signal::new(up.process(&frame.samples()), p.sample_rate * 4.0);

    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(oversampled.clone()));
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(ibo_db));
    let sa = g.add(SpectrumAnalyzer::new(512));
    g.chain(&[src, pa, sa]).map_err(|e| e.to_string())?;
    g.execute(&ExecPlan::batch()).map_err(|e| e.to_string())?;
    let sa_ref = g.block::<SpectrumAnalyzer>(sa).ok_or("analyzer missing")?;
    let psd = sa_ref.psd().ok_or("analyzer never ran")?.to_vec();
    let fs = p.sample_rate * 4.0;
    let total = band_power(&psd, fs, -fs / 2.0, fs / 2.0);
    let in_band = band_power(&psd, fs, f_lo, f_hi);
    let oob_db = 10.0 * ((total - in_band).max(1e-20) / total).log10();

    // EVM at baseband rate (the PA is memoryless, so EVM is rate
    // independent).
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(ibo_db));
    g.chain(&[src, pa]).map_err(|e| e.to_string())?;
    g.execute(&ExecPlan::batch()).map_err(|e| e.to_string())?;
    let out = g.output(pa).ok_or("pa never ran")?.clone();
    let evm_db = evm_after_gain_correction(&p, &frame, &out, 4);

    // Occupied bandwidth of the clean oversampled signal.
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(oversampled));
    let sa = g.add(SpectrumAnalyzer::new(512));
    g.chain(&[src, sa]).map_err(|e| e.to_string())?;
    g.execute(&ExecPlan::batch()).map_err(|e| e.to_string())?;
    let obw = g
        .block::<SpectrumAnalyzer>(sa)
        .ok_or("analyzer missing")?
        .occupied_bandwidth(0.99)
        .ok_or("analyzer never ran")?;

    Ok(vec![
        Metric::new("obw_mhz", obw / 1e6),
        Metric::new("oob_db", oob_db),
        Metric::new("evm_db", evm_db),
    ])
}

// ---------------------------------------------------------------------
// E3 — behavioral vs RT-level simulation time, and batch vs streaming
// scheduling. Everything here is wall clock, hence volatile.
// ---------------------------------------------------------------------

fn tx_timing(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    let rate = wlan_rate(cfg, WlanRate::Mbps12)?;
    let n_symbols = cfg.usize_or("n_symbols", 50)?;
    let iters = cfg.usize_or("iters", 3)?;
    let bits = n_symbols * rate.n_cbps() / 2 - 6; // rate 1/2, minus tail
    let payload = payload_bits(bits, cfg.u64_or("payload_seed", 3)?);

    let mut beh = MotherModel::new(ieee80211a::params(rate)).map_err(|e| e.to_string())?;
    let t_beh = time_per_run(
        || {
            beh.transmit(&payload).expect("transmits");
        },
        iters,
    );
    let rtl = Tx80211aRtl::new(rate);
    let t_rtl = time_per_run(
        || {
            rtl.transmit(&payload);
        },
        iters,
    );

    let n_samples = 320 + n_symbols * 80;
    let rf_once = |use_ofdm: bool| -> f64 {
        time_per_run(
            || {
                let mut g = Graph::new();
                let src = if use_ofdm {
                    g.add(OfdmSource::new(ieee80211a::params(rate), bits, 1).expect("valid preset"))
                } else {
                    g.add(ToneSource::new(1e6, 20e6, n_samples))
                };
                let dac = g.add(Dac::new(10, 4.0));
                let lo = g.add(LocalOscillator::new(0.0, 100.0, 3));
                let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
                let sa = g.add(SpectrumAnalyzer::new(256));
                g.chain(&[src, dac, lo, pa, sa]).expect("wires");
                g.execute(&ExecPlan::batch()).expect("runs");
            },
            iters,
        )
    };
    let t_rf_tone = rf_once(false);
    let t_rf_ofdm = rf_once(true);

    // Batch vs chunked streaming on a streaming-capable chain
    // (80-sample chunks ≙ one symbol).
    let chain_once = |streaming: bool| -> f64 {
        time_per_run(
            || {
                let mut g = Graph::new();
                let src = g
                    .add(OfdmSource::new(ieee80211a::params(rate), bits, 1).expect("valid preset"));
                let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
                let meter = g.add(PowerMeter::new());
                g.chain(&[src, pa, meter]).expect("wires");
                if streaming {
                    g.execute(&ExecPlan::streaming(80)).expect("runs");
                } else {
                    g.execute(&ExecPlan::batch()).expect("runs");
                }
            },
            iters,
        )
    };
    let t_batch = chain_once(false);
    let t_stream = chain_once(true);

    Ok(vec![
        Metric::new("bits", bits as f64),
        Metric::volatile("t_behavioral_s", t_beh),
        Metric::volatile("t_rtl_s", t_rtl),
        Metric::volatile("rtl_over_behavioral", t_rtl / t_beh.max(1e-12)),
        Metric::volatile("t_rf_tone_s", t_rf_tone),
        Metric::volatile("t_rf_ofdm_s", t_rf_ofdm),
        Metric::volatile("t_batch_s", t_batch),
        Metric::volatile("t_stream_s", t_stream),
        Metric::volatile("stream_over_batch", t_stream / t_batch.max(1e-12)),
    ])
}

// ---------------------------------------------------------------------
// E4 — design-effort proxy: a standard is a parameter set.
// ---------------------------------------------------------------------

fn design_effort(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    let id = standard(cfg)?;
    let p = default_params(id);
    let mut mechanisms = 0usize;
    if p.map.is_hermitian() {
        mechanisms += 1;
    }
    if p.differential {
        mechanisms += 1;
    }
    if !p.pilots.is_none() {
        mechanisms += 1;
    }
    if p.scrambler.is_some() {
        mechanisms += 1;
    }
    if p.rs_outer.is_some() {
        mechanisms += 1;
    }
    if p.conv_code.is_some() {
        mechanisms += 1;
    }
    if !matches!(p.interleaver, ofdm_core::interleave::InterleaverSpec::None) {
        mechanisms += 1;
    }
    if !p.preamble.is_empty() {
        mechanisms += 1;
    }
    Ok(vec![
        Metric::new("preset_debug_bytes", format!("{p:?}").len() as f64),
        Metric::new("mechanism_count", mechanisms as f64),
    ])
}

// ---------------------------------------------------------------------
// E5 — behavioral ↔ bit-true RTL equivalence vs datapath wordlength.
// ---------------------------------------------------------------------

fn rtl_equivalence(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    let rate = wlan_rate(cfg, WlanRate::Mbps12)?;
    let word = cfg.u64("word_bits")? as u32;
    let frac = cfg.u64("frac_bits")? as u32;
    let n_bits = cfg.usize_or("n_bits", 960)?;
    let payload = payload_bits(n_bits, cfg.u64_or("payload_seed", 21)?);

    let mut beh = MotherModel::new(ieee80211a::params(rate)).map_err(|e| e.to_string())?;
    let frame_b = beh.transmit(&payload).map_err(|e| e.to_string())?;
    let rtl = Tx80211aRtl::new(rate).with_format(FxFormat::new(word, frac));
    let frame_r = rtl.transmit(&payload);
    let mut max_d = 0.0f64;
    let mut err2 = 0.0f64;
    let mut dot = 0.0f64;
    let mut pb = 0.0f64;
    let mut pr = 0.0f64;
    for (b, r) in frame_b.samples().iter().zip(&frame_r.samples) {
        let d = (*b - *r).abs();
        max_d = max_d.max(d);
        err2 += d * d;
        dot += (b.conj() * *r).re;
        pb += b.norm_sqr();
        pr += r.norm_sqr();
    }
    let rms = (err2 / frame_b.samples().len() as f64).sqrt();
    let corr = dot / (pb * pr).sqrt();
    Ok(vec![
        Metric::new("max_abs_err", max_d),
        Metric::new("rms_err", rms),
        Metric::new("correlation", corr),
    ])
}

// ---------------------------------------------------------------------
// E6 / E9(b) — EVM through one configurable impairment: a Rapp PA at a
// given back-off, a phase-noisy LO, or a sample dropper.
// ---------------------------------------------------------------------

fn evm_chain(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    let rate = wlan_rate(cfg, WlanRate::Mbps54)?;
    let p = ieee80211a::params(rate);
    let n_bits = cfg.usize_or("n_bits", 12_000)?;
    let frame = transmit_frame(&p, n_bits, cfg.u64_or("payload_seed", 9)?);
    let evm_symbols = cfg.usize_or("evm_symbols", 6)?;

    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let tail = match cfg.str("impairment")? {
        "pa" => g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(cfg.f64("ibo_db")?)),
        "lo" => g.add(LocalOscillator::new(
            0.0,
            cfg.f64("linewidth_hz")?,
            cfg.u64_or("lo_seed", 13)?,
        )),
        "dropper" => g.add(SampleDropper::new(
            cfg.f64("drop_rate")?,
            cfg.u64_or("drop_seed", 7)?,
        )),
        other => return Err(format!("unknown impairment `{other}` (pa, lo, dropper)")),
    };
    g.chain(&[src, tail]).map_err(|e| e.to_string())?;
    g.execute(&ExecPlan::batch()).map_err(|e| e.to_string())?;
    let out = g.output(tail).ok_or("impairment never ran")?;
    Ok(vec![Metric::new(
        "evm_db",
        evm_after_gain_correction(&p, &frame, out, evm_symbols),
    )])
}

// ---------------------------------------------------------------------
// E7 — coded vs uncoded BER over AWGN (the coding-gain waterfall).
// ---------------------------------------------------------------------

fn coded_ber(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    let rate = wlan_rate(cfg, WlanRate::Mbps12)?;
    let snr_db = cfg.f64("snr_db")?;
    let coded = bool_or(cfg, "coded", true)?;
    let n_bits = cfg.usize_or("n_bits", 48_000)?;
    let sent = payload_bits(n_bits, cfg.u64_or("payload_seed", 77)?);
    // Legacy E7 seeds the channel as a function of the SNR alone.
    let noise_seed =
        cfg.u64_or("noise_seed_base", if coded { 2000 } else { 1000 })? + snr_db as u64;

    let mut params = ieee80211a::params(rate);
    if !coded {
        params.conv_code = None;
        params.interleaver = ofdm_core::interleave::InterleaverSpec::None;
        params.name = "802.11a QPSK uncoded".into();
    }
    let mut tx = MotherModel::new(params.clone()).map_err(|e| e.to_string())?;
    let frame = tx.transmit(&sent).map_err(|e| e.to_string())?;
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let ch = g.add(AwgnChannel::from_snr_db(snr_db, noise_seed));
    g.chain(&[src, ch]).map_err(|e| e.to_string())?;
    g.execute(&ExecPlan::batch()).map_err(|e| e.to_string())?;
    let received = g.output(ch).ok_or("channel never ran")?.clone();
    let mut rx = ReferenceReceiver::new(params).map_err(|e| e.to_string())?;
    let got = rx
        .receive(&received, sent.len())
        .map_err(|e| e.to_string())?;
    let errors = sent.iter().zip(&got).filter(|(a, b)| a != b).count();
    Ok(vec![Metric::new("ber", errors as f64 / n_bits as f64)])
}

// ---------------------------------------------------------------------
// E8 — DAB mobile reception: differential DQPSK BER vs Doppler over a
// two-tap Rayleigh channel.
// ---------------------------------------------------------------------

fn doppler_ber(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    let doppler_hz = cfg.f64("doppler_hz")?;
    let params = dab::params(match cfg.str_or("tx_mode", "I")? {
        "I" => dab::TxMode::I,
        "II" => dab::TxMode::II,
        "III" => dab::TxMode::III,
        "IV" => dab::TxMode::IV,
        other => return Err(format!("unknown DAB TxMode `{other}`")),
    });
    let n_bits = cfg.usize_or("n_bits", 6000)?;
    let sent = payload_bits(n_bits, cfg.u64_or("payload_seed", 31)?);
    let paths = cfg.pairs_or("fading_paths", &[(0.0, 0.7), (30.0, 0.3)])?;
    let taps: Vec<(usize, f64)> = paths.iter().map(|&(d, p)| (d as usize, p)).collect();

    let mut tx = MotherModel::new(params.clone()).map_err(|e| e.to_string())?;
    let frame = tx.transmit(&sent).map_err(|e| e.to_string())?;
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::new(frame.signal().clone()));
    let fading = g.add(FadingChannel::rayleigh(
        taps,
        doppler_hz,
        cfg.u64_or("fading_seed", 3)?,
    ));
    let noise = g.add(AwgnChannel::from_snr_db(
        cfg.f64_or("snr_db", 28.0)?,
        cfg.u64_or("noise_seed", 9)?,
    ));
    g.chain(&[src, fading, noise]).map_err(|e| e.to_string())?;
    g.execute(&ExecPlan::batch()).map_err(|e| e.to_string())?;
    let received = g.output(noise).ok_or("channel never ran")?;
    let mut rx = ReferenceReceiver::new(params).map_err(|e| e.to_string())?;
    let got = rx
        .receive(received, sent.len())
        .map_err(|e| e.to_string())?;
    let errors = sent.iter().zip(&got).filter(|(a, b)| a != b).count();
    Ok(vec![
        Metric::new("ber", errors as f64 / n_bits as f64),
        // VHF band III ≈ 200 MHz: v = f_d·c/f ≈ f_d · 5.4 km/h per Hz.
        Metric::new("speed_kmh", doppler_hz * 5.4),
    ])
}

// ---------------------------------------------------------------------
// E9(a) — the 64-scenario fault-injection sweep.
// ---------------------------------------------------------------------

/// The 64-scenario fault-injection sweep behind E9 and the bench JSON: a
/// deterministic mix of clean, panicking, NaN-emitting and
/// sample-dropping scenarios, with the [`FaultPlan`] rotating over three
/// wrapped block types (soft-clip PA, Rapp PA, AWGN channel). Panicking
/// scenarios recover on their retry (reseeded with a zero panic rate);
/// NaN scenarios trip the pass's non-finite guard on every attempt and
/// end `Faulted`.
pub fn run_fault_sweep() -> (Vec<ScenarioOutcome<f64>>, SweepReport) {
    // The injected panics are caught and accounted by the runner; the
    // default hook would still print 16 backtraces into the report. Mute
    // it for the sweep (the worker threads are the only panickers here).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = SweepPlan::new(64).with_retry(RetryPolicy::retries(1)).run(
        |i, attempt, _ctx| -> Result<f64, SimError> {
            let seed = scenario_seed(0xFA17, i) ^ u64::from(attempt);
            let plan = match i % 4 {
                0 => FaultPlan::new(),
                1 => FaultPlan::new().with_panic_rate(if attempt == 0 { 1.0 } else { 0.0 }),
                2 => FaultPlan::new().with_nan_rate(1.0),
                _ => FaultPlan::new().with_drop_rate(0.25),
            };
            let mut g = Graph::new();
            let src = g.add(ToneSource::new(1.0e6, 20.0e6, 2048));
            let impaired = match (i / 4) % 3 {
                0 => g.add(plan.wrap(seed, SoftClipPa::new(1.0))),
                1 => g.add(plan.wrap(seed, RappPa::new(1.0, 3.0))),
                _ => g.add(plan.wrap(seed, AwgnChannel::from_snr_db(30.0, seed))),
            };
            let meter = g.add(PowerMeter::new());
            g.chain(&[src, impaired, meter])?;
            g.execute(&ExecPlan::batch().guard_non_finite(true))?;
            Ok(g.block::<PowerMeter>(meter)
                .expect("present")
                .power()
                .expect("ran"))
        },
    );
    std::panic::set_hook(prev_hook);
    result
}

fn fault_sweep_metrics() -> Result<Vec<Metric>, String> {
    let (outcomes, report) = run_fault_sweep();
    let faults = report.faults.ok_or("resilient sweep reported no faults")?;
    Ok(vec![
        Metric::new("outcomes", outcomes.len() as f64),
        Metric::new("succeeded", faults.succeeded as f64),
        Metric::new("retried", faults.retried as f64),
        Metric::new("faulted", faults.faulted as f64),
        Metric::new("panics_caught", faults.panics_caught as f64),
        Metric::new("errors_caught", faults.errors_caught as f64),
        Metric::new("survival_rate", faults.survival_rate()),
    ])
}

// ---------------------------------------------------------------------
// E10 — supervised execution: watchdog, breakers, checkpoint/resume.
// ---------------------------------------------------------------------

/// Mean tone power through an AWGN channel and a soft limiter — the
/// deterministic per-`(seed, index)` scenario the supervision kernels
/// and the bench snapshot share.
///
/// # Errors
///
/// Graph wiring or execution failures (none in practice — the chain is
/// clean).
pub fn e10_scenario_power(seed: u64, i: usize) -> Result<f64, SimError> {
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e6, 20.0e6, 1024));
    let ch = g.add(AwgnChannel::from_snr_db(
        10.0 + i as f64,
        scenario_seed(seed, i),
    ));
    let pa = g.add(SoftClipPa::new(1.0));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, ch, pa, meter])?;
    g.execute(&ExecPlan::batch())?;
    Ok(g.block::<PowerMeter>(meter)
        .expect("present")
        .power()
        .expect("ran"))
}

fn watchdog(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    let count = cfg.usize_or("scenarios", 16)?;
    let hang_every = cfg.usize_or("hang_every", 4)?.max(1);
    let budget = Duration::from_millis(cfg.u64_or("budget_ms", 300)?);
    let power_seed = cfg.u64_or("power_seed", 0xE10)?;
    let supervisor = SweepSupervisor::new()
        .with_scenario_budget(budget)
        .with_poll_interval(Duration::from_millis(cfg.u64_or("poll_ms", 2)?));
    let started = std::time::Instant::now();
    let (outcomes, report) = SweepPlan::new(count)
        .threads(cfg.usize_or("threads", 4)?.max(1))
        .with_supervisor(supervisor)
        .run(|i, _attempt, ctx| -> Result<f64, SimError> {
            if i % hang_every == hang_every - 1 {
                let mut g = Graph::new();
                let src = g.add(StalledSource::new(20.0e6, Duration::from_millis(2)));
                let pa = g.add(SoftClipPa::new(1.0));
                g.chain(&[src, pa])?;
                g.execute(&ctx.supervise(ExecPlan::streaming(64)))?;
            }
            e10_scenario_power(power_seed, i)
        });
    let faults = report.faults.ok_or("supervised sweep reported no faults")?;
    let sup = report
        .supervision
        .ok_or("supervised sweep reported no supervision")?;
    Ok(vec![
        Metric::new("outcomes", outcomes.len() as f64),
        Metric::new("succeeded", faults.succeeded as f64),
        Metric::new("faulted", faults.faulted as f64),
        Metric::new("deadline_kills", sup.deadline_kills as f64),
        Metric::volatile("wall_s", started.elapsed().as_secs_f64()),
    ])
}

fn breaker_degraded() -> Result<Vec<Metric>, String> {
    // A clean reference pass for the exact-pass-through comparison.
    let mut clean = Graph::new();
    let src = clean.add(ToneSource::new(1.0e6, 20.0e6, 4096));
    let pa = clean.add(SoftClipPa::new(1.0));
    clean.chain(&[src, pa]).map_err(|e| e.to_string())?;
    clean.probe(pa).map_err(|e| e.to_string())?;
    clean
        .execute(&ExecPlan::streaming(256))
        .map_err(|e| e.to_string())?;
    let clean_out = clean.output(pa).ok_or("probe never ran")?.clone();

    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e6, 20.0e6, 4096));
    let bad = g.add(
        FaultPlan::new()
            .with_error_rate(1.0)
            .wrap(0xB10, NanInjector::new(1.0, 7)),
    );
    let pa = g.add(SoftClipPa::new(1.0));
    g.chain(&[src, bad, pa]).map_err(|e| e.to_string())?;
    g.probe(pa).map_err(|e| e.to_string())?;
    let plan = ExecPlan::streaming(256)
        .with_telemetry(true)
        .with_breaker_policy(Some(BreakerPolicy::new().with_threshold(1)));
    let run = g
        .execute(&plan)
        .map_err(|e| e.to_string())?
        .ok_or("telemetry was requested")?;
    let out = g.output(pa).ok_or("probe never ran")?;
    let exact = out.samples() == clean_out.samples();
    Ok(vec![
        Metric::new(
            "health_degraded",
            if run.health == Health::Degraded {
                1.0
            } else {
                0.0
            },
        ),
        Metric::new("breaker_trips", run.breaker_trips as f64),
        Metric::new("bypassed_invocations", run.bypassed_invocations as f64),
        Metric::new("passthrough_exact", if exact { 1.0 } else { 0.0 }),
    ])
}

fn breaker_fail_fast() -> Result<Vec<Metric>, String> {
    // An essential block (here the source) is never bypassed: once its
    // breaker opens, runs fail fast without touching the graph.
    let mut g = Graph::new();
    let src = g.add(
        FaultPlan::new()
            .with_error_rate(1.0)
            .wrap(0xE55, ToneSource::new(1.0e6, 20.0e6, 256)),
    );
    let pa = g.add(SoftClipPa::new(1.0));
    g.chain(&[src, pa]).map_err(|e| e.to_string())?;
    let plan = ExecPlan::batch().with_breaker_policy(Some(BreakerPolicy::new().with_threshold(2)));
    for _ in 0..2 {
        if g.execute(&plan).is_ok() {
            return Err("injector unexpectedly succeeded".into());
        }
    }
    let open_fail_fast = match g.execute(&plan) {
        Err(SimError::BlockFault { fault, .. }) if fault.contains("circuit breaker open") => 1.0,
        _ => 0.0,
    };
    Ok(vec![Metric::new("open_fail_fast", open_fail_fast)])
}

fn checkpoint_resume(cfg: &CellCfg, seed: u64) -> Result<Vec<Metric>, String> {
    let count = cfg.usize_or("scenarios", 12)?;
    let power_seed = cfg.u64_or("power_seed", 0xC10)?;
    let path = std::env::temp_dir().join(format!(
        "rfsim-lab-resume-{}-{seed:x}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    // The uninterrupted reference never touches disk.
    let mut reference = SweepCheckpoint::load_or_new("/nonexistent/lab-reference", "lab", count);
    let plan = SweepPlan::new(count).threads(cfg.usize_or("threads", 4)?.max(1));
    let (uninterrupted, _) = plan.run_checkpointed(&mut reference, |i, _attempt, _ctx| {
        e10_scenario_power(power_seed, i)
    });
    // Front half persists, back half "crashes".
    let mut ckpt = SweepCheckpoint::load_or_new(&path, "lab", count).with_batch(4);
    let _ = plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| {
        if i >= count / 2 {
            return Err(SimError::BlockFailure {
                block: "lab".into(),
                message: "interrupted".into(),
            });
        }
        e10_scenario_power(power_seed, i)
    });
    drop(ckpt);
    let mut ckpt = SweepCheckpoint::load_or_new(&path, "lab", count);
    let persisted = ckpt.len();
    let (resumed, resumed_report) = plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| {
        e10_scenario_power(power_seed, i)
    });
    let resumed_count = resumed_report
        .supervision
        .ok_or("checkpointed sweep reported no supervision")?
        .resumed;
    let succeeded = resumed_report
        .faults
        .ok_or("checkpointed sweep reported no faults")?
        .succeeded;
    let identical = uninterrupted.len() == resumed.len()
        && uninterrupted
            .iter()
            .zip(&resumed)
            .all(|(a, b)| a.result() == b.result());
    ckpt.discard().map_err(|e| format!("checkpoint: {e}"))?;
    Ok(vec![
        Metric::new("persisted", persisted as f64),
        Metric::new("resumed", resumed_count as f64),
        Metric::new("succeeded", succeeded as f64),
        Metric::new("outcomes_identical", if identical { 1.0 } else { 0.0 }),
    ])
}

// ---------------------------------------------------------------------
// E11 — one (standard, SNR) waterfall grid cell, bit-identical to
// `run_waterfall`'s tallies for the same grid geometry and seed.
// ---------------------------------------------------------------------

fn ber_grid(cfg: &CellCfg) -> Result<Vec<Metric>, String> {
    let id = standard(cfg)?;
    let snr_db = cfg.f64("snr_db")?;
    let grid_seed = cfg.u64("grid_seed")?;
    let std_index = cfg.usize_or("std_index", 0)?;
    let snr_index = cfg.usize_or("snr_index", 0)?;
    let n_snr = cfg.usize_or("n_snr", 1)?.max(1);
    let realizations = cfg.usize_or("realizations", 1)?.max(1);
    let n_payload = cfg.u64("payload_bits")? as usize;
    let profile = match cfg.str_or("profile", "awgn")? {
        "awgn" => ChannelProfile::Awgn,
        "rayleigh" => {
            let paths = cfg.pairs_or("fading_paths", &[])?;
            if paths.is_empty() {
                return Err("rayleigh profile needs `fading_paths`".into());
            }
            ChannelProfile::Rayleigh {
                paths: paths.iter().map(|&(d, p)| (d as usize, p)).collect(),
            }
        }
        other => return Err(format!("unknown profile `{other}` (awgn, rayleigh)")),
    };
    let params = default_params(id);
    let mut errors = 0u64;
    let mut bits = 0u64;
    for r in 0..realizations {
        // The legacy flat grid index: realization fastest, SNR next,
        // standard slowest — reproducing `run_waterfall`'s seed stream.
        let flat = (std_index * n_snr + snr_index) * realizations + r;
        let (e, b) = measure_ber_point(
            &params,
            &profile,
            snr_db,
            n_payload,
            scenario_seed(grid_seed, flat),
        )?;
        errors += e;
        bits += b;
    }
    if bits == 0 {
        return Err("grid cell measured zero bits".into());
    }
    Ok(vec![
        Metric::new("ber", errors as f64 / bits as f64),
        Metric::new("errors", errors as f64),
        Metric::new("bits", bits as f64),
    ])
}

// ---------------------------------------------------------------------
// E12/E13 — the service round trip, against the real binaries over TCP.
// ---------------------------------------------------------------------

/// Locates a sibling binary (`rfsim-server`, `rfsim-cli`): the
/// `RFSIM_BIN_DIR` env override first, then the directory of the current
/// executable, then its parent (which covers `target/<profile>/deps`
/// test binaries).
///
/// # Errors
///
/// When the binary is in none of those places.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Ok(dir) = std::env::var("RFSIM_BIN_DIR") {
        candidates.push(PathBuf::from(dir));
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            candidates.push(dir.to_path_buf());
            if let Some(parent) = dir.parent() {
                candidates.push(parent.to_path_buf());
            }
        }
    }
    let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    for dir in &candidates {
        let path = dir.join(&file);
        if path.is_file() {
            return Ok(path);
        }
    }
    Err(format!(
        "binary `{file}` not found (searched {:?}; build it with `cargo build --bin {name}` \
         or point RFSIM_BIN_DIR at it)",
        candidates
    ))
}

/// Kills the spawned server on error paths so a failing cell never
/// leaks an orphan process.
struct ServerGuard {
    child: std::process::Child,
    done: bool,
}

impl ServerGuard {
    /// Polls for exit for up to `timeout`, then reports the status.
    fn wait_timeout(&mut self, timeout: Duration) -> Result<std::process::ExitStatus, String> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.done = true;
                    return Ok(status);
                }
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(None) => return Err("server did not exit within its deadline".into()),
                Err(e) => return Err(format!("wait on server: {e}")),
            }
        }
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn waterfall_spec_from_cfg(cfg: &CellCfg) -> Result<WaterfallSpec, String> {
    let list = cfg
        .get("standards")
        .and_then(Value::as_array)
        .ok_or("missing array field `standards`")?;
    let mut standards = Vec::with_capacity(list.len());
    for s in list {
        let key = s.as_str().ok_or("`standards` has a non-string entry")?;
        standards
            .push(StandardId::from_key(key).ok_or_else(|| format!("unknown standard `{key}`"))?);
    }
    let snr = cfg
        .get("snr_db")
        .and_then(Value::as_array)
        .ok_or("missing array field `snr_db`")?;
    let snr_db = snr
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| "`snr_db` has a non-finite entry".to_owned())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WaterfallSpec {
        standards,
        snr_db,
        realizations: cfg.usize_or("realizations", 2)?.max(1),
        payload_bits: cfg.usize_or("payload_bits", 256)?,
        base_seed: cfg.u64("job_seed")?,
        profile: ChannelProfile::Awgn,
        threads: 0,
    })
}

/// Renders the wire-format job file the CLI submits (`base_seed` rides
/// as a string so the full `u64` range round-trips).
fn job_json(spec: &WaterfallSpec, deadline_ms: u64) -> String {
    let standards: Vec<Value> = spec
        .standards
        .iter()
        .map(|s| Value::from(s.key()))
        .collect();
    let snr: Vec<Value> = spec.snr_db.iter().map(|&x| Value::from(x)).collect();
    Value::Object(vec![
        (
            "spec".into(),
            Value::Object(vec![
                ("standards".into(), Value::Array(standards)),
                ("snr_db".into(), Value::Array(snr)),
                ("realizations".into(), Value::from(spec.realizations)),
                ("payload_bits".into(), Value::from(spec.payload_bits)),
                ("base_seed".into(), Value::from(spec.base_seed.to_string())),
                (
                    "profile".into(),
                    Value::Object(vec![("type".into(), Value::from("awgn"))]),
                ),
                ("threads".into(), Value::from(0.0)),
            ]),
        ),
        ("deadline_ms".into(), Value::from(deadline_ms)),
    ])
    .to_string()
}

fn service(cfg: &CellCfg, seed: u64, chaos: bool) -> Result<Vec<Metric>, String> {
    use std::process::{Command, Stdio};

    let spec = waterfall_spec_from_cfg(cfg)?;
    let server_bin = sibling_binary("rfsim-server")?;
    let cli_bin = sibling_binary("rfsim-cli")?;
    let dir = std::env::temp_dir().join(format!("rfsim-lab-svc-{}-{seed:x}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cleanup = |result: Result<Vec<Metric>, String>| {
        let _ = std::fs::remove_dir_all(&dir);
        result
    };
    let port_file = dir.join("port");
    let job_file = dir.join("job.json");
    let out_file = dir.join("waterfall.json");
    if let Err(e) = std::fs::write(
        &job_file,
        job_json(&spec, cfg.u64_or("deadline_ms", 120_000)?),
    ) {
        return cleanup(Err(format!("write job: {e}")));
    }

    let started = std::time::Instant::now();
    let child = Command::new(&server_bin)
        .args(["--addr", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", server_bin.display()));
    let mut server = match child {
        Ok(child) => ServerGuard { child, done: false },
        Err(e) => return cleanup(Err(e)),
    };

    // Wait for the ephemeral port to land in the port file.
    let mut addr = String::new();
    for _ in 0..200 {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if !text.trim().is_empty() {
                addr = text.trim().to_owned();
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if addr.is_empty() {
        return cleanup(Err("server never wrote its port file".into()));
    }

    let mut submit = Command::new(&cli_bin);
    submit
        .arg("submit")
        .arg(&job_file)
        .args(["--addr", &addr, "--compare-local", "--out"])
        .arg(&out_file);
    if chaos {
        submit
            .args(["--resilient", "--via-chaos"])
            .arg(cfg.str_or("chaos", "seed=11,reset=0.2,tear=0.2,faults=6")?);
    }
    let submit_out = match submit.output() {
        Ok(out) => out,
        Err(e) => return cleanup(Err(format!("run rfsim-cli: {e}"))),
    };
    if !submit_out.status.success() {
        return cleanup(Err(format!(
            "submit failed: {}",
            String::from_utf8_lossy(&submit_out.stderr)
        )));
    }

    // Byte-compare the streamed document against an in-process run.
    let streamed = match std::fs::read_to_string(&out_file) {
        Ok(text) => text,
        Err(e) => return cleanup(Err(format!("read {}: {e}", out_file.display()))),
    };
    let local = match run_waterfall(&spec, None) {
        Ok(report) => format!("{}\n", waterfall_json(&spec, &report)),
        Err(e) => return cleanup(Err(format!("local reference run: {e}"))),
    };
    let byte_identical = if streamed == local { 1.0 } else { 0.0 };

    // Take the server down the E12 way (shutdown) or the E13 way (drain)
    // and require a clean exit either way.
    let stop = Command::new(&cli_bin)
        .arg(if chaos { "drain" } else { "shutdown" })
        .args(["--addr", &addr])
        .output();
    let stop_ok = matches!(&stop, Ok(out) if out.status.success());
    let status = match server.wait_timeout(Duration::from_secs(30)) {
        Ok(status) => status,
        Err(e) => return cleanup(Err(e)),
    };
    let clean_exit = if stop_ok && status.success() {
        1.0
    } else {
        0.0
    };

    cleanup(Ok(vec![
        Metric::new("byte_identical", byte_identical),
        Metric::new("clean_exit", clean_exit),
        Metric::new("points", (spec.standards.len() * spec.snr_db.len()) as f64),
        Metric::volatile("wall_s", started.elapsed().as_secs_f64()),
    ]))
}
