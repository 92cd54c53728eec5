//! E5 as an integration test: the behavioral Mother Model and the
//! cycle-scheduled, bit-true RT-level transmitter are the *same design*
//! at two abstraction levels — their waveforms must agree to fixed-point
//! accuracy, and accuracy must improve with datapath wordlength.

use ofdm_bench::{payload_bits, time_per_run};
use ofdm_core::source::OfdmSource;
use ofdm_core::MotherModel;
use ofdm_rtl::{FxFormat, Tx80211aRtl};
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::ieee80211a::{self, WlanRate};
use rfsim::prelude::*;
use rfsim::Signal;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 19 + 7) % 5 < 2) as u8).collect()
}

fn max_deviation(rate: WlanRate, format: FxFormat, bits: &[u8]) -> f64 {
    let mut beh = MotherModel::new(ieee80211a::params(rate)).expect("valid preset");
    let frame_b = beh.transmit(bits).expect("tx");
    let frame_r = Tx80211aRtl::new(rate).with_format(format).transmit(bits);
    assert_eq!(
        frame_b.samples().len(),
        frame_r.samples.len(),
        "same frame layout"
    );
    frame_b
        .samples()
        .iter()
        .zip(&frame_r.samples)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max)
}

#[test]
fn waveforms_agree_at_16_bits() {
    let bits = payload(480);
    for rate in [
        WlanRate::Mbps6,
        WlanRate::Mbps12,
        WlanRate::Mbps24,
        WlanRate::Mbps54,
    ] {
        let dev = max_deviation(rate, FxFormat::new(16, 12), &bits);
        assert!(dev < 0.02, "{rate:?}: deviation {dev}");
    }
}

#[test]
fn accuracy_improves_monotonically_with_wordlength() {
    let bits = payload(960);
    let devs: Vec<f64> = [(10u32, 7u32), (12, 9), (16, 12), (20, 16), (24, 20)]
        .iter()
        .map(|&(w, f)| max_deviation(WlanRate::Mbps12, FxFormat::new(w, f), &bits))
        .collect();
    for pair in devs.windows(2) {
        assert!(
            pair[1] < pair[0],
            "wordlength up must not worsen accuracy: {devs:?}"
        );
    }
    assert!(
        devs.last().expect("nonempty") < &1e-4,
        "24-bit datapath is near-exact"
    );
}

#[test]
fn rtl_waveform_decodes_in_the_reference_receiver() {
    // The strongest equivalence check: the *behavioral* receiver decodes
    // the *RT-level* transmitter's waveform bit-exactly.
    let rate = WlanRate::Mbps12;
    let bits = payload(480);
    let frame = Tx80211aRtl::new(rate)
        .with_format(FxFormat::new(20, 16))
        .transmit(&bits);
    let params = ieee80211a::params(rate);
    let mut rx = ReferenceReceiver::new(params.clone()).expect("valid preset");
    let signal = Signal::new(frame.samples, params.sample_rate);
    let got = rx.receive(&signal, bits.len()).expect("decodes");
    assert_eq!(got, bits);
}

#[test]
fn telemetry_confirms_behavioral_speedup_over_rtl() {
    // C3, checked in-test through the telemetry layer: the behavioral
    // transmitter's cost — as recorded per block by an instrumented
    // streaming run — must undercut the cycle-scheduled RT-level model on
    // the same workload. Measured ratios are ~2× in debug and ~4× in
    // release; the bar is far below both so the assertion never flakes on
    // a loaded machine (both sides take the best of three runs).
    let rate = WlanRate::Mbps12;
    let n_symbols = 50usize;
    let n_bits = n_symbols * rate.n_cbps() / 2 - 6;

    let mut g = Graph::new();
    let src = g.add(OfdmSource::new(ieee80211a::params(rate), n_bits, 1).expect("valid preset"));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, meter]).expect("wires");
    let mut beh_nanos = u64::MAX;
    let mut beh_samples = 0u64;
    for _ in 0..3 {
        let report = g
            .execute(&ExecPlan::streaming(256).with_telemetry(true))
            .expect("runs")
            .expect("telemetry was requested");
        let stats = report
            .blocks
            .iter()
            .find(|b| b.name.starts_with("ofdm-source"))
            .expect("source instrumented");
        beh_nanos = beh_nanos.min(stats.nanos);
        beh_samples = stats.samples_out;
    }
    assert_eq!(beh_samples, (320 + n_symbols * 80) as u64, "frame layout");

    let rtl = Tx80211aRtl::new(rate);
    let payload = payload_bits(n_bits, 3);
    let rtl_nanos = time_per_run(
        || {
            rtl.transmit(&payload);
        },
        3,
    ) * 1e9;

    let ratio = rtl_nanos / beh_nanos.max(1) as f64;
    assert!(
        ratio > 1.2,
        "RT-level must cost more than behavioral: RTL {rtl_nanos:.0} ns vs \
         behavioral {beh_nanos} ns (ratio {ratio:.2})"
    );
}

#[test]
fn cycle_cost_structure_matches_rt_level_expectations() {
    // The RT-level design spends several clock cycles per emitted sample
    // (bit-serial coding, RAM passes, butterflies) — the cost the paper
    // says makes RT-level IP impractical in RF simulations.
    let frame = Tx80211aRtl::new(WlanRate::Mbps54).transmit(&payload(2160));
    let ratio = frame.cycles as f64 / frame.samples.len() as f64;
    assert!(ratio > 4.0, "cycles/sample = {ratio:.1}");
    // And it grows with constellation density (more interleaver traffic
    // per symbol).
    let frame_bpsk = Tx80211aRtl::new(WlanRate::Mbps6).transmit(&payload(2160));
    let ratio_bpsk = frame_bpsk.cycles as f64 / frame_bpsk.samples.len() as f64;
    assert!(
        ratio > ratio_bpsk,
        "64-QAM {ratio:.2} vs BPSK {ratio_bpsk:.2}"
    );
}
