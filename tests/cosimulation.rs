//! E2 as an integration test: the Mother Model embedded as a signal
//! source in the RF system simulator, with analog impairments and
//! instruments — the paper's analog–digital co-modeling flow, end to end.

use ofdm_core::source::OfdmSource;
use ofdm_standards::ieee80211a::{self, WlanRate};
use ofdm_standards::{default_params, StandardId};
use rfsim::prelude::*;

#[test]
fn ofdm_source_drives_full_rf_lineup() {
    let mut g = Graph::new();
    let src =
        g.add(OfdmSource::new(default_params(StandardId::Ieee80211a), 5000, 1).expect("valid"));
    let dac = g.add(Dac::new(12, 4.0));
    let iq = g.add(IqImbalance::new(0.2, 1.0));
    let lo = g.add(LocalOscillator::new(0.0, 100.0, 2));
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(9.0));
    let ch = g.add(AwgnChannel::from_snr_db(25.0, 3));
    let sa = g.add(SpectrumAnalyzer::new(256));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, dac, iq, lo, pa, ch, sa, meter])
        .expect("wiring");
    g.execute(&ExecPlan::batch()).expect("simulation runs");

    // The waveform flowed end to end at the right rate.
    let out = g.output(meter).expect("ran");
    assert_eq!(out.sample_rate(), 20e6);
    assert!(out.len() > 320);

    // Instruments saw a real signal.
    let p = g
        .block::<PowerMeter>(meter)
        .expect("present")
        .power()
        .expect("ran");
    assert!(p > 0.0);
    let obw = g
        .block::<SpectrumAnalyzer>(sa)
        .expect("present")
        .occupied_bandwidth(0.99)
        .expect("ran");
    // 802.11a occupies ≈ 16.6 MHz of its 20 MHz channel.
    assert!(obw > 14e6 && obw < 20e6, "OBW {obw}");
}

#[test]
fn reconfiguring_the_embedded_source_switches_standards() {
    // The paper's promise: the signal source in the RF simulator is the
    // same block; only parameters change.
    let mut src = OfdmSource::new(default_params(StandardId::Ieee80211a), 2000, 5).expect("valid");
    let out_wlan = src.process(&[]).expect("runs");
    assert_eq!(out_wlan.sample_rate(), 20e6);

    src.reconfigure(default_params(StandardId::Dab))
        .expect("reconfigures");
    let out_dab = src.process(&[]).expect("runs");
    assert_eq!(out_dab.sample_rate(), 2.048e6);
    // DAB frames open with the null symbol: leading silence.
    assert_eq!(out_dab.samples()[0].abs(), 0.0);

    src.reconfigure(default_params(StandardId::Adsl))
        .expect("reconfigures");
    let out_adsl = src.process(&[]).expect("runs");
    assert!(out_adsl.samples().iter().all(|z| z.im.abs() < 1e-9));
}

#[test]
fn pa_nonlinearity_causes_spectral_regrowth() {
    // The canonical co-simulation observation: driving the PA harder
    // raises the out-of-band floor.
    use ofdm_dsp::resample::Resampler;
    use ofdm_dsp::spectrum::band_power;

    let params = ieee80211a::params(WlanRate::Mbps54);
    let mut tx = ofdm_core::MotherModel::new(params.clone()).expect("valid");
    let bits: Vec<u8> = (0..4000).map(|i| ((i * 7) % 3 == 0) as u8).collect();
    let frame = tx.transmit(&bits).expect("tx");
    let mut up = Resampler::new(4, 1, 16);
    let (re, im) = frame.signal().parts();
    let (mut up_re, mut up_im) = (Vec::new(), Vec::new());
    up.process_split(re, im, &mut up_re, &mut up_im);
    let oversampled = Signal::from_parts(up_re, up_im, params.sample_rate * 4.0);

    let oob = |backoff: f64| -> f64 {
        let mut g = Graph::new();
        let src = g.add(SamplePlayback::new(oversampled.clone()));
        let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(backoff));
        let sa = g.add(SpectrumAnalyzer::new(512));
        g.chain(&[src, pa, sa]).expect("wiring");
        g.execute(&ExecPlan::batch()).expect("runs");
        let psd = g
            .block::<SpectrumAnalyzer>(sa)
            .expect("present")
            .psd()
            .expect("ran")
            .to_vec();
        let fs = params.sample_rate * 4.0;
        let total = band_power(&psd, fs, -fs / 2.0, fs / 2.0);
        let inband = band_power(&psd, fs, -8.5e6, 8.5e6);
        (total - inband) / total
    };
    let oob_soft = oob(12.0);
    let oob_hard = oob(2.0);
    assert!(
        oob_hard > 3.0 * oob_soft,
        "regrowth: hard {oob_hard:.2e} vs soft {oob_soft:.2e}"
    );
}

#[test]
fn graph_exposes_intermediate_nodes_for_probing() {
    // RF designers probe internal nodes; every block's output is
    // retained.
    let mut g = Graph::new();
    let src = g.add(OfdmSource::new(default_params(StandardId::Drm), 500, 9).expect("valid"));
    let pa = g.add(SoftClipPa::new(2.0));
    let sink = g.add(PowerMeter::new());
    g.chain(&[src, pa, sink]).expect("wiring");
    g.execute(&ExecPlan::batch()).expect("runs");
    for id in [src, pa, sink] {
        assert!(g.output(id).is_some());
    }
    // Probes agree: the clipper barely touches a small signal.
    let before = g.output(src).expect("ran").power();
    let after = g.output(pa).expect("ran").power();
    assert!((before - after).abs() / before < 0.2);
}
