//! The reference receiver's precomputed receive plans against the
//! per-symbol cell-list receiver they replaced, kept here as the oracle:
//! demodulate every occupied cell (`demodulate_at_parts`), equalize the
//! list (`equalize`), pick each data cell out of it with a linear search,
//! and keep the differential reference in a `HashMap`.
//!
//! The two must produce the same decision cells, bit pattern for bit
//! pattern rather than to a tolerance, and the same hard bits. That holds
//! for every registry standard and every DRM robustness mode, with and
//! without the Rayleigh channel state the waterfall installs, with pilot
//! tracking on and off, with and without a CFO compensation, and at 0 and
//! 10 dB SNR. Equal hard bits mean equal payloads: the decoder after them
//! is shared.

use ofdm_core::framing::PreambleElement;
use ofdm_core::params::{ModulationPlan, OfdmParams};
use ofdm_core::pilots::PilotSpec;
use ofdm_core::MotherModel;
use ofdm_dsp::Complex64;
use ofdm_rx::demod::OfdmDemodulator;
use ofdm_rx::eq::{equalize, ChannelEstimate};
use ofdm_rx::receiver::{ReferenceReceiver, RxError};
use ofdm_standards::drm::{self, RobustnessMode};
use ofdm_standards::{default_params, StandardId};
use rfsim::prelude::{AwgnChannel, Block, CfoChannel, FadingChannel};
use rfsim::{scenario_seed, Signal};
use std::collections::HashMap;

/// The `ber_grid` power-delay profile.
const PATHS: [(usize, f64); 3] = [(0, 0.6), (3, 0.3), (7, 0.1)];

/// The decision cells and hard bits of the cell-list receiver: its symbol
/// loop verbatim, on the public demodulator API.
fn reference(
    params: &OfdmParams,
    rx: &ReferenceReceiver,
    est: Option<&ChannelEstimate>,
    pilot_tracking: bool,
    signal: &Signal,
    payload_bits: usize,
) -> Option<(Vec<Complex64>, Vec<u8>)> {
    let demod = OfdmDemodulator::new(params.clone());
    let cfo_hz = rx.cfo_estimate();
    let (mut re, mut im) = (signal.parts().0.to_vec(), signal.parts().1.to_vec());
    if cfo_hz != 0.0 {
        let fs = signal.sample_rate();
        for (n, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let phase = -std::f64::consts::TAU * cfo_hz * n as f64 / fs;
            let (sin, cos) = phase.sin_cos();
            let (xr, xi) = (*r, *i);
            *r = xr * cos - xi * sin;
            *i = xr * sin + xi * cos;
        }
    }
    let coded_len = rx.coded_len(payload_bits);
    let padded_len = match params.interleaver.block_len() {
        Some(block) => coded_len.div_ceil(block) * block,
        None => coded_len,
    };

    let mut diff_ref: HashMap<i32, Complex64> = HashMap::new();
    if params.differential {
        let mut element_offset = 0usize;
        for element in &params.preamble {
            match element {
                PreambleElement::Null { len } => element_offset += len,
                PreambleElement::TimeDomain(s) => element_offset += s.len(),
                PreambleElement::FreqDomain { cells } => {
                    let carriers: Vec<i32> = cells.iter().map(|c| c.0).collect();
                    let received =
                        demod.demodulate_carriers_parts(&re, &im, element_offset, &carriers)?;
                    for (k, v) in received {
                        diff_ref.insert(k, v);
                    }
                    element_offset += demod.symbol_len();
                }
            }
        }
    }

    let mut decisions = Vec::new();
    let mut bits: Vec<u8> = Vec::with_capacity(padded_len);
    let mut offset = rx.preamble_samples();
    let mut symbol_index = 0usize;
    while bits.len() < padded_len {
        let cells = demod.demodulate_at_parts(&re, &im, offset, symbol_index)?;
        let mut cells = match est {
            Some(est) => equalize(&cells, est),
            None => cells,
        };
        if pilot_tracking {
            let mut acc = Complex64::ZERO;
            for (k, want) in demod.pilot_cells(symbol_index) {
                if let Some(&(_, got)) = cells.iter().find(|c| c.0 == k) {
                    acc += got * want.conj();
                }
            }
            if acc.abs() > 1e-12 {
                let derotate = Complex64::cis(-acc.arg());
                for c in cells.iter_mut() {
                    c.1 *= derotate;
                }
            }
        }
        let data_carriers = demod.data_carriers(symbol_index);
        let all_data = params.map.data_carriers();
        for &k in &data_carriers {
            let idx = all_data.binary_search(&k).expect("carrier from map");
            let modulation = params.modulation.modulation_at(idx);
            let mut value = cells
                .iter()
                .find(|c| c.0 == k)
                .expect("demodulator returns every carrier")
                .1;
            if params.differential {
                let prev = diff_ref.get(&k).copied().unwrap_or(Complex64::ONE);
                let decided = value;
                value *= prev.inv();
                diff_ref.insert(k, decided);
            }
            decisions.push(value);
            bits.extend(modulation.demap_hard(value));
        }
        offset += demod.symbol_len();
        symbol_index += 1;
        if data_carriers.is_empty() {
            break;
        }
    }
    Some((decisions, bits))
}

/// The planned receiver's decision cells and their hard bits.
fn planned(
    rx: &mut ReferenceReceiver,
    signal: &Signal,
    payload_bits: usize,
) -> Result<(Vec<Complex64>, Vec<u8>), RxError> {
    let (mut cells, mut bits) = (Vec::new(), Vec::new());
    rx.demap_frame(signal, payload_bits, |m, z| {
        cells.push(z);
        m.demap_hard_into(z, &mut bits);
    })?;
    Ok((cells, bits))
}

/// Exact equality of two cell lists, bit pattern by bit pattern.
fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Compares the planned receiver with the oracle on one standard under
/// every setup, and returns how many comparisons ran.
fn compare(label: &str, params: &OfdmParams, seed: u64) -> usize {
    let payload_bits = params.nominal_bits_per_symbol().clamp(200, 4000);
    let sent: Vec<u8> = (0..payload_bits)
        .map(|i| ((scenario_seed(seed, i) >> 7) & 1) as u8)
        .collect();
    let mut tx = MotherModel::new(params.clone()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let frame = tx
        .transmit(&sent)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let tx_power = frame.signal().power();
    // A CFO of 3% of the carrier spacing, compensated with a 10% error so
    // a residual rotation is left for pilot tracking.
    let df = 0.03 * params.sample_rate / params.map.fft_size() as f64;
    let mut compared = 0;
    for rayleigh in [false, true] {
        for pilot_tracking in [false, true] {
            for cfo in [false, true] {
                let setup = format!("rayleigh={rayleigh} tracking={pilot_tracking} cfo={cfo}");
                let mut signal = frame.signal().clone();
                let mut est = None;
                if rayleigh {
                    // Exactly what the waterfall's Rayleigh points install.
                    let mut fading =
                        FadingChannel::rayleigh(PATHS.to_vec(), 0.0, scenario_seed(seed, 2));
                    signal = fading
                        .process(std::slice::from_ref(&signal))
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let fft = params.map.fft_size() as f64;
                    let known: Vec<(i32, Complex64)> = params
                        .map
                        .data_carriers()
                        .iter()
                        .map(|&k| (k, fading.freq_response_at(k as f64 / fft, 0, 1.0)))
                        .collect();
                    let reference: Vec<(i32, Complex64)> =
                        known.iter().map(|&(k, _)| (k, Complex64::ONE)).collect();
                    est = Some(ChannelEstimate::from_reference(&known, &reference));
                }
                if cfo {
                    signal = CfoChannel::new(df)
                        .process(std::slice::from_ref(&signal))
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                }
                let mut rx = ReferenceReceiver::new(params.clone())
                    .unwrap_or_else(|e| panic!("{label}: {e}"))
                    .with_pilot_tracking(pilot_tracking)
                    .with_cfo_compensation(if cfo { 0.9 * df } else { 0.0 });
                if let Some(est) = &est {
                    rx.set_channel_estimate(est.clone());
                }
                // One receiver runs both noise levels: its held buffers and
                // differential state must not leak from frame to frame.
                for (i, snr_db) in [0.0, 10.0].into_iter().enumerate() {
                    let noisy = AwgnChannel::from_snr_db(snr_db, scenario_seed(seed, 3 + i))
                        .with_reference_power(tx_power)
                        .process(std::slice::from_ref(&signal))
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let (want_cells, want_bits) = reference(
                        params,
                        &rx,
                        est.as_ref(),
                        pilot_tracking,
                        &noisy,
                        payload_bits,
                    )
                    .unwrap_or_else(|| panic!("{label}: frame too short for the oracle"));
                    assert!(!want_bits.is_empty(), "{label}: no bits demapped");
                    let (cells, bits) = planned(&mut rx, &noisy, payload_bits)
                        .unwrap_or_else(|e| panic!("{label} {setup} {snr_db} dB: {e}"));
                    assert!(
                        same_bits(&cells, &want_cells),
                        "{label} {setup} {snr_db} dB: {} of {} decision cells differ from \
                         the cell-list oracle",
                        cells
                            .iter()
                            .zip(&want_cells)
                            .filter(|(a, b)| a != b)
                            .count(),
                        want_cells.len()
                    );
                    assert_eq!(bits, want_bits, "{label} {setup} {snr_db} dB: hard bits");
                    compared += 1;
                }
            }
        }
    }
    compared
}

#[test]
fn receive_plans_match_the_cell_list_receiver_bit_for_bit() {
    let mut cases: Vec<(String, OfdmParams)> = StandardId::ALL
        .iter()
        .map(|&id| (id.key().to_owned(), default_params(id)))
        .collect();
    cases.extend(
        RobustnessMode::ALL
            .iter()
            .map(|&mode| (format!("drm {mode:?}"), drm::params(mode))),
    );
    // The layouts the plans must get right are all present.
    assert!(cases
        .iter()
        .any(|(_, p)| matches!(p.pilots, PilotSpec::ScatteredGrid { .. })));
    assert!(cases.iter().any(|(_, p)| p.differential));
    assert!(cases
        .iter()
        .any(|(_, p)| matches!(p.modulation, ModulationPlan::PerCarrier(_))));
    assert!(cases.iter().any(|(_, p)| p.map.is_hermitian()));

    let mut compared = 0;
    for (i, (label, params)) in cases.iter().enumerate() {
        compared += compare(label, params, 0x9A1A_5EED + i as u64);
    }
    assert_eq!(compared, cases.len() * 16);
}

#[test]
fn a_cleared_estimate_receives_like_a_fresh_receiver() {
    let params = default_params(StandardId::DvbT);
    let sent: Vec<u8> = (0..2000).map(|i| (i * 5 % 3 == 0) as u8).collect();
    let mut tx = MotherModel::new(params.clone()).expect("valid preset");
    let frame = tx.transmit(&sent).expect("nonempty payload");
    let mut fresh = ReferenceReceiver::new(params.clone()).expect("valid preset");
    let mut cleared = ReferenceReceiver::new(params).expect("valid preset");
    let gain = vec![(1, Complex64::new(0.0, 2.0))];
    cleared.set_channel_estimate(ChannelEstimate::from_reference(
        &gain,
        &[(1, Complex64::ONE)],
    ));
    cleared.clear_channel_estimate();
    let want = planned(&mut fresh, frame.signal(), sent.len()).expect("long enough");
    let got = planned(&mut cleared, frame.signal(), sent.len()).expect("long enough");
    assert!(same_bits(&got.0, &want.0));
    assert_eq!(
        cleared
            .receive(frame.signal(), sent.len())
            .expect("decodes"),
        sent
    );
}
