//! A synchronized 802.11a packet receiver.
//!
//! Unlike [`crate::receiver::ReferenceReceiver`] (which assumes known
//! frame timing), this receiver acquires a PPDU the way hardware does:
//!
//! 1. coarse CFO from the short training field's 16-sample periodicity,
//! 2. frame timing by cross-correlation against the known long training
//!    symbol,
//! 3. fine CFO from the two LTF repetitions,
//! 4. per-carrier channel estimation from the LTF,
//! 5. SIGNAL-field decode (rate/length announcement, parity check),
//! 6. DATA-field decode at the announced rate with pilot-based phase
//!    tracking.
//!
//! Together with [`ofdm_standards::wlan_packet::build_ppdu`] this closes
//! the full physical layer the paper says must be co-modeled ("the whole
//! physical layer of the transmitter and the receiver").

use crate::eq::ChannelEstimate;
use crate::receiver::{ReferenceReceiver, RxError};
use crate::sync;
use ofdm_dsp::bits::pack_msb_first;
use ofdm_dsp::fft::{self, FftScratch};
use ofdm_dsp::Complex64;
use ofdm_standards::ieee80211a;
use ofdm_standards::wlan_packet;
use rfsim::Signal;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Packet-reception failures.
#[derive(Debug, Clone, PartialEq)]
pub enum WlanRxError {
    /// No plausible preamble found in the waveform.
    NoPreamble,
    /// The SIGNAL field failed its parity/rate-code checks.
    InvalidSignalField,
    /// A field failed to demodulate.
    Field(RxError),
}

impl fmt::Display for WlanRxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WlanRxError::NoPreamble => write!(f, "no 802.11a preamble detected"),
            WlanRxError::InvalidSignalField => {
                write!(f, "SIGNAL field failed parity or rate-code validation")
            }
            WlanRxError::Field(e) => write!(f, "field decode failed: {e}"),
        }
    }
}

impl Error for WlanRxError {}

impl From<RxError> for WlanRxError {
    fn from(e: RxError) -> Self {
        WlanRxError::Field(e)
    }
}

/// A successfully received packet with its acquisition metadata.
#[derive(Debug, Clone)]
pub struct WlanPacket {
    /// The decoded PSDU bytes.
    pub psdu: Vec<u8>,
    /// The rate announced by the SIGNAL field.
    pub rate: ieee80211a::WlanRate,
    /// Total estimated carrier frequency offset (Hz).
    pub cfo_hz: f64,
    /// Sample index where the first LTF long symbol begins.
    pub ltf_start: usize,
}

/// The synchronized packet receiver.
#[derive(Debug, Clone, Default)]
pub struct WlanPacketReceiver {
    /// Maximum samples searched for the preamble (0 = whole signal).
    search_window: usize,
}

impl WlanPacketReceiver {
    /// A receiver searching the entire waveform for the preamble.
    pub fn new() -> Self {
        WlanPacketReceiver { search_window: 0 }
    }

    /// Builder: limits the preamble search to the first `n` samples.
    pub fn with_search_window(mut self, n: usize) -> Self {
        self.search_window = n;
        self
    }

    /// Receives one packet from the waveform.
    ///
    /// # Errors
    ///
    /// * [`WlanRxError::NoPreamble`] if no training structure is found.
    /// * [`WlanRxError::InvalidSignalField`] on a corrupt announcement.
    /// * [`WlanRxError::Field`] if demodulation fails.
    pub fn receive(&self, signal: &Signal) -> Result<WlanPacket, WlanRxError> {
        let fs = signal.sample_rate();
        // The whole acquisition chain runs on the signal's split re/im
        // storage — no interleaved Vec<Complex64> view of the waveform is
        // ever materialized.
        let (re, im) = signal.parts();
        if re.len() < 480 {
            return Err(WlanRxError::NoPreamble);
        }
        let window = if self.search_window == 0 {
            re.len()
        } else {
            self.search_window.min(re.len())
        };

        // 1. Coarse CFO from STF periodicity (range ±fs/32 = ±625 kHz).
        let coarse_at = sync::find_frame_start_parts(&re[..window], &im[..window], 16)
            .ok_or(WlanRxError::NoPreamble)?;
        let coarse_cfo =
            sync::estimate_cfo_parts(re, im, coarse_at, 16, fs).ok_or(WlanRxError::NoPreamble)?;
        let (cre, cim) = sync::correct_cfo_parts(re, im, coarse_cfo, fs);

        // 2. Frame timing: cross-correlate with the known long symbol.
        let reference = &ltf_reference().body;
        let ltf_start = best_double_correlation(&cre[..window], &cim[..window], reference, 64)
            .ok_or(WlanRxError::NoPreamble)?;

        // 3. Fine CFO from the two LTF bodies (range ±156 kHz).
        let fine_cfo = sync::estimate_cfo_parts(&cre, &cim, ltf_start, 64, fs)
            .ok_or(WlanRxError::NoPreamble)?;
        let (cre, cim) = sync::correct_cfo_parts(&cre, &cim, fine_cfo, fs);

        // 4. Channel estimation from the averaged LTF bodies.
        let channel = ltf_channel_estimate(&cre, &cim, ltf_start);

        // 5. SIGNAL field: one BPSK symbol right after the LTF.
        let signal_start = ltf_start + 128;
        if signal_start + 80 > cre.len() {
            return Err(WlanRxError::NoPreamble);
        }
        let mut sig_params = wlan_packet::signal_params();
        sig_params.preamble = Vec::new();
        let mut sig_rx = ReferenceReceiver::new(sig_params)?.with_pilot_tracking(true);
        sig_rx.set_channel_estimate(channel.clone());
        let sig_wave = Signal::from_parts(
            cre[signal_start..signal_start + 80].to_vec(),
            cim[signal_start..signal_start + 80].to_vec(),
            fs,
        );
        let sig_bits = sig_rx.receive(&sig_wave, 18)?;
        let (rate, length) =
            wlan_packet::parse_signal_field(&sig_bits).ok_or(WlanRxError::InvalidSignalField)?;

        // 6. DATA field at the announced rate.
        let data_start = signal_start + 80;
        let mut data_rx =
            ReferenceReceiver::new(wlan_packet::data_params(rate))?.with_pilot_tracking(true);
        data_rx.set_channel_estimate(channel);
        let data_wave =
            Signal::from_parts(cre[data_start..].to_vec(), cim[data_start..].to_vec(), fs);
        let n_bits = 16 + 8 * length;
        let bits = data_rx.receive(&data_wave, n_bits)?;
        let psdu = pack_msb_first(&bits[16..]);

        Ok(WlanPacket {
            psdu,
            rate,
            cfo_hz: coarse_cfo + fine_cfo,
            ltf_start,
        })
    }
}

/// The known long training field, built once per process: every packet
/// is timed against the same long-symbol body and estimated against the
/// same carrier sequence.
struct LtfReference {
    /// One 64-sample long-symbol body of the rendered LTF.
    body: Vec<Complex64>,
    /// The LTF's `(carrier, value)` cells.
    sequence: Vec<(i32, Complex64)>,
}

fn ltf_reference() -> &'static LtfReference {
    static REFERENCE: OnceLock<LtfReference> = OnceLock::new();
    REFERENCE.get_or_init(|| LtfReference {
        body: ieee80211a::long_training_field()[32..96].to_vec(),
        sequence: ieee80211a::ltf_sequence(),
    })
}

/// Finds the offset `d` maximizing the normalized correlation with
/// `reference` at both `d` and `d + repeat` (the LTF transmits the long
/// symbol twice). Reads the haystack from split re/im slices;
/// bit-identical to the same search over interleaved samples.
fn best_double_correlation(
    hay_re: &[f64],
    hay_im: &[f64],
    reference: &[Complex64],
    repeat: usize,
) -> Option<usize> {
    let n = reference.len();
    let len = hay_re.len().min(hay_im.len());
    if len < n + repeat {
        return None;
    }
    let at = |i: usize| Complex64::new(hay_re[i], hay_im[i]);
    let ref_energy: f64 = reference.iter().map(|z| z.norm_sqr()).sum();
    let corr_at = |d: usize| -> f64 {
        let seg_energy: f64 = (d..d + n).map(|i| at(i).norm_sqr()).sum();
        if seg_energy < 1e-30 {
            return 0.0;
        }
        let dot: Complex64 = (d..d + n)
            .zip(reference)
            .map(|(i, b)| at(i) * b.conj())
            .sum();
        dot.norm_sqr() / (seg_energy * ref_energy)
    };
    let mut best = None;
    let mut best_metric = 0.2; // threshold: reject noise-only waveforms
    for d in 0..len - n - repeat {
        let m = corr_at(d) + corr_at(d + repeat);
        if m > best_metric {
            best_metric = m;
            best = Some(d);
        }
    }
    best
}

/// Per-carrier LS channel estimate from the two LTF bodies, averaged
/// from split re/im slices into split arrays and transformed there.
fn ltf_channel_estimate(re: &[f64], im: &[f64], ltf_start: usize) -> ChannelEstimate {
    let mut avg_re = [0.0; 64];
    let mut avg_im = [0.0; 64];
    for rep in 0..2 {
        let body = ltf_start + rep * 64;
        for (a, x) in avg_re.iter_mut().zip(&re[body..body + 64]) {
            *a += x * 0.5;
        }
        for (a, x) in avg_im.iter_mut().zip(&im[body..body + 64]) {
            *a += x * 0.5;
        }
    }
    fft::plan(64).forward_split_in(&mut avg_re, &mut avg_im, &mut FftScratch::new());
    // The TX rendered the LTF with scale 64/√52 before its IFFT (1/64):
    // forward FFT returns cell·64/√52, so normalize by √52/64.
    let scale = 52f64.sqrt() / 64.0;
    let sequence = &ltf_reference().sequence;
    let received: Vec<(i32, Complex64)> = sequence
        .iter()
        .map(|&(k, _)| {
            let bin = if k >= 0 {
                k as usize
            } else {
                (64 + k) as usize
            };
            (k, Complex64::new(avg_re[bin], avg_im[bin]).scale(scale))
        })
        .collect();
    ChannelEstimate::from_reference(&received, sequence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_standards::ieee80211a::WlanRate;
    use ofdm_standards::wlan_packet::{build_ppdu, Ppdu};

    fn psdu(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 5) as u8).collect()
    }

    fn check_roundtrip(ppdu: &Ppdu, received: Signal) {
        let rx = WlanPacketReceiver::new();
        let packet = rx.receive(&received).expect("packet decodes");
        assert_eq!(packet.rate, ppdu.rate);
        assert_eq!(packet.psdu.len(), ppdu.psdu_len);
        assert_eq!(packet.psdu, psdu(ppdu.psdu_len));
    }

    #[test]
    fn clean_packet_all_rates() {
        for rate in [WlanRate::Mbps6, WlanRate::Mbps24, WlanRate::Mbps54] {
            let ppdu = build_ppdu(rate, &psdu(80));
            check_roundtrip(&ppdu, ppdu.waveform.clone());
        }
    }

    #[test]
    fn packet_with_cfo_decodes() {
        let ppdu = build_ppdu(WlanRate::Mbps12, &psdu(60));
        let fs = ppdu.waveform.sample_rate();
        for cfo in [-80e3, 12e3, 150e3] {
            // Applying a +cfo shift is correcting a −cfo one; stay on the
            // split layout instead of materializing samples().
            let (re, im) = ppdu.waveform.parts();
            let (sre, sim) = crate::sync::correct_cfo_parts(re, im, -cfo, fs);
            let rx = WlanPacketReceiver::new();
            let packet = rx
                .receive(&Signal::from_parts(sre, sim, fs))
                .unwrap_or_else(|e| panic!("cfo {cfo}: {e}"));
            assert_eq!(packet.psdu, psdu(60), "cfo {cfo}");
            assert!(
                (packet.cfo_hz - cfo).abs() < 2e3,
                "estimated {}",
                packet.cfo_hz
            );
        }
    }

    #[test]
    fn packet_with_delay_and_channel_decodes() {
        use rfsim::prelude::*;
        let ppdu = build_ppdu(WlanRate::Mbps24, &psdu(100));
        let fs = ppdu.waveform.sample_rate();
        // Leading dead air + a two-ray channel + mild noise.
        let (re, im) = ppdu.waveform.parts();
        let mut padded = vec![Complex64::ZERO; 133];
        padded.extend(re.iter().zip(im).map(|(&r, &i)| Complex64::new(r, i)));
        let mut g = Graph::new();
        let src = g.add(SamplePlayback::from_samples(padded, fs));
        let ch = g.add(MultipathChannel::two_ray(3, 0.3));
        let noise = g.add(AwgnChannel::from_snr_db(25.0, 8));
        g.chain(&[src, ch, noise]).expect("wiring");
        g.execute(&ExecPlan::batch()).expect("runs");
        let received = g.output(noise).expect("ran").clone();

        let rx = WlanPacketReceiver::new();
        let packet = rx.receive(&received).expect("decodes through channel");
        assert_eq!(packet.psdu, psdu(100));
        // Timing found the delayed LTF (133 pad + 160 STF + 32 CP ≈ 325).
        assert!(
            (packet.ltf_start as i64 - 325).unsigned_abs() < 4,
            "ltf at {}",
            packet.ltf_start
        );
    }

    #[test]
    fn split_acquisition_bit_identical_to_interleaved_reference() {
        // The receive() pipeline runs on the Signal's split storage; its
        // timing search must agree exactly with a straightforward
        // interleaved double-correlation over the same coarse-corrected
        // samples.
        let ppdu = build_ppdu(WlanRate::Mbps24, &psdu(64));
        let fs = ppdu.waveform.sample_rate();
        let cfo = 40e3;
        let (re, im) = ppdu.waveform.parts();
        let (sre, sim) = crate::sync::correct_cfo_parts(re, im, -cfo, fs);
        let coarse_at = crate::sync::find_frame_start_parts(&sre, &sim, 16).unwrap();
        let coarse_cfo = crate::sync::estimate_cfo_parts(&sre, &sim, coarse_at, 16, fs).unwrap();
        let (cre, cim) = crate::sync::correct_cfo_parts(&sre, &sim, coarse_cfo, fs);
        let corrected: Vec<Complex64> = cre
            .iter()
            .zip(&cim)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();
        let ltf = ofdm_standards::ieee80211a::long_training_field();
        let reference = &ltf[32..96];
        let split_start = best_double_correlation(&cre, &cim, reference, 64).unwrap();
        let interleaved_start = {
            let n = reference.len();
            let ref_energy: f64 = reference.iter().map(|z| z.norm_sqr()).sum();
            let corr_at = |d: usize| -> f64 {
                let seg = &corrected[d..d + n];
                let seg_energy: f64 = seg.iter().map(|z| z.norm_sqr()).sum();
                if seg_energy < 1e-30 {
                    return 0.0;
                }
                let dot: Complex64 = seg.iter().zip(reference).map(|(a, b)| *a * b.conj()).sum();
                dot.norm_sqr() / (seg_energy * ref_energy)
            };
            let mut best = None;
            let mut best_metric = 0.2;
            for d in 0..corrected.len() - n - 64 {
                let m = corr_at(d) + corr_at(d + 64);
                if m > best_metric {
                    best_metric = m;
                    best = Some(d);
                }
            }
            best.unwrap()
        };
        assert_eq!(split_start, interleaved_start);

        // And the end-to-end decode still recovers the payload with an
        // accurate total CFO estimate.
        let packet = WlanPacketReceiver::new()
            .receive(&Signal::from_parts(sre, sim, fs))
            .expect("decodes");
        assert_eq!(packet.psdu, psdu(64));
        assert!((packet.cfo_hz - cfo).abs() < 2e3);
    }

    #[test]
    fn noise_only_rejected() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let noise: Vec<Complex64> = (0..2000)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let rx = WlanPacketReceiver::new();
        let err = rx.receive(&Signal::new(noise, 20e6)).unwrap_err();
        assert!(
            matches!(
                err,
                WlanRxError::NoPreamble | WlanRxError::InvalidSignalField
            ),
            "{err}"
        );
    }

    #[test]
    fn too_short_rejected() {
        let rx = WlanPacketReceiver::new();
        let err = rx
            .receive(&Signal::new(vec![Complex64::ONE; 100], 20e6))
            .unwrap_err();
        assert_eq!(err, WlanRxError::NoPreamble);
    }

    #[test]
    fn error_display() {
        for e in [
            WlanRxError::NoPreamble,
            WlanRxError::InvalidSignalField,
            WlanRxError::Field(RxError::BadConfig("x".into())),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
