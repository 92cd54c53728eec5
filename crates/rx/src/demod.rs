//! OFDM symbol demodulation: guard stripping, FFT, cell extraction.

use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::PilotGenerator;
use ofdm_dsp::fft::{self, Fft, FftScratch};
use ofdm_dsp::Complex64;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Demodulates the OFDM symbols of a frame back to frequency-domain cells,
/// mirroring the transmitter's normalization so that noiseless loopback
/// recovers the transmitted cells exactly.
#[derive(Debug)]
pub struct OfdmDemodulator {
    /// The process-wide cached plan for this FFT length.
    fft: Arc<Fft>,
    fft_size: usize,
    cp_len: usize,
    pilots: PilotGenerator,
    params: OfdmParams,
    /// Window buffer and FFT scratch reused by the `&self` entry points,
    /// so a symbol allocates nothing but the cell list it returns.
    work: Mutex<Spectrum>,
}

impl Clone for OfdmDemodulator {
    /// A demodulator on the same plan, with its own (fresh) work buffers.
    fn clone(&self) -> Self {
        OfdmDemodulator {
            fft: Arc::clone(&self.fft),
            fft_size: self.fft_size,
            cp_len: self.cp_len,
            pilots: self.pilots.clone(),
            params: self.params.clone(),
            work: Mutex::default(),
        }
    }
}

/// One symbol's FFT window and the scratch its transform reuses: held
/// across symbols, it makes demodulation allocation-free after the first.
#[derive(Debug, Default)]
pub(crate) struct Spectrum {
    bins: Vec<Complex64>,
    scratch: FftScratch,
}

impl OfdmDemodulator {
    /// Builds a demodulator matched to a transmit parameter set.
    pub fn new(params: OfdmParams) -> Self {
        let fft_size = params.map.fft_size();
        let cp_len = params.guard.samples(fft_size);
        OfdmDemodulator {
            fft: fft::plan(fft_size),
            fft_size,
            cp_len,
            pilots: PilotGenerator::new(params.pilots.clone()),
            params,
            work: Mutex::default(),
        }
    }

    /// Net samples per OFDM symbol (guard + useful part).
    pub fn symbol_len(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// Locks the work buffers. A panic mid-call cannot leave them invalid:
    /// every call clears and refills the window, and the scratch carries no
    /// state between transforms.
    fn work(&self) -> MutexGuard<'_, Spectrum> {
        self.work.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The FFT bin of signed carrier `k`.
    pub(crate) fn bin(&self, k: i32) -> usize {
        if k >= 0 {
            k as usize
        } else {
            (self.fft_size as i32 + k) as usize
        }
    }

    /// The CP-stripped FFT window `[start, start + fft_size)` for a symbol
    /// at `offset`, or `None` if fewer than `len` samples are available.
    fn window_start(&self, len: usize, offset: usize) -> Option<usize> {
        let start = offset + self.cp_len;
        if start + self.fft_size > len {
            return None;
        }
        Some(start)
    }

    /// Forward-transforms the CP-stripped window of the symbol at `offset`
    /// into `spectrum` and returns its bins (unnormalized), or `None` if
    /// the slices are too short.
    ///
    /// The window is gathered from the split re/im slices into the
    /// interleaved buffer of the complex [`Fft::forward_in`]: at powers of
    /// two that runs the complex radix-2 engine, whose exact bits the
    /// receiver's pinned outputs (`waterfall.json`, the waterfall golden,
    /// the lab documents) depend on. The split engine agrees with it only
    /// to last-ulp reassociation.
    pub(crate) fn spectrum<'a>(
        &self,
        re: &[f64],
        im: &[f64],
        offset: usize,
        spectrum: &'a mut Spectrum,
    ) -> Option<&'a [Complex64]> {
        let start = self.window_start(re.len().min(im.len()), offset)?;
        let end = start + self.fft_size;
        spectrum.bins.clear();
        spectrum.bins.extend(
            re[start..end]
                .iter()
                .zip(&im[start..end])
                .map(|(&r, &i)| Complex64::new(r, i)),
        );
        self.fft
            .forward_in(&mut spectrum.bins, &mut spectrum.scratch);
        Some(&spectrum.bins)
    }

    /// The transmitter-normalization inverse for a symbol carrying
    /// `carriers` cells: TX scaled by fft_size/√occupied and the forward
    /// FFT multiplies by fft_size again, so cells are multiplied by
    /// √occupied / fft_size (occupied counts the mirror half of a
    /// Hermitian map).
    pub(crate) fn cell_scale(&self, carriers: usize) -> f64 {
        let occupied = if self.params.map.is_hermitian() {
            carriers * 2
        } else {
            carriers
        };
        (occupied.max(1) as f64).sqrt() / self.fft_size as f64
    }

    /// All occupied carriers of data symbol `symbol_index`, sorted.
    fn symbol_carriers(&self, symbol_index: usize) -> Vec<i32> {
        let pilot_carriers = self.pilots.carriers(symbol_index);
        let data = self.params.map.data_excluding(&pilot_carriers);
        let mut carriers: Vec<i32> = pilot_carriers;
        carriers.extend(data);
        carriers.sort_unstable();
        carriers
    }

    /// Extracts `(carrier, value)` cells from a forward-FFT'd symbol,
    /// undoing the transmitter normalization.
    fn extract_cells(&self, freq: &[Complex64], carriers: &[i32]) -> Vec<(i32, Complex64)> {
        let scale = self.cell_scale(carriers.len());
        carriers
            .iter()
            .map(|&k| (k, freq[self.bin(k)].scale(scale)))
            .collect()
    }

    /// Demodulates symbol `symbol_index` (indexing data symbols from 0)
    /// whose samples start at `samples[offset]`; returns all occupied
    /// cells `(carrier, value)` in carrier order, pilots included.
    ///
    /// Returns `None` if the slice is too short.
    pub fn demodulate_at(
        &self,
        samples: &[Complex64],
        offset: usize,
        symbol_index: usize,
    ) -> Option<Vec<(i32, Complex64)>> {
        let start = self.window_start(samples.len(), offset)?;
        let mut work = self.work();
        let Spectrum { bins, scratch } = &mut *work;
        bins.clear();
        bins.extend_from_slice(&samples[start..start + self.fft_size]);
        self.fft.forward_in(bins, scratch);
        Some(self.extract_cells(bins, &self.symbol_carriers(symbol_index)))
    }

    /// Split-slice variant of [`OfdmDemodulator::demodulate_at`]: reads the
    /// symbol from separate re/im slices (the `rfsim::Signal`
    /// structure-of-arrays layout) so callers on the hot path never
    /// materialize a `Vec<Complex64>` view of the whole frame.
    /// Bit-identical to the interleaved entry point.
    ///
    /// Returns `None` if the slices are too short.
    pub fn demodulate_at_parts(
        &self,
        re: &[f64],
        im: &[f64],
        offset: usize,
        symbol_index: usize,
    ) -> Option<Vec<(i32, Complex64)>> {
        let mut work = self.work();
        let freq = self.spectrum(re, im, offset, &mut work)?;
        Some(self.extract_cells(freq, &self.symbol_carriers(symbol_index)))
    }

    /// Demodulates an arbitrary carrier set of the symbol at `offset` in
    /// split re/im slices (guard stripped, transmitter normalization
    /// undone) — used to recover received preamble/reference symbols whose
    /// cell layout differs from data symbols.
    ///
    /// Returns `None` if the slices are too short.
    pub fn demodulate_carriers_parts(
        &self,
        re: &[f64],
        im: &[f64],
        offset: usize,
        carriers: &[i32],
    ) -> Option<Vec<(i32, Complex64)>> {
        let mut work = self.work();
        let freq = self.spectrum(re, im, offset, &mut work)?;
        Some(self.extract_cells(freq, carriers))
    }

    /// The data carriers of symbol `symbol_index` (used band minus that
    /// symbol's pilots).
    pub fn data_carriers(&self, symbol_index: usize) -> Vec<i32> {
        let pilot_carriers = self.pilots.carriers(symbol_index);
        self.params.map.data_excluding(&pilot_carriers)
    }

    /// The pilot cells the transmitter placed in symbol `symbol_index`.
    pub fn pilot_cells(&self, symbol_index: usize) -> Vec<(i32, Complex64)> {
        self.pilots.cells(symbol_index)
    }

    /// The pilot generator matched to the transmitter's.
    pub(crate) fn pilots(&self) -> &PilotGenerator {
        &self.pilots
    }

    /// The parameter set this demodulator was built from.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::params::presets::minimal_test_params;
    use ofdm_core::MotherModel;

    #[test]
    fn loopback_recovers_cells_exactly() {
        let params = minimal_test_params();
        let mut tx = MotherModel::new(params.clone()).unwrap();
        let payload: Vec<u8> = (0..48).map(|i| ((i * 3) % 2) as u8).collect();
        let frame = tx.transmit(&payload).unwrap();
        let demod = OfdmDemodulator::new(params);
        assert_eq!(demod.symbol_len(), 80);
        // Demodulate straight off the frame's split storage — the hot-path
        // entry point — rather than materializing samples() per symbol.
        let (re, im) = frame.signal().parts();
        for (s, tx_cells) in frame.symbol_cells().iter().enumerate() {
            let rx_cells = demod
                .demodulate_at_parts(re, im, s * 80, s)
                .expect("frame long enough");
            assert_eq!(rx_cells.len(), tx_cells.len());
            for (r, t) in rx_cells.iter().zip(tx_cells) {
                assert_eq!(r.0, t.0);
                assert!((r.1 - t.1).abs() < 1e-9, "carrier {}", r.0);
            }
        }
    }

    #[test]
    fn too_short_slice_returns_none() {
        let demod = OfdmDemodulator::new(minimal_test_params());
        assert!(demod.demodulate_at(&[Complex64::ZERO; 40], 0, 0).is_none());
    }

    #[test]
    fn hermitian_loopback() {
        use ofdm_core::constellation::Modulation;
        use ofdm_core::map::SubcarrierMap;
        use ofdm_core::params::OfdmParams;
        use ofdm_core::symbol::GuardInterval;
        let params = OfdmParams::builder("dmt-test")
            .sample_rate(1e6)
            .map(SubcarrierMap::new(128, (10..=50).collect(), true).unwrap())
            .guard(GuardInterval::Samples(8))
            .modulation(Modulation::Qam(4))
            .build()
            .unwrap();
        let mut tx = MotherModel::new(params.clone()).unwrap();
        let frame = tx.transmit(&[1u8; 100]).unwrap();
        let demod = OfdmDemodulator::new(params);
        let cells = demod.demodulate_at(&frame.samples(), 0, 0).unwrap();
        for (r, t) in cells.iter().zip(&frame.symbol_cells()[0]) {
            assert!((r.1 - t.1).abs() < 1e-9);
        }
    }

    #[test]
    fn split_parts_path_bit_identical_to_interleaved() {
        let params = minimal_test_params();
        let mut tx = MotherModel::new(params.clone()).unwrap();
        let payload: Vec<u8> = (0..96).map(|i| ((i * 7) % 2) as u8).collect();
        let frame = tx.transmit(&payload).unwrap();
        let samples = frame.samples();
        let re: Vec<f64> = samples.iter().map(|z| z.re).collect();
        let im: Vec<f64> = samples.iter().map(|z| z.im).collect();
        let demod = OfdmDemodulator::new(params);
        let sym_len = demod.symbol_len();
        let fft = Fft::new(64);
        for s in 0..frame.symbol_cells().len() {
            let a = demod.demodulate_at(&samples, s * sym_len, s).unwrap();
            let b = demod.demodulate_at_parts(&re, &im, s * sym_len, s).unwrap();
            assert_eq!(a, b, "symbol {s} must be bit-identical across layouts");
            // An arbitrary carrier set against a gathered copy through a
            // fresh, uncached plan.
            let carriers = demod.data_carriers(s);
            let start = s * sym_len + 16;
            let mut window = samples[start..start + 64].to_vec();
            fft.forward(&mut window);
            let scale = (carriers.len() as f64).sqrt() / 64.0;
            let want: Vec<(i32, Complex64)> = carriers
                .iter()
                .map(|&k| (k, window[k.rem_euclid(64) as usize].scale(scale)))
                .collect();
            let got = demod
                .demodulate_carriers_parts(&re, &im, s * sym_len, &carriers)
                .unwrap();
            assert_eq!(got, want, "symbol {s} carrier set must match bit-exactly");
        }
        // Too-short slices behave identically too.
        assert!(demod
            .demodulate_at_parts(&re[..40], &im[..40], 0, 0)
            .is_none());
        assert!(demod
            .demodulate_carriers_parts(&re[..40], &im[..40], 0, &[1])
            .is_none());
    }

    #[test]
    fn data_carriers_exclude_pilots() {
        use ofdm_core::pilots::ieee80211a_pilots;
        let mut params = minimal_test_params();
        params.map = ofdm_core::map::SubcarrierMap::contiguous(64, -26, 26, false).unwrap();
        params.pilots = ieee80211a_pilots();
        let demod = OfdmDemodulator::new(params);
        let data = demod.data_carriers(0);
        assert_eq!(data.len(), 48);
        assert!(!data.contains(&7));
        assert_eq!(demod.pilot_cells(0).len(), 4);
    }
}
