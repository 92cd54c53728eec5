//! Sample-rate conversion blocks.
//!
//! RF lineups run oversampled relative to the modem baseband (spectral
//! headroom for DAC images and PA regrowth); these blocks adapt rates
//! inside the graph, keeping the [`crate::Signal`] rate tag consistent.

use crate::block::{Block, SimError};
use crate::signal::Signal;
use ofdm_dsp::resample::Resampler;

/// Interpolates by an integer factor with a polyphase anti-image filter.
#[derive(Debug, Clone)]
pub struct Upsampler {
    factor: usize,
    resampler: Resampler,
}

impl Upsampler {
    /// An L× interpolator.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(factor: usize) -> Self {
        Upsampler {
            factor,
            resampler: Resampler::new(factor, 1, 16),
        }
    }

    /// The interpolation factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Block for Upsampler {
    fn name(&self) -> &str {
        "upsampler"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        let y = self.resampler.process(&inputs[0].samples());
        out.assign(&y, inputs[0].sample_rate() * self.factor as f64);
        Ok(())
    }

    fn reset(&mut self) {
        self.resampler.reset();
    }
}

/// Decimates by an integer factor with a polyphase anti-alias filter.
#[derive(Debug, Clone)]
pub struct Downsampler {
    factor: usize,
    resampler: Resampler,
}

impl Downsampler {
    /// An M× decimator.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(factor: usize) -> Self {
        Downsampler {
            factor,
            resampler: Resampler::new(1, factor, 16),
        }
    }

    /// The decimation factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Block for Downsampler {
    fn name(&self) -> &str {
        "downsampler"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        let y = self.resampler.process(&inputs[0].samples());
        out.assign(&y, inputs[0].sample_rate() / self.factor as f64);
        Ok(())
    }

    fn reset(&mut self) {
        self.resampler.reset();
    }
}

/// A flat gain/attenuation block (dB).
#[derive(Debug, Clone)]
pub struct GainBlock {
    gain_linear: f64,
    gain_db: f64,
}

impl GainBlock {
    /// A gain of `db` decibels (amplitude 10^{db/20}).
    pub fn from_db(db: f64) -> Self {
        GainBlock {
            gain_linear: 10f64.powf(db / 20.0),
            gain_db: db,
        }
    }

    /// The gain in dB.
    pub fn gain_db(&self) -> f64 {
        self.gain_db
    }
}

impl Block for GainBlock {
    fn name(&self) -> &str {
        "gain"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let (re, im) = out.parts_mut();
        ofdm_dsp::kernels::scale_split(re, im, self.gain_linear);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_dsp::Complex64;

    fn tone(f: f64, fs: f64, n: usize) -> Signal {
        Signal::new(
            (0..n)
                .map(|i| Complex64::cis(std::f64::consts::TAU * f * i as f64 / fs))
                .collect(),
            fs,
        )
    }

    #[test]
    fn upsampler_multiplies_rate_and_length() {
        let mut up = Upsampler::new(4);
        assert_eq!(up.factor(), 4);
        let out = up.process(&[tone(1e3, 1e6, 256)]).unwrap();
        assert_eq!(out.len(), 1024);
        assert_eq!(out.sample_rate(), 4e6);
    }

    #[test]
    fn downsampler_divides_rate_and_length() {
        let mut down = Downsampler::new(2);
        let out = down.process(&[tone(1e3, 1e6, 256)]).unwrap();
        assert_eq!(out.len(), 128);
        assert_eq!(out.sample_rate(), 0.5e6);
        assert_eq!(down.factor(), 2);
    }

    #[test]
    fn up_then_down_preserves_tone_power() {
        let sig = tone(0.02e6, 1e6, 2048);
        let mut up = Upsampler::new(4);
        let mut down = Downsampler::new(4);
        let mid = up.process(&[sig]).unwrap();
        let out = down.process(&[mid]).unwrap();
        assert_eq!(out.sample_rate(), 1e6);
        let steady = &out.samples()[1024..];
        let p = ofdm_dsp::stats::mean_power(steady);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn upsampling_preserves_spectrum_location() {
        // A tone at f stays at f Hz after interpolation.
        use ofdm_dsp::spectrum::WelchPsd;
        use ofdm_dsp::window::Window;
        let f = 100e3;
        let mut up = Upsampler::new(4);
        let out = up.process(&[tone(f, 1e6, 4096)]).unwrap();
        let (re, im) = out.parts();
        let psd = WelchPsd::new(512, Window::Hann).estimate(re, im);
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let f_peak = peak as f64 * 4e6 / 512.0;
        assert!((f_peak - f).abs() < 10e3, "peak at {f_peak}");
    }

    #[test]
    fn gain_block_scales_power() {
        let mut g = GainBlock::from_db(6.0206);
        assert!((g.gain_db() - 6.0206).abs() < 1e-12);
        let out = g.process(&[tone(0.0, 1.0, 16)]).unwrap();
        assert!((out.power() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_filter_state() {
        let mut up = Upsampler::new(2);
        let a = up.process(&[tone(1e3, 1e6, 64)]).unwrap();
        up.reset();
        let b = up.process(&[tone(1e3, 1e6, 64)]).unwrap();
        assert_eq!(a, b);
    }
}
