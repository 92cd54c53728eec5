//! DSP substrate for the reconfigurable OFDM IP block family.
//!
//! This crate provides every signal-processing primitive the
//! [Mother Model](https://doi.org/10.1109/DATE.2005.209) reproduction needs,
//! implemented from scratch (no DSP crates exist in the offline dependency
//! set): complex arithmetic, one mixed-radix fast Fourier transform for
//! power-of-two *and* arbitrary lengths, window functions, FIR design and
//! filtering, rational resampling, a numerically controlled oscillator, pseudo-random
//! binary sequences, and spectral estimation.
//!
//! # Example
//!
//! ```
//! use ofdm_dsp::fft::{Fft, FftScratch};
//!
//! // Samples are split into real and imaginary slices.
//! let fft = Fft::new(64);
//! let (mut re, mut im) = (vec![0.0; 64], vec![0.0; 64]);
//! re[1] = 1.0; // a single complex tone
//! fft.inverse_split_in(&mut re, &mut im, &mut FftScratch::new());
//! // Time-domain samples now hold one cycle of a complex exponential.
//! assert!((re[0] - 1.0 / 64.0).abs() < 1e-12);
//! ```

pub mod bits;
pub mod complex;
pub mod fft;
pub mod fir;
pub mod kernels;
pub mod nco;
pub mod resample;
pub mod spectrum;
pub mod stats;
pub mod window;

pub use complex::Complex64;
