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
//! use ofdm_dsp::{Complex64, fft::Fft};
//!
//! let fft = Fft::new(64);
//! let mut buf = vec![Complex64::ZERO; 64];
//! buf[1] = Complex64::new(1.0, 0.0); // a single complex tone
//! fft.inverse(&mut buf);
//! // Time-domain samples now hold one cycle of a complex exponential.
//! assert!((buf[0].re - 1.0 / 64.0).abs() < 1e-12);
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
