//! # Reference OFDM receivers
//!
//! Verification substrate for the Mother Model: demodulators, channel
//! estimation, equalization and FEC decoding sufficient to close a
//! bit-exact loopback over any of the ten standard presets, plus
//! synchronization utilities (Schmidl–Cox, CP-based CFO estimation) for
//! the impairment experiments.
//!
//! These receivers are deliberately *reference-grade*, not product-grade:
//! they lean on knowledge of the transmit parameter set (as the paper's
//! executable-specification methodology intends) and expose every
//! intermediate (cells, hard bits, estimates) for instrumentation.
//!
//! # Example
//!
//! ```
//! use ofdm_core::{params::presets, MotherModel};
//! use ofdm_rx::receiver::ReferenceReceiver;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = presets::minimal_test_params();
//! let mut tx = MotherModel::new(params.clone())?;
//! let payload: Vec<u8> = (0..48).map(|i| (i % 2) as u8).collect();
//! let frame = tx.transmit(&payload)?;
//!
//! let mut rx = ReferenceReceiver::new(params)?;
//! let decoded = rx.receive(frame.signal(), payload.len())?;
//! assert_eq!(decoded, payload);
//! # Ok(())
//! # }
//! ```

pub mod demod;
pub mod eq;
pub mod fec;
pub mod loading;
pub mod receiver;
pub mod sync;
pub mod wlan;

pub use receiver::{ReferenceReceiver, RxError};
