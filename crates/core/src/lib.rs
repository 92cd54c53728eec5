//! # The OFDM Mother Model
//!
//! A *reconfigurable, behavioral-level OFDM transmitter IP block*: the
//! primary contribution of Heusala & Liedes, *"Modeling of a Reconfigurable
//! OFDM IP Block Family For an RF System Simulator"* (DATE 2005).
//!
//! One transmitter engine — [`tx::MotherModel`] — implements the digital
//! baseband processing common to an entire **standard family** (802.11a,
//! 802.11g, ADSL, ADSL2+, VDSL, DRM, DAB, DVB-T, 802.16a, HomePlug 1.0).
//! Which standard the block implements is decided purely by its parameter
//! set, [`params::OfdmParams`]: changing standards is a reconfiguration,
//! not a redesign.
//!
//! The processing chain, every stage of which is parameter-controlled and
//! optional:
//!
//! ```text
//! bits → scramble → RS outer code → convolutional code + puncturing
//!      → interleave → constellation map (per-carrier bit loading)
//!      → pilot insertion → differential encode → IFFT grid
//!      → IFFT (+ Hermitian symmetry for DMT) → cyclic prefix/suffix
//!      → raised-cosine edge windowing → preamble/frame assembly
//! ```
//!
//! The [`source::OfdmSource`] wrapper embeds the model into the
//! [`rfsim`] RF system simulator as a plain signal-source block — the
//! "APLAC Submodel" of the paper.
//!
//! # Example
//!
//! ```
//! use ofdm_core::params::presets;
//! use ofdm_core::tx::MotherModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small OFDM system, configured directly (the ten real standards
//! // live in the `ofdm-standards` crate).
//! let params = presets::minimal_test_params();
//! let mut tx = MotherModel::new(params)?;
//! let bits = vec![1u8; 96];
//! let frame = tx.transmit(&bits)?;
//! assert!(!frame.signal().is_empty());
//! # Ok(())
//! # }
//! ```

pub mod ber;
pub mod constellation;
pub mod error;
pub mod fec;
pub mod framing;
pub mod interleave;
pub mod map;
pub mod params;
pub mod pilots;
pub mod scramble;
pub mod source;
pub mod symbol;
pub mod tx;

pub use ber::{count_bit_errors, BerCounter, BitSource};
pub use error::{ConfigError, TxError};
pub use params::OfdmParams;
pub use tx::{Frame, MotherModel, StageNanos, StreamState};
