//! The RF-simulator adapter: the Mother Model as a signal-source block.
//!
//! This is the reproduction of the paper's "APLAC Submodel" wrapping: from
//! the RF simulator's perspective, the whole digital OFDM transmitter is
//! one source block emitting a modulated baseband signal. RF designers
//! connect it to mixers, PAs and channels like any other stimulus.

use crate::error::ConfigError;
use crate::params::OfdmParams;
use crate::tx::{MotherModel, StageNanos, StreamState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::{Block, Signal, SimError};

/// A [`rfsim::Block`] signal source powered by a [`MotherModel`].
///
/// Each simulation pass transmits one frame of pseudo-random payload bits
/// (seeded for reproducibility), so repeated runs excite the RF chain with
/// statistically representative OFDM traffic. The payload buffer and the
/// transmitter's [`StreamState`] scratch are reused across passes — only
/// the RNG advances.
///
/// The source also implements the chunked streaming protocol
/// ([`Block::stream_chunk`]): under a streaming [`rfsim::ExecPlan`] it
/// emits the same frame in bounded chunks, bit-identical to the batch
/// output for the same seed.
///
/// # Example
///
/// ```
/// use ofdm_core::params::presets;
/// use ofdm_core::source::OfdmSource;
/// use rfsim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = OfdmSource::new(presets::minimal_test_params(), 480, 1)?;
/// let mut g = Graph::new();
/// let tx = g.add(src);
/// let pa = g.add(RappPa::new(1.0, 3.0));
/// g.connect(tx, pa, 0)?;
/// g.execute(&ExecPlan::batch())?;
/// assert!(g.output(pa).expect("ran").len() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OfdmSource {
    model: MotherModel,
    payload_bits: usize,
    seed: u64,
    rng: StdRng,
    name: String,
    /// Reused payload buffer — refilled from the RNG each pass, never
    /// reallocated.
    bits: Vec<u8>,
    /// Reused streaming/scratch state for the transmitter.
    stream: StreamState,
    /// Reused chunk staging buffer for `stream_chunk`.
    chunk: Vec<ofdm_dsp::Complex64>,
    /// Set at the start of a streaming pass; the first `stream_chunk` call
    /// draws the payload and arms the frame emitter.
    needs_frame: bool,
}

impl OfdmSource {
    /// Creates a source transmitting `payload_bits` random bits per pass.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`] the parameter set fails with.
    pub fn new(params: OfdmParams, payload_bits: usize, seed: u64) -> Result<Self, ConfigError> {
        let name = format!("ofdm-source({})", params.name);
        Ok(OfdmSource {
            model: MotherModel::new(params)?,
            payload_bits: payload_bits.max(1),
            seed,
            rng: StdRng::seed_from_u64(seed),
            name,
            bits: Vec::new(),
            stream: StreamState::new(),
            chunk: Vec::new(),
            needs_frame: false,
        })
    }

    /// Draws the next pass's payload into the reused bit buffer.
    fn fill_bits(&mut self) {
        self.bits.clear();
        self.bits.reserve(self.payload_bits);
        for _ in 0..self.payload_bits {
            self.bits.push(self.rng.gen_range(0..=1u8));
        }
    }

    /// Reconfigures the underlying Mother Model to a different standard.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`] the new parameter set fails with.
    pub fn reconfigure(&mut self, params: OfdmParams) -> Result<(), ConfigError> {
        self.name = format!("ofdm-source({})", params.name);
        self.model.reconfigure(params)
    }

    /// Immutable access to the wrapped transmitter.
    pub fn model(&self) -> &MotherModel {
        &self.model
    }

    /// The payload size per simulation pass in bits.
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// Enables or disables per-stage timing of the wrapped transmitter
    /// (pilot / map / IFFT / cyclic-prefix split). Off by default; the
    /// setting survives [`Block::reset`].
    pub fn set_stage_timing(&mut self, enabled: bool) {
        self.stream.set_stage_timing(enabled);
    }

    /// Stage timing accumulated since construction, reset, or the last
    /// [`Self::take_stage_nanos`]. All zero unless stage timing is enabled.
    pub fn stage_nanos(&self) -> StageNanos {
        self.stream.stage_nanos()
    }

    /// Returns the accumulated stage timing and zeroes the accumulator.
    pub fn take_stage_nanos(&mut self) -> StageNanos {
        self.stream.take_stage_nanos()
    }
}

impl Block for OfdmSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_count(&self) -> usize {
        0
    }

    fn process(&mut self, _inputs: &[Signal]) -> Result<Signal, SimError> {
        self.fill_bits();
        // Stream the whole frame in one go through the reused state — same
        // samples as `transmit`, without its per-call allocations.
        self.model
            .begin_stream(&self.bits, &mut self.stream)
            .map_err(|e| SimError::BlockFault {
                block: self.name.clone(),
                fault: e.to_string(),
            })?;
        let mut samples = Vec::new();
        self.model
            .stream_into(&mut self.stream, usize::MAX, &mut samples);
        Ok(Signal::new(samples, self.model.params().sample_rate))
    }

    fn supports_streaming(&self) -> bool {
        true
    }

    fn begin_stream(&mut self) {
        self.needs_frame = true;
    }

    fn stream_chunk(&mut self, max_samples: usize, out: &mut Signal) -> Result<usize, SimError> {
        if self.needs_frame {
            self.fill_bits();
            self.model
                .begin_stream(&self.bits, &mut self.stream)
                .map_err(|e| SimError::BlockFault {
                    block: self.name.clone(),
                    fault: e.to_string(),
                })?;
            self.needs_frame = false;
        }
        self.chunk.clear();
        let n = self
            .model
            .stream_into(&mut self.stream, max_samples, &mut self.chunk);
        out.assign(&self.chunk, self.model.params().sample_rate);
        Ok(n)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.model.reset();
        // Stage timing is configuration, not state: the flag stays, the
        // accumulated counters go with the rest of the stream state. The
        // buffers keep their capacity for the next pass.
        self.stream.reset();
        self.needs_frame = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::presets::minimal_test_params;
    use rfsim::prelude::*;

    #[test]
    fn emits_frames_into_graph() {
        let src = OfdmSource::new(minimal_test_params(), 240, 7).unwrap();
        assert_eq!(src.payload_bits(), 240);
        let mut g = Graph::new();
        let tx = g.add(src);
        let meter = g.add(PowerMeter::new());
        g.connect(tx, meter, 0).unwrap();
        g.execute(&ExecPlan::batch()).unwrap();
        let out = g.output(tx).unwrap();
        // 240 bits / 24 per symbol = 10 symbols × 80 samples.
        assert_eq!(out.len(), 800);
        assert_eq!(out.sample_rate(), 1.0e6);
        let p = g.block::<PowerMeter>(meter).unwrap().power().unwrap();
        assert!((p - 1.0).abs() < 0.1, "power {p}");
    }

    #[test]
    fn stream_chunks_concatenate_to_batch_frame() {
        let mut batch = OfdmSource::new(minimal_test_params(), 240, 11).unwrap();
        let want = batch.process(&[]).unwrap();
        for chunk_len in [1usize, 7, 80, 4096] {
            let mut src = OfdmSource::new(minimal_test_params(), 240, 11).unwrap();
            assert!(src.supports_streaming());
            src.begin_stream();
            let mut got = Signal::empty(want.sample_rate());
            let mut chunk = Signal::default();
            loop {
                let n = src.stream_chunk(chunk_len, &mut chunk).unwrap();
                if n == 0 {
                    break;
                }
                assert!(n <= chunk_len);
                got.extend_from(&chunk);
            }
            assert_eq!(got, want, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn payload_buffer_is_reused_across_passes() {
        let mut src = OfdmSource::new(minimal_test_params(), 480, 5).unwrap();
        let _ = src.process(&[]).unwrap();
        let cap = src.bits.capacity();
        for _ in 0..4 {
            let _ = src.process(&[]).unwrap();
        }
        assert_eq!(src.bits.capacity(), cap, "bit buffer must not reallocate");
    }

    #[test]
    fn deterministic_after_reset() {
        let mut src = OfdmSource::new(minimal_test_params(), 96, 3).unwrap();
        let a = src.process(&[]).unwrap();
        src.reset();
        let b = src.process(&[]).unwrap();
        assert_eq!(a, b);
        // Without reset the payload differs.
        let c = src.process(&[]).unwrap();
        assert_ne!(b, c);
    }

    #[test]
    fn reconfigure_renames_block() {
        let mut src = OfdmSource::new(minimal_test_params(), 96, 3).unwrap();
        assert!(src.name().contains("minimal-test"));
        let mut p = minimal_test_params();
        p.name = "other".into();
        src.reconfigure(p).unwrap();
        assert!(src.name().contains("other"));
        assert_eq!(src.model().params().name, "other");
    }

    #[test]
    fn stage_timing_passthrough_survives_reset() {
        let mut src = OfdmSource::new(minimal_test_params(), 240, 9).unwrap();
        assert_eq!(src.stage_nanos(), StageNanos::default());
        src.set_stage_timing(true);
        let _ = src.process(&[]).unwrap();
        let stages = src.stage_nanos();
        assert_eq!(stages.symbols, 10);
        assert!(
            stages.map > 0 && stages.ifft > 0 && stages.cp > 0,
            "{stages:?}"
        );
        // Reset drops the counters but keeps the timing flag.
        src.reset();
        assert_eq!(src.stage_nanos(), StageNanos::default());
        let _ = src.process(&[]).unwrap();
        assert!(src.stage_nanos().symbols == 10, "flag lost across reset");
        let taken = src.take_stage_nanos();
        assert_eq!(taken.symbols, 10);
        assert_eq!(src.stage_nanos(), StageNanos::default());
    }

    #[test]
    fn zero_payload_clamped_to_one() {
        let src = OfdmSource::new(minimal_test_params(), 0, 1).unwrap();
        assert_eq!(src.payload_bits(), 1);
    }
}
