//! The simulator's block abstraction and error type.

use crate::signal::Signal;
use crate::supervise::BlockRole;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors produced while building or running a simulation graph.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The graph contains a dependency cycle and cannot be scheduled.
    GraphCycle,
    /// A block input port was left unconnected.
    MissingInput {
        /// Name of the starved block.
        block: String,
        /// Index of the unconnected port.
        port: usize,
    },
    /// Two connections target the same input port.
    PortConflict {
        /// Name of the block whose port is double-driven.
        block: String,
        /// The contested port index.
        port: usize,
    },
    /// A connection references a port beyond the block's input count.
    InvalidPort {
        /// Name of the target block.
        block: String,
        /// The out-of-range port index.
        port: usize,
        /// How many inputs the block actually has.
        inputs: usize,
    },
    /// A block received signals at incompatible sample rates.
    RateMismatch {
        /// Name of the complaining block.
        block: String,
        /// The rate it expected (Hz).
        expected: f64,
        /// The rate it received (Hz).
        got: f64,
    },
    /// A block-specific runtime failure.
    BlockFailure {
        /// Name of the failing block.
        block: String,
        /// Human-readable cause.
        message: String,
    },
    /// A signal was constructed with a sample rate that is not positive
    /// and finite ([`crate::Signal::try_new`]).
    InvalidSampleRate {
        /// The offending rate (Hz).
        rate: f64,
    },
    /// A block id did not belong to this graph.
    UnknownBlock,
    /// A streaming pass was requested with a zero chunk length.
    InvalidChunkLen,
    /// A block emitted a non-finite (NaN or infinite) sample. Raised by
    /// the scheduler when the plan enables
    /// [`crate::ExecPlan::guard_non_finite`], or by blocks that validate
    /// their own output.
    NonFiniteSample {
        /// Name of the block whose output contained the sample.
        block: String,
        /// Index of the first offending sample within the output.
        index: usize,
    },
    /// A fault was injected into — or detected at — a block by the
    /// [`crate::fault`] layer.
    BlockFault {
        /// Name of the faulting block.
        block: String,
        /// What fault fired.
        fault: String,
    },
    /// The run exceeded its wall-clock budget
    /// ([`crate::ExecPlan::with_budget`]). Raised at the first block boundary
    /// past the deadline.
    DeadlineExceeded {
        /// Name of the block about to run when the overrun was detected.
        block: String,
        /// Wall time elapsed since the run started.
        elapsed: Duration,
    },
    /// The run was cancelled cooperatively via a
    /// [`crate::supervise::CancelToken`]. Raised at the first block
    /// boundary after cancellation.
    Cancelled {
        /// Name of the block about to run when cancellation was observed.
        block: String,
    },
    /// A sweep checkpoint file exists but cannot be decoded — truncated
    /// or corrupted mid-write. Raised by
    /// [`crate::supervise::SweepCheckpoint::load`] so a resume fails
    /// loudly instead of silently restarting the sweep from zero.
    CheckpointCorrupt {
        /// Path of the unreadable checkpoint file.
        path: String,
        /// What failed while decoding it.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::GraphCycle => write!(f, "simulation graph contains a cycle"),
            SimError::MissingInput { block, port } => {
                write!(f, "block `{block}` input port {port} is unconnected")
            }
            SimError::PortConflict { block, port } => {
                write!(f, "block `{block}` input port {port} is driven twice")
            }
            SimError::InvalidPort {
                block,
                port,
                inputs,
            } => write!(
                f,
                "block `{block}` has {inputs} input(s); port {port} does not exist"
            ),
            SimError::RateMismatch {
                block,
                expected,
                got,
            } => write!(
                f,
                "block `{block}` expected {expected} Hz input but received {got} Hz"
            ),
            SimError::BlockFailure { block, message } => {
                write!(f, "block `{block}` failed: {message}")
            }
            SimError::InvalidSampleRate { rate } => {
                write!(f, "sample rate must be positive and finite, got {rate}")
            }
            SimError::UnknownBlock => write!(f, "block id does not belong to this graph"),
            SimError::InvalidChunkLen => {
                write!(f, "streaming chunk length must be nonzero")
            }
            SimError::NonFiniteSample { block, index } => {
                write!(
                    f,
                    "block `{block}` emitted a non-finite sample at index {index}"
                )
            }
            SimError::BlockFault { block, fault } => {
                write!(f, "block `{block}` faulted: {fault}")
            }
            SimError::DeadlineExceeded { block, elapsed } => {
                write!(
                    f,
                    "run exceeded its deadline at block `{block}` after {:.3} ms",
                    elapsed.as_secs_f64() * 1e3
                )
            }
            SimError::Cancelled { block } => {
                write!(f, "run cancelled at block `{block}`")
            }
            SimError::CheckpointCorrupt { path, detail } => {
                write!(f, "checkpoint file `{path}` is corrupt: {detail}")
            }
        }
    }
}

impl Error for SimError {}

/// A behavioral simulation block: consumes input signals, produces one
/// output signal.
///
/// Sources report `input_count() == 0`, ignore the (empty) input slice and
/// produce their pass through [`Block::process`] (and, if they stream,
/// [`Block::stream_chunk`]). Every other block holds its DSP in exactly one
/// place, [`Block::process_chunk`]: a batch pass is one maximal chunk, so
/// batch and streaming share the code and cannot drift apart. Instruments
/// pass their input through unchanged and expose measurements via their
/// own inherent methods after the run.
///
/// Blocks process whole signal blocks (frames), matching the behavioral
/// abstraction level the paper argues for: no per-sample event scheduling.
///
/// The `Any` supertrait lets [`crate::Graph::block`] hand instruments back
/// to the caller by concrete type after a run.
pub trait Block: Send + std::any::Any {
    /// Human-readable block name used in error messages.
    fn name(&self) -> &str;

    /// Number of input ports (0 for sources).
    fn input_count(&self) -> usize {
        1
    }

    /// The block's supervision role, consulted by the circuit-breaker
    /// layer ([`crate::ExecPlan::with_breaker_policy`]) to decide between
    /// pass-through bypass and fail-fast when the block fails repeatedly.
    ///
    /// Defaults to [`BlockRole::Source`] for input-less blocks and
    /// [`BlockRole::Essential`] otherwise; impairments and instruments
    /// override this to opt into degraded-mode bypass.
    fn role(&self) -> BlockRole {
        if self.input_count() == 0 {
            BlockRole::Source
        } else {
            BlockRole::Essential
        }
    }

    /// Processes one whole simulation pass.
    ///
    /// `inputs` holds exactly `input_count()` signals, ordered by port.
    /// Sources override this to emit their pass. For every other block the
    /// provided method is the pass as one maximal chunk:
    /// [`Block::begin_stream`], one [`Block::process_chunk`] over the whole
    /// input, then [`Block::end_stream`].
    ///
    /// # Errors
    ///
    /// Whatever the three hooks return: [`SimError::BlockFailure`] (or
    /// [`SimError::RateMismatch`]) for conditions detectable only at run
    /// time.
    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        self.begin_stream();
        let inputs: Vec<&Signal> = inputs.iter().collect();
        let mut out = Signal::default();
        self.process_chunk(&inputs, &mut out)?;
        self.end_stream()?;
        Ok(out)
    }

    /// Clears internal state (delay lines, accumulators) between runs.
    fn reset(&mut self) {}

    /// Hook called once before the first chunk of a pass, batch or
    /// streaming. Blocks zero per-pass state here (a delay line that must
    /// start empty); instruments arm their accumulators.
    fn begin_stream(&mut self) {}

    /// Processes one chunk of a pass into a reused output buffer — the one
    /// place an interior block holds its DSP.
    ///
    /// `inputs` holds exactly `input_count()` chunk signals, ordered by
    /// port; `out` arrives with whatever the block wrote last chunk and
    /// must be overwritten, sample rate included. Stateful blocks (filters,
    /// channels with running phase) rely on chunks arriving in order. A
    /// batch pass is a single call over the whole input, so a block whose
    /// chunk-sequential output equals that single call is chunk-invariant.
    ///
    /// # Errors
    ///
    /// [`SimError::BlockFailure`] by default (sources have no chunk path);
    /// implementations return [`SimError::BlockFailure`] or
    /// [`SimError::RateMismatch`] for conditions detectable only at run
    /// time.
    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        let _ = (inputs, out);
        Err(SimError::BlockFailure {
            block: self.name().to_owned(),
            message: "block does not process input chunks".into(),
        })
    }

    /// Hook called once after the final chunk of a pass, batch or
    /// streaming. Instruments finalize whole-pass measurements here.
    ///
    /// # Errors
    ///
    /// [`SimError::BlockFailure`] if finalization fails.
    fn end_stream(&mut self) -> Result<(), SimError> {
        Ok(())
    }

    /// Whether this source can emit its pass output in bounded chunks via
    /// [`Block::stream_chunk`]. Non-streaming sources are batch-evaluated
    /// once and sliced by the scheduler.
    fn supports_streaming(&self) -> bool {
        false
    }

    /// Produces the next chunk of this source's pass, at most
    /// `max_samples`, into `out` (overwritten). Returns the number of
    /// samples produced; `0` means the pass is exhausted.
    ///
    /// Only meaningful for sources (`input_count() == 0`) that report
    /// [`Block::supports_streaming`].
    ///
    /// # Errors
    ///
    /// [`SimError::BlockFailure`] by default (the block does not stream).
    fn stream_chunk(&mut self, max_samples: usize, out: &mut Signal) -> Result<usize, SimError> {
        let _ = (max_samples, out);
        Err(SimError::BlockFailure {
            block: self.name().to_owned(),
            message: "block does not support chunked streaming".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty_and_lowercase_start() {
        let errs: Vec<SimError> = vec![
            SimError::GraphCycle,
            SimError::MissingInput {
                block: "pa".into(),
                port: 0,
            },
            SimError::PortConflict {
                block: "mix".into(),
                port: 1,
            },
            SimError::InvalidPort {
                block: "mix".into(),
                port: 3,
                inputs: 2,
            },
            SimError::RateMismatch {
                block: "fir".into(),
                expected: 1.0,
                got: 2.0,
            },
            SimError::BlockFailure {
                block: "src".into(),
                message: "no data".into(),
            },
            SimError::InvalidSampleRate { rate: -1.0 },
            SimError::UnknownBlock,
            SimError::InvalidChunkLen,
            SimError::NonFiniteSample {
                block: "pa".into(),
                index: 12,
            },
            SimError::BlockFault {
                block: "pa".into(),
                fault: "injected panic".into(),
            },
            SimError::DeadlineExceeded {
                block: "pa".into(),
                elapsed: Duration::from_millis(150),
            },
            SimError::Cancelled { block: "pa".into() },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
            // std::error::Error is implemented.
            let _: &dyn Error = &e;
        }
    }

    #[test]
    fn default_process_is_one_maximal_chunk() {
        use ofdm_dsp::Complex64;
        /// Doubles its input and counts the hook calls around it.
        #[derive(Default)]
        struct Doubler {
            begun: u32,
            chunks: u32,
            ended: u32,
        }
        impl Block for Doubler {
            fn name(&self) -> &str {
                "doubler"
            }
            fn begin_stream(&mut self) {
                self.begun += 1;
            }
            fn process_chunk(
                &mut self,
                inputs: &[&Signal],
                out: &mut Signal,
            ) -> Result<(), SimError> {
                self.chunks += 1;
                out.copy_from(inputs[0]);
                out.map_in_place(|z| z.scale(2.0));
                Ok(())
            }
            fn end_stream(&mut self) -> Result<(), SimError> {
                self.ended += 1;
                Ok(())
            }
        }
        let mut b = Doubler::default();
        assert!(!b.supports_streaming());
        let out = b
            .process(&[Signal::new(vec![Complex64::ONE; 3], 1.0e6)])
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.sample_rate(), 1.0e6);
        assert!((out.samples()[0].re - 2.0).abs() < 1e-15);
        assert_eq!((b.begun, b.chunks, b.ended), (1, 1, 1));
        // Non-streaming blocks reject stream_chunk by default.
        let mut scratch = Signal::default();
        assert!(matches!(
            b.stream_chunk(8, &mut scratch),
            Err(SimError::BlockFailure { .. })
        ));
    }

    #[test]
    fn trait_object_safe() {
        struct Null;
        impl Block for Null {
            fn name(&self) -> &str {
                "null"
            }
            fn input_count(&self) -> usize {
                0
            }
            fn process(&mut self, _: &[Signal]) -> Result<Signal, SimError> {
                Ok(Signal::empty(1.0))
            }
        }
        let mut b: Box<dyn Block> = Box::new(Null);
        assert_eq!(b.name(), "null");
        assert_eq!(b.input_count(), 0);
        assert!(b.process(&[]).unwrap().is_empty());
        // A source has no chunk path to fall back on.
        assert!(matches!(
            b.process_chunk(&[], &mut Signal::default()),
            Err(SimError::BlockFailure { .. })
        ));
        b.reset();
    }

    #[test]
    fn default_role_follows_input_count() {
        struct Src;
        impl Block for Src {
            fn name(&self) -> &str {
                "src"
            }
            fn input_count(&self) -> usize {
                0
            }
            fn process(&mut self, _: &[Signal]) -> Result<Signal, SimError> {
                Ok(Signal::empty(1.0))
            }
        }
        struct Stage;
        impl Block for Stage {
            fn name(&self) -> &str {
                "stage"
            }
        }
        assert_eq!(Src.role(), BlockRole::Source);
        assert_eq!(Stage.role(), BlockRole::Essential);
    }
}
