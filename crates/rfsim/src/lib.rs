//! A block-diagram RF system simulator.
//!
//! This crate is the reproduction's stand-in for the APLAC® System Simulator
//! used by the paper: a directed signal-flow graph of analog/RF behavioral
//! blocks — oscillators with phase noise, mixers, power-amplifier models,
//! filters, channels — plus measurement instruments (spectrum analyzer, power
//! meter, ACPR, spectral-mask checker).
//!
//! Digital IP such as the OFDM Mother Model plugs in through the [`Block`]
//! trait exactly like the paper wraps its model into an "APLAC Submodel":
//! from the simulator's point of view the transmitter is just another signal
//! source block.
//!
//! Signals are complex baseband sample blocks ([`signal::Signal`]) carrying
//! their sample rate; the engine checks rate compatibility at every
//! connection.
//!
//! # Example
//!
//! ```
//! use rfsim::prelude::*;
//!
//! # fn main() -> Result<(), rfsim::SimError> {
//! let mut g = Graph::new();
//! let src = g.add(ToneSource::new(1.0e6, 20.0e6, 4096));
//! let amp = g.add(RappPa::new(1.0, 2.0).with_gain_db(10.0));
//! g.connect(src, amp, 0)?;
//! g.execute(&ExecPlan::batch())?;
//! let out = g.output(amp).expect("amplifier ran");
//! assert_eq!(out.sample_rate(), 20.0e6);
//! # Ok(())
//! # }
//! ```

pub mod analog;
pub mod block;
pub mod channel;
pub mod exec;
pub mod fault;
pub mod filter;
pub mod graph;
pub mod instruments;
pub mod pa;
pub mod rate;
pub mod scenario;
pub mod signal;
pub mod source;
pub mod supervise;
pub mod telemetry;

pub use block::{Block, SimError};
pub use channel::{CfoChannel, FadingChannel, FadingTap, PhaseNoiseChannel};
pub use exec::{ExecMode, ExecPlan};
pub use fault::{
    ClockDriftJitter, FaultInjector, FaultPlan, FaultStats, NanInjector, SampleDropper,
    StalledSource,
};
pub use graph::{BlockId, Graph};
pub use scenario::{scenario_seed, RetryPolicy, ScenarioCtx, ScenarioOutcome, SweepPlan};
pub use signal::Signal;
pub use supervise::{
    BlockRole, BreakerPolicy, BreakerState, CancelToken, CheckpointEntry, CheckpointPayload,
    Deadline, Health, Lease, LeaseReaper, SupervisionReport, SweepCheckpoint, SweepSupervisor,
};
pub use telemetry::{BlockStats, FaultReport, Percentiles, RunMode, RunReport, SweepReport};

/// Convenient glob-import surface for simulator users.
pub mod prelude {
    pub use crate::analog::{Combiner, Dac, IqImbalance, LocalOscillator, Mixer};
    pub use crate::block::{Block, SimError};
    pub use crate::channel::{
        AwgnChannel, CfoChannel, DslLineChannel, FadingChannel, FadingTap, ImpulsiveNoiseChannel,
        MultipathChannel, PhaseNoiseChannel,
    };
    pub use crate::exec::{ExecMode, ExecPlan};
    pub use crate::fault::{
        ClockDriftJitter, FaultInjector, FaultPlan, FaultStats, NanInjector, SampleDropper,
        StalledSource,
    };
    pub use crate::filter::{ButterworthLowpass, FirBlock};
    pub use crate::graph::{BlockId, Graph};
    pub use crate::instruments::{
        AcprMeter, CcdfProbe, MaskChecker, MaskPoint, PowerMeter, SpectrumAnalyzer,
    };
    pub use crate::pa::{RappPa, SalehPa, SoftClipPa};
    pub use crate::rate::{Downsampler, GainBlock, Upsampler};
    pub use crate::scenario::{
        scenario_seed, RetryPolicy, ScenarioCtx, ScenarioOutcome, SweepPlan,
    };
    pub use crate::signal::Signal;
    pub use crate::source::{SamplePlayback, ToneSource};
    pub use crate::supervise::{
        BlockRole, BreakerPolicy, BreakerState, CancelToken, CheckpointEntry, CheckpointPayload,
        Deadline, Health, Lease, LeaseReaper, SupervisionReport, SweepCheckpoint, SweepSupervisor,
    };
    pub use crate::telemetry::{
        BlockStats, FaultReport, Percentiles, RunMode, RunReport, SweepReport,
    };
}
