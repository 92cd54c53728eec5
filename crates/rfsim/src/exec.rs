//! The execution engine: one plan, one scheduler.
//!
//! An [`ExecPlan`] describes *one* graph pass — its mode plus every
//! feature toggle — and [`Graph::execute`](crate::Graph::execute), the only
//! way to run a graph, owns the scheduler loop that interprets it. The
//! sweep analogue is [`SweepPlan`](crate::scenario::SweepPlan).
//!
//! The same move the paper makes at the model level — one Mother Model,
//! N parameterizations — applied to execution: one engine, N plans.
//! Features *compose* here (any mode × telemetry × guard × budget ×
//! cancellation × breakers) instead of multiplying entrypoints.
//!
//! # Example
//!
//! ```
//! use rfsim::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! let mut g = Graph::new();
//! let tone = g.add(ToneSource::new(0.0, 1.0e6, 256));
//! let meter = g.add(PowerMeter::new());
//! g.connect(tone, meter, 0)?;
//!
//! // One plan: streaming pass, instrumented, guarded against NaN/inf.
//! let plan = ExecPlan::streaming(64)
//!     .with_telemetry(true)
//!     .guard_non_finite(true);
//! let report = g.execute(&plan)?.expect("telemetry was requested");
//! assert_eq!(report.mode, RunMode::Streaming { chunk_len: 64 });
//! # Ok(())
//! # }
//! ```

use crate::supervise::{BreakerPolicy, BreakerState, CancelToken, Health};
use crate::telemetry::RunMode;
use std::time::Duration;

/// How one execution moves samples through the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Whole-pass evaluation: each block processes the entire pass at once
    /// and every node's output is retained. Peak memory is
    /// O(pass length × nodes).
    #[default]
    Batch,
    /// Chunked evaluation through reused per-edge buffers; outputs are
    /// retained only for probed nodes. Peak memory is
    /// O(chunk length × nodes).
    Streaming {
        /// Maximum samples per chunk; zero is rejected with
        /// [`SimError::InvalidChunkLen`](crate::SimError::InvalidChunkLen).
        chunk_len: usize,
    },
}

impl From<ExecMode> for RunMode {
    fn from(mode: ExecMode) -> Self {
        match mode {
            ExecMode::Batch => RunMode::Batch,
            ExecMode::Streaming { chunk_len } => RunMode::Streaming { chunk_len },
        }
    }
}

/// A complete description of one graph execution: the mode plus every
/// feature toggle the engine understands.
///
/// Built with the builder methods and handed to
/// [`Graph::execute`](crate::Graph::execute). The plan is the *whole*
/// truth for a pass — the graph carries no execution options — so two
/// executions with the same plan are wired identically.
#[derive(Debug, Clone, Default)]
pub struct ExecPlan {
    mode: ExecMode,
    telemetry: bool,
    guard_non_finite: bool,
    budget: Option<Duration>,
    cancel: Option<CancelToken>,
    breakers: Option<BreakerPolicy>,
}

impl ExecPlan {
    /// A whole-pass batch plan with every feature off.
    pub fn batch() -> Self {
        ExecPlan::default()
    }

    /// A chunked streaming plan with every feature off.
    pub fn streaming(chunk_len: usize) -> Self {
        ExecPlan {
            mode: ExecMode::Streaming { chunk_len },
            ..ExecPlan::default()
        }
    }

    /// Builder: record per-block timing, sample flow and buffer high-water
    /// marks into a [`RunReport`](crate::RunReport). Off by default — an
    /// unrecorded pass pays no instrumentation cost.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Builder: scan every block output for NaN/inf samples and fail the
    /// pass with
    /// [`SimError::NonFiniteSample`](crate::SimError::NonFiniteSample) at
    /// the first hit. Off by default — the scan is O(samples) per block;
    /// fault-injection sweeps ([`crate::fault`]) turn it on to convert
    /// corruption into typed errors.
    pub fn guard_non_finite(mut self, enabled: bool) -> Self {
        self.guard_non_finite = enabled;
        self
    }

    /// Builder: arm a wall-clock [`Deadline`](crate::supervise::Deadline)
    /// at execution start, checked at every block boundary.
    pub fn with_budget(mut self, budget: Option<Duration>) -> Self {
        self.budget = budget;
        self
    }

    /// Builder: poll a cooperative [`CancelToken`] at block boundaries.
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// Builder: enable per-block circuit breakers under `policy` (see
    /// [`Graph::execute`](crate::Graph::execute) for the bypass/fail-fast
    /// semantics).
    pub fn with_breaker_policy(mut self, policy: Option<BreakerPolicy>) -> Self {
        self.breakers = policy;
        self
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Whether the pass records a [`RunReport`](crate::RunReport).
    pub fn telemetry(&self) -> bool {
        self.telemetry
    }

    /// Whether block outputs are scanned for non-finite samples.
    pub fn guards_non_finite(&self) -> bool {
        self.guard_non_finite
    }

    /// The wall-clock budget, if any.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// The cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The circuit-breaker policy, if any.
    pub fn breaker_policy(&self) -> Option<BreakerPolicy> {
        self.breakers
    }
}

/// The graph's runtime state, kept separate from its structure (nodes and
/// wiring).
///
/// One `ExecState` lives on each [`Graph`](crate::Graph); every execution begins by
/// resetting the per-run portion ([`ExecState::begin_run`]) and
/// [`Graph::reset`](crate::Graph::reset) replaces the whole value — reset
/// semantics are structural, not a convention of clearing individual
/// fields. Circuit-breaker states deliberately survive from run to run
/// (fail-fast on an open breaker depends on remembering past failures);
/// everything else describes the most recent execution only.
#[derive(Debug, Default)]
pub(crate) struct ExecState {
    /// Condition of the most recent execution.
    pub(crate) health: Health,
    /// Breaker trips (transitions into `Open`) during the most recent
    /// execution.
    pub(crate) breaker_trips: u64,
    /// Invocations bypassed by open breakers during the most recent
    /// execution.
    pub(crate) bypassed_invocations: u64,
    /// Per-node circuit-breaker state; survives across executions.
    pub(crate) breakers: Vec<BreakerState>,
    /// Per-node bypassed-invocation counts for the most recent execution.
    pub(crate) bypassed: Vec<u64>,
}

impl ExecState {
    /// Fresh state for a graph of `n` nodes.
    pub(crate) fn with_nodes(n: usize) -> Self {
        ExecState {
            breakers: vec![BreakerState::default(); n],
            bypassed: vec![0; n],
            ..ExecState::default()
        }
    }

    /// Extends the per-node slots for a newly added block.
    pub(crate) fn push_node(&mut self) {
        self.breakers.push(BreakerState::default());
        self.bypassed.push(0);
    }

    /// Resets the per-run portion at execution start. Breaker states
    /// persist (their memory is the fail-fast contract).
    pub(crate) fn begin_run(&mut self) {
        self.health = Health::Healthy;
        self.breaker_trips = 0;
        self.bypassed_invocations = 0;
        self.bypassed.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_roundtrips_every_toggle() {
        let token = CancelToken::new();
        let plan = ExecPlan::streaming(96)
            .with_telemetry(true)
            .guard_non_finite(true)
            .with_budget(Some(Duration::from_millis(5)))
            .with_cancel_token(Some(token.clone()))
            .with_breaker_policy(Some(BreakerPolicy::new().with_threshold(2)));
        assert_eq!(plan.mode(), ExecMode::Streaming { chunk_len: 96 });
        assert!(plan.telemetry());
        assert!(plan.guards_non_finite());
        assert_eq!(plan.budget(), Some(Duration::from_millis(5)));
        assert!(plan.cancel_token().is_some());
        assert_eq!(
            plan.breaker_policy().map(|p| p.threshold()),
            Some(2),
            "policy carried"
        );
    }

    #[test]
    fn default_plan_is_a_plain_batch_pass() {
        let plan = ExecPlan::default();
        assert_eq!(plan.mode(), ExecMode::Batch);
        assert!(!plan.telemetry());
        assert!(!plan.guards_non_finite());
        assert!(plan.budget().is_none());
        assert!(plan.cancel_token().is_none());
        assert!(plan.breaker_policy().is_none());
        assert_eq!(ExecPlan::batch().mode(), ExecPlan::default().mode());
    }

    #[test]
    fn exec_mode_maps_onto_run_mode() {
        assert_eq!(RunMode::from(ExecMode::Batch), RunMode::Batch);
        assert_eq!(
            RunMode::from(ExecMode::Streaming { chunk_len: 7 }),
            RunMode::Streaming { chunk_len: 7 }
        );
    }

    #[test]
    fn exec_state_begin_run_resets_per_run_but_keeps_breakers() {
        let mut state = ExecState::with_nodes(2);
        state.health = Health::Degraded;
        state.breaker_trips = 3;
        state.bypassed_invocations = 9;
        state.bypassed[1] = 4;
        state.breakers[0] = BreakerState::Open { bypassed: 1 };
        state.begin_run();
        assert_eq!(state.health, Health::Healthy);
        assert_eq!(state.breaker_trips, 0);
        assert_eq!(state.bypassed_invocations, 0);
        assert_eq!(state.bypassed, vec![0, 0]);
        assert!(state.breakers[0].is_open(), "breaker memory survives runs");
        state.push_node();
        assert_eq!(state.breakers.len(), 3);
        assert_eq!(state.bypassed.len(), 3);
    }
}
