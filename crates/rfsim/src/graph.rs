//! The simulation netlist and its scheduler.
//!
//! A [`Graph`] owns blocks, records point-to-point connections and executes
//! one simulation pass in dependency order. There is exactly one scheduler:
//! [`Graph::execute`] interprets an [`ExecPlan`] describing the pass — its
//! mode plus every feature toggle (telemetry, non-finite guard, deadline
//! budget, cancellation, circuit breakers). Two modes exist:
//!
//! * [`ExecMode::Batch`] — each block processes the whole pass at once and
//!   every node's output is retained for inspection, like probing all
//!   nodes of an RF schematic. Peak memory is O(pass length × nodes).
//! * [`ExecMode::Streaming`] — samples move through the graph in bounded
//!   chunks through per-edge buffers that are reused from chunk to chunk,
//!   so peak memory is O(chunk length × nodes). Node outputs are retained
//!   only for nodes opted in via [`Graph::probe`]; instruments accumulate
//!   across chunks and finalize in [`Block::end_stream`].
//!
//! The graph itself carries no execution options: the plan is the whole
//! truth for a pass, so two executions with the same plan are wired
//! identically.

use crate::block::{Block, SimError};
use crate::exec::{ExecMode, ExecPlan, ExecState};
use crate::signal::Signal;
use crate::supervise::{BreakerPolicy, BreakerState, Deadline, Health};
use crate::telemetry::{Recorder, RunReport};

/// Opaque handle to a block inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(usize);

struct Node {
    block: Box<dyn Block>,
    /// `inputs[port] = Some(source)` once connected.
    inputs: Vec<Option<BlockId>>,
    output: Option<Signal>,
    /// Retain this node's output during streaming runs.
    probed: bool,
}

/// How a source node is fed during one execution.
enum Feed {
    /// Batch pass: the source evaluates its whole pass in one invocation.
    Whole,
    /// Streaming pass: the source emits chunks itself
    /// ([`Block::stream_chunk`]).
    Stream,
    /// Streaming pass, batch-only source: evaluated once up front, then
    /// sliced into chunks.
    Cached { signal: Signal, pos: usize },
}

/// A block-diagram simulation: blocks plus directed connections.
///
/// # Example
///
/// ```
/// use rfsim::prelude::*;
///
/// # fn main() -> Result<(), SimError> {
/// let mut g = Graph::new();
/// let tone = g.add(ToneSource::new(0.0, 1.0e6, 256));
/// let meter = g.add(PowerMeter::new());
/// g.connect(tone, meter, 0)?;
/// g.execute(&ExecPlan::batch())?;
/// let measured = g.output(meter).expect("ran");
/// assert!((measured.power() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Runtime state of the most recent execution (health, breaker states,
    /// bypass counters), kept apart from the structure above so
    /// [`Graph::reset`] can replace it wholesale.
    state: ExecState,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of blocks in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a block, returning its handle.
    pub fn add<B: Block + 'static>(&mut self, block: B) -> BlockId {
        let inputs = vec![None; block.input_count()];
        self.nodes.push(Node {
            block: Box::new(block),
            inputs,
            output: None,
            probed: false,
        });
        self.state.push_node();
        BlockId(self.nodes.len() - 1)
    }

    /// Connects `from`'s output to input `port` of `to`.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownBlock`] if either id is foreign.
    /// * [`SimError::InvalidPort`] if `port` exceeds the target's inputs.
    /// * [`SimError::PortConflict`] if the port is already driven.
    pub fn connect(&mut self, from: BlockId, to: BlockId, port: usize) -> Result<(), SimError> {
        if from.0 >= self.nodes.len() || to.0 >= self.nodes.len() {
            return Err(SimError::UnknownBlock);
        }
        let node = &mut self.nodes[to.0];
        if port >= node.inputs.len() {
            return Err(SimError::InvalidPort {
                block: node.block.name().to_owned(),
                port,
                inputs: node.inputs.len(),
            });
        }
        if node.inputs[port].is_some() {
            return Err(SimError::PortConflict {
                block: node.block.name().to_owned(),
                port,
            });
        }
        node.inputs[port] = Some(from);
        Ok(())
    }

    /// Convenience: connects a linear chain `blocks[0] → blocks[1] → …`
    /// through each block's port 0.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Graph::connect`] failure.
    pub fn chain(&mut self, blocks: &[BlockId]) -> Result<(), SimError> {
        for pair in blocks.windows(2) {
            self.connect(pair[0], pair[1], 0)?;
        }
        Ok(())
    }

    /// Executes one simulation pass as described by `plan` — the only way
    /// to run a graph. Returns the pass's [`RunReport`] when the plan
    /// enables telemetry, `None` otherwise. Every instrumented pass starts
    /// from a fresh recorder, so consecutive passes never accumulate into
    /// each other.
    ///
    /// In a streaming pass, streaming-capable sources
    /// ([`Block::supports_streaming`]) emit one chunk per round;
    /// batch-only sources are evaluated once up front and sliced. Each
    /// round pushes the chunks through the graph in dependency order via
    /// [`Block::process_chunk`] into per-edge buffers that are reused
    /// between chunks, and the pass ends when every source is exhausted.
    /// [`Block::begin_stream`]/[`Block::end_stream`] bracket the pass so
    /// instruments can accumulate whole-pass measurements.
    ///
    /// For chunk-sequential blocks (every block shipped with this crate),
    /// the concatenated chunk stream at a node equals the batch output
    /// sample for sample. Blocks that measure whole-pass statistics inside
    /// `process` (e.g. a noise channel deriving σ from measured input
    /// power) only match batch output if configured with a fixed reference
    /// instead (see `AwgnChannel::with_reference_power`). With multiple
    /// sources of unequal pass lengths, exhausted sources contribute empty
    /// chunks while the rest finish; blocks must tolerate shorter/empty
    /// inputs in that case.
    ///
    /// With a breaker policy ([`ExecPlan::with_breaker_policy`]), every
    /// typed block failure — including non-finite guard hits — feeds the
    /// block's [`BreakerState`]. Failures of a *bypassable* block
    /// ([`crate::supervise::BlockRole::bypassable`], single input) are
    /// absorbed: the failing invocation is replaced by a pass-through of
    /// its input and the pass finishes [`Health::Degraded`]. Once such a
    /// breaker opens, the block is skipped until its probation expires
    /// and a half-open trial succeeds. Failures of source/essential
    /// blocks propagate; once *their* breaker opens, later passes fail
    /// fast with [`SimError::BlockFault`] without invoking the block.
    /// Breaker *state* survives from pass to pass until [`Graph::reset`].
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingInput`] if a connected block has an undriven
    ///   port.
    /// * [`SimError::GraphCycle`] if connections form a loop.
    /// * [`SimError::InvalidChunkLen`] for a zero streaming chunk length.
    /// * [`SimError::DeadlineExceeded`] / [`SimError::Cancelled`] when the
    ///   plan's budget or cancellation token fires at a block boundary.
    /// * [`SimError::NonFiniteSample`] when the plan's non-finite guard
    ///   catches a NaN/inf sample.
    /// * [`SimError::BlockFault`] when an open circuit breaker on an
    ///   essential block fails fast.
    /// * Any error returned by a block's `process`, `stream_chunk` or
    ///   `end_stream`.
    pub fn execute(&mut self, plan: &ExecPlan) -> Result<Option<RunReport>, SimError> {
        let mut recorder = plan.telemetry().then(|| Recorder::new(self.nodes.len()));
        if let Err(e) = self.execute_core(plan, recorder.as_mut()) {
            self.state.health = Health::Failed;
            return Err(e);
        }
        let Some(recorder) = recorder else {
            return Ok(None);
        };
        let mut report = recorder.finish(
            plan.mode().into(),
            self.nodes.iter().map(|n| n.block.name().to_owned()),
        );
        self.stamp_supervision(&mut report);
        Ok(Some(report))
    }

    /// Copies the run's supervision outcome into a finished report.
    fn stamp_supervision(&self, report: &mut RunReport) {
        report.health = self.state.health;
        report.breaker_trips = self.state.breaker_trips;
        report.bypassed_invocations = self.state.bypassed_invocations;
    }

    /// The one scheduler loop: every mode and feature combination flows
    /// through here. Each round pulls one chunk from every source, then
    /// pushes the chunks through the interior blocks in dependency order.
    /// A batch pass is the degenerate single round — each source
    /// contributes its whole pass as its one "chunk", interior outputs are
    /// stored on the nodes instead of per-edge buffers, and the loop ends
    /// after one push. A streaming pass repeats rounds until every source
    /// is exhausted.
    fn execute_core(
        &mut self,
        plan: &ExecPlan,
        mut telemetry: Option<&mut Recorder>,
    ) -> Result<(), SimError> {
        let chunk = match plan.mode() {
            ExecMode::Batch => None,
            ExecMode::Streaming { chunk_len } => {
                if chunk_len == 0 {
                    return Err(SimError::InvalidChunkLen);
                }
                Some(chunk_len)
            }
        };
        let deadline = self.begin_run(plan);
        // Verify all ports are driven.
        for node in &self.nodes {
            for (port, src) in node.inputs.iter().enumerate() {
                if src.is_none() {
                    return Err(SimError::MissingInput {
                        block: node.block.name().to_owned(),
                        port,
                    });
                }
            }
        }
        let order = self.topological_order()?;
        let n = self.nodes.len();

        if chunk.is_some() {
            for node in &mut self.nodes {
                node.output = None;
                node.block.begin_stream();
            }
        }

        let mut feeds: Vec<Option<Feed>> = Vec::with_capacity(n);
        for i in 0..n {
            feeds.push(if !self.nodes[i].inputs.is_empty() {
                None
            } else if chunk.is_none() {
                Some(Feed::Whole)
            } else if self.nodes[i].block.supports_streaming() {
                Some(Feed::Stream)
            } else {
                // Batch-only source: the one up-front evaluation is the
                // block's whole cost for the pass.
                self.check_supervision(plan, i, deadline.as_ref())?;
                let signal = self.invoke_batch(plan, i, &[], telemetry.as_deref_mut())?;
                Some(Feed::Cached { signal, pos: 0 })
            });
        }

        // Per-edge chunk buffers, reused across rounds: after the first
        // round each holds its warm allocation and no further growth
        // happens for constant chunk sizes. Batch passes store whole
        // outputs on the nodes instead and leave these empty.
        let mut bufs: Vec<Signal> = (0..n).map(|_| Signal::default()).collect();

        loop {
            // Pull one chunk from every source — the whole pass at once in
            // batch mode, where the single round is always "producing".
            let mut produced = chunk.is_none();
            for (i, feed) in feeds.iter_mut().enumerate() {
                let Some(feed) = feed else { continue };
                match feed {
                    Feed::Whole => {
                        self.check_supervision(plan, i, deadline.as_ref())?;
                        let out = self.invoke_batch(plan, i, &[], telemetry.as_deref_mut())?;
                        if let Some(t) = telemetry.as_deref_mut() {
                            t.note_buffer(i, out.len());
                        }
                        self.nodes[i].output = Some(out);
                    }
                    Feed::Stream => {
                        let chunk_len = chunk.expect("stream feeds exist only when streaming");
                        self.check_supervision(plan, i, deadline.as_ref())?;
                        self.source_fail_fast(plan, i)?;
                        let pulled = match telemetry.as_deref_mut() {
                            Some(t) => {
                                let begin = t.begin();
                                let r = self.nodes[i].block.stream_chunk(chunk_len, &mut bufs[i]);
                                if let Ok(got) = r {
                                    t.record(i, begin, 0, got);
                                }
                                r
                            }
                            None => self.nodes[i].block.stream_chunk(chunk_len, &mut bufs[i]),
                        };
                        let pulled = pulled
                            .and_then(|got| self.check_finite(plan, i, &bufs[i]).map(|()| got));
                        match pulled {
                            Ok(got) => {
                                self.note_source_result(plan, i, false);
                                produced |= got > 0;
                            }
                            Err(e) => {
                                self.note_source_result(plan, i, true);
                                return Err(e);
                            }
                        }
                        if let Some(t) = telemetry.as_deref_mut() {
                            t.note_buffer(i, bufs[i].len());
                        }
                    }
                    Feed::Cached { signal, pos } => {
                        let chunk_len = chunk.expect("cached feeds exist only when streaming");
                        let take = chunk_len.min(signal.len() - *pos);
                        bufs[i].assign_range(signal, *pos, take);
                        *pos += take;
                        produced |= take > 0;
                        if let Some(t) = telemetry.as_deref_mut() {
                            t.note_buffer(i, bufs[i].len());
                        }
                    }
                }
            }
            if !produced {
                break;
            }
            if let Some(t) = telemetry.as_deref_mut() {
                t.rounds += 1;
            }

            // Push the chunks through the interior of the graph.
            for &BlockId(i) in &order {
                if self.nodes[i].inputs.is_empty() {
                    if chunk.is_some() {
                        accumulate_probe(&mut self.nodes[i], &bufs[i]);
                    }
                    continue;
                }
                self.check_supervision(plan, i, deadline.as_ref())?;
                if chunk.is_some() {
                    let mut out = std::mem::take(&mut bufs[i]);
                    self.invoke_stream(plan, i, &bufs, &mut out, telemetry.as_deref_mut())?;
                    accumulate_probe(&mut self.nodes[i], &out);
                    if let Some(t) = telemetry.as_deref_mut() {
                        t.note_buffer(i, out.len());
                    }
                    bufs[i] = out;
                } else {
                    let inputs: Vec<Signal> = self.nodes[i]
                        .inputs
                        .clone()
                        .into_iter()
                        .map(|src| {
                            self.nodes[src.expect("verified above").0]
                                .output
                                .clone()
                                .expect("dependency order guarantees the source ran")
                        })
                        .collect();
                    let out = self.invoke_batch(plan, i, &inputs, telemetry.as_deref_mut())?;
                    if let Some(t) = telemetry.as_deref_mut() {
                        t.note_buffer(i, out.len());
                    }
                    self.nodes[i].output = Some(out);
                }
            }

            if chunk.is_none() {
                break;
            }
        }

        if chunk.is_some() {
            for node in &mut self.nodes {
                node.block.end_stream()?;
            }
        }
        Ok(())
    }

    /// Resets per-run supervision state and arms the plan's deadline, if
    /// it carries a budget.
    fn begin_run(&mut self, plan: &ExecPlan) -> Option<Deadline> {
        self.state.begin_run();
        plan.budget().map(Deadline::starting_now)
    }

    /// Polls the plan's cancellation token and the armed deadline at the
    /// boundary before node `i` runs.
    fn check_supervision(
        &self,
        plan: &ExecPlan,
        i: usize,
        deadline: Option<&Deadline>,
    ) -> Result<(), SimError> {
        if plan.cancel_token().is_none() && deadline.is_none() {
            return Ok(());
        }
        let name = self.nodes[i].block.name();
        if let Some(token) = plan.cancel_token() {
            token.check(name)?;
        }
        if let Some(d) = deadline {
            d.check(name)?;
        }
        Ok(())
    }

    /// Whether node `i` may be skipped pass-through by an open breaker: a
    /// bypassable role with exactly one input to pass through.
    fn bypassable(&self, i: usize) -> bool {
        self.nodes[i].block.role().bypassable() && self.nodes[i].inputs.len() == 1
    }

    /// With breakers enabled: decides whether node `i` may be invoked.
    /// `Ok(false)` means bypass this invocation without running the block;
    /// an open breaker on a non-bypassable block fails fast.
    fn breaker_admits(&mut self, i: usize, policy: &BreakerPolicy) -> Result<bool, SimError> {
        if !self.state.breakers[i].is_open() {
            return Ok(true);
        }
        if self.bypassable(i) {
            Ok(self.state.breakers[i].should_attempt(policy))
        } else {
            Err(SimError::BlockFault {
                block: self.nodes[i].block.name().to_owned(),
                fault: format!(
                    "circuit breaker open after {} failure(s)",
                    policy.threshold()
                ),
            })
        }
    }

    /// Books one bypassed invocation of node `i` and degrades the run.
    fn note_bypass(&mut self, i: usize, telemetry: Option<&mut Recorder>) {
        self.state.bypassed[i] += 1;
        self.state.bypassed_invocations += 1;
        self.state.health.degrade();
        if let Some(t) = telemetry {
            t.note_bypass(i);
        }
    }

    /// One batch invocation of node `i`, honoring the plan's breaker
    /// policy if enabled (finite-guard hits count as block failures).
    fn invoke_batch(
        &mut self,
        plan: &ExecPlan,
        i: usize,
        inputs: &[Signal],
        mut telemetry: Option<&mut Recorder>,
    ) -> Result<Signal, SimError> {
        let Some(policy) = plan.breaker_policy() else {
            let out = self.invoke_batch_raw(i, inputs, telemetry)?;
            self.check_finite(plan, i, &out)?;
            return Ok(out);
        };
        if !self.breaker_admits(i, &policy)? {
            self.note_bypass(i, telemetry);
            return Ok(inputs.first().cloned().unwrap_or_default());
        }
        let mut attempt = self.invoke_batch_raw(i, inputs, telemetry.as_deref_mut());
        if let Ok(out) = &attempt {
            if let Err(e) = self.check_finite(plan, i, out) {
                attempt = Err(e);
            }
        }
        match attempt {
            Ok(out) => {
                self.state.breakers[i].record_success();
                Ok(out)
            }
            Err(e) => {
                if self.state.breakers[i].record_failure(&policy) {
                    self.state.breaker_trips += 1;
                }
                if self.bypassable(i) {
                    self.note_bypass(i, telemetry);
                    Ok(inputs.first().cloned().unwrap_or_default())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// The raw (breaker-unaware) batch invocation of node `i`.
    fn invoke_batch_raw(
        &mut self,
        i: usize,
        inputs: &[Signal],
        telemetry: Option<&mut Recorder>,
    ) -> Result<Signal, SimError> {
        match telemetry {
            Some(t) => {
                let samples_in: usize = inputs.iter().map(Signal::len).sum();
                let begin = t.begin();
                let out = self.nodes[i].block.process(inputs)?;
                t.record(i, begin, samples_in, out.len());
                Ok(out)
            }
            None => self.nodes[i].block.process(inputs),
        }
    }

    /// Condition of the most recent run: `Healthy`, `Degraded` (at least
    /// one breaker bypass) or `Failed` (the run returned an error).
    pub fn health(&self) -> Health {
        self.state.health
    }

    /// Breaker trips (transitions into `Open`) during the most recent run.
    pub fn breaker_trips(&self) -> u64 {
        self.state.breaker_trips
    }

    /// Invocations bypassed by open breakers during the most recent run.
    pub fn bypassed_invocations(&self) -> u64 {
        self.state.bypassed_invocations
    }

    /// The block's current breaker state (`None` for a foreign id).
    pub fn breaker_state(&self, id: BlockId) -> Option<BreakerState> {
        self.state.breakers.get(id.0).copied()
    }

    /// Invocations of `id` bypassed during the most recent run (`None`
    /// for a foreign id).
    pub fn bypassed(&self, id: BlockId) -> Option<u64> {
        self.state.bypassed.get(id.0).copied()
    }

    /// Fails with [`SimError::NonFiniteSample`] if the plan's guard is
    /// enabled and `out` holds a NaN/inf sample.
    fn check_finite(&self, plan: &ExecPlan, node: usize, out: &Signal) -> Result<(), SimError> {
        if plan.guards_non_finite() {
            if let Some(index) = out.first_non_finite() {
                return Err(SimError::NonFiniteSample {
                    block: self.nodes[node].block.name().to_owned(),
                    index,
                });
            }
        }
        Ok(())
    }

    /// Marks `id` for output retention during streaming passes.
    ///
    /// Batch passes retain every node's output regardless; in streaming
    /// passes retention is opt-in, since accumulating a node's chunks
    /// reintroduces the O(pass) memory streaming exists to avoid.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownBlock`] if `id` is foreign.
    pub fn probe(&mut self, id: BlockId) -> Result<(), SimError> {
        match self.nodes.get_mut(id.0) {
            Some(node) => {
                node.probed = true;
                Ok(())
            }
            None => Err(SimError::UnknownBlock),
        }
    }

    /// Breaker fail-fast for streaming source pulls (sources are never
    /// bypassable).
    fn source_fail_fast(&mut self, plan: &ExecPlan, i: usize) -> Result<(), SimError> {
        if let Some(policy) = plan.breaker_policy() {
            if self.state.breakers[i].is_open() {
                return Err(SimError::BlockFault {
                    block: self.nodes[i].block.name().to_owned(),
                    fault: format!(
                        "circuit breaker open after {} failure(s)",
                        policy.threshold()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Breaker accounting for one streaming source pull.
    fn note_source_result(&mut self, plan: &ExecPlan, i: usize, failed: bool) {
        if let Some(policy) = plan.breaker_policy() {
            if failed {
                if self.state.breakers[i].record_failure(&policy) {
                    self.state.breaker_trips += 1;
                }
            } else {
                self.state.breakers[i].record_success();
            }
        }
    }

    /// One interior-block chunk invocation, honoring the plan's breaker
    /// policy if enabled (finite-guard hits count as block failures).
    fn invoke_stream(
        &mut self,
        plan: &ExecPlan,
        i: usize,
        bufs: &[Signal],
        out: &mut Signal,
        mut telemetry: Option<&mut Recorder>,
    ) -> Result<(), SimError> {
        let Some(policy) = plan.breaker_policy() else {
            self.invoke_stream_raw(i, bufs, out, telemetry)?;
            self.check_finite(plan, i, out)?;
            return Ok(());
        };
        if !self.breaker_admits(i, &policy)? {
            self.bypass_stream(i, bufs, out, telemetry);
            return Ok(());
        }
        let mut attempt = self.invoke_stream_raw(i, bufs, out, telemetry.as_deref_mut());
        if attempt.is_ok() {
            if let Err(e) = self.check_finite(plan, i, out) {
                attempt = Err(e);
            }
        }
        match attempt {
            Ok(()) => {
                self.state.breakers[i].record_success();
                Ok(())
            }
            Err(e) => {
                if self.state.breakers[i].record_failure(&policy) {
                    self.state.breaker_trips += 1;
                }
                if self.bypassable(i) {
                    self.bypass_stream(i, bufs, out, telemetry);
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// The raw (breaker-unaware) chunk invocation of node `i`.
    fn invoke_stream_raw(
        &mut self,
        i: usize,
        bufs: &[Signal],
        out: &mut Signal,
        telemetry: Option<&mut Recorder>,
    ) -> Result<(), SimError> {
        let node = &mut self.nodes[i];
        let inputs: Vec<&Signal> = node
            .inputs
            .iter()
            .map(|src| &bufs[src.expect("verified above").0])
            .collect();
        match telemetry {
            Some(t) => {
                let samples_in: usize = inputs.iter().map(|s| s.len()).sum();
                let begin = t.begin();
                node.block.process_chunk(&inputs, out)?;
                t.record(i, begin, samples_in, out.len());
            }
            None => node.block.process_chunk(&inputs, out)?,
        }
        Ok(())
    }

    /// Skips node `i` pass-through for one chunk: `out` becomes a copy of
    /// the block's single input chunk.
    fn bypass_stream(
        &mut self,
        i: usize,
        bufs: &[Signal],
        out: &mut Signal,
        telemetry: Option<&mut Recorder>,
    ) {
        self.note_bypass(i, telemetry);
        match self.nodes[i].inputs.first().copied().flatten() {
            Some(src) => {
                let input = &bufs[src.0];
                out.copy_from(input);
            }
            None => out.clear(),
        }
    }

    /// Kahn's algorithm over the connection edges.
    fn topological_order(&self) -> Result<Vec<BlockId>, SimError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for src in node.inputs.iter().flatten() {
                adj[src.0].push(i);
                indegree[i] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(BlockId(i));
            for &j in &adj[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(SimError::GraphCycle)
        }
    }

    /// The signal most recently produced by `id`, if the graph has run.
    pub fn output(&self, id: BlockId) -> Option<&Signal> {
        self.nodes.get(id.0).and_then(|n| n.output.as_ref())
    }

    /// Borrows a block back (e.g. to read an instrument's measurement).
    ///
    /// Returns `None` if the id is foreign or the concrete type differs.
    pub fn block<B: Block + 'static>(&self, id: BlockId) -> Option<&B> {
        let node = self.nodes.get(id.0)?;
        // Manual downcast: Block is not Any, so store through a helper.
        (node.block.as_ref() as &dyn std::any::Any).downcast_ref::<B>()
    }

    /// Resets every block's internal state and clears retained outputs,
    /// including probe accumulations, and all supervision state
    /// (circuit-breaker states, health, trip and bypass counters) — after
    /// a reset the graph holds no measurement state from previous passes.
    /// Probe *markings* ([`Graph::probe`]) survive, since they are
    /// configuration, not state.
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.block.reset();
            node.output = None;
        }
        // Structural reset: the entire runtime state is replaced in one
        // assignment rather than cleared field by field.
        self.state = ExecState::with_nodes(self.nodes.len());
    }
}

/// Appends a chunk to a probed node's retained output.
fn accumulate_probe(node: &mut Node, chunk: &Signal) {
    if !node.probed || chunk.is_empty() {
        return;
    }
    match &mut node.output {
        Some(acc) => acc.extend_from_parts(chunk.re(), chunk.im()),
        None => node.output = Some(chunk.clone()),
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("blocks", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_dsp::Complex64;

    /// Executes `plan` with telemetry on, returning the pass's report.
    fn instrumented(g: &mut Graph, plan: ExecPlan) -> RunReport {
        g.execute(&plan.with_telemetry(true))
            .unwrap()
            .expect("telemetry was requested")
    }

    struct Const(f64);
    impl Block for Const {
        fn name(&self) -> &str {
            "const"
        }
        fn input_count(&self) -> usize {
            0
        }
        fn process(&mut self, _: &[Signal]) -> Result<Signal, SimError> {
            Ok(Signal::new(vec![Complex64::new(self.0, 0.0); 8], 1.0))
        }
    }

    struct Gain(f64);
    impl Block for Gain {
        fn name(&self) -> &str {
            "gain"
        }
        fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
            let mut s = inputs[0].clone();
            let gain = self.0;
            s.map_in_place(|z| z.scale(gain));
            Ok(s)
        }
    }

    struct Adder;
    impl Block for Adder {
        fn name(&self) -> &str {
            "adder"
        }
        fn input_count(&self) -> usize {
            2
        }
        fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
            let mut s = inputs[0].clone();
            for (i, b) in inputs[1].iter().enumerate() {
                if i < s.len() {
                    s.set(i, s.get(i) + b);
                }
            }
            Ok(s)
        }
    }

    #[test]
    fn linear_chain_runs_in_order() {
        let mut g = Graph::new();
        let c = g.add(Const(2.0));
        let g1 = g.add(Gain(3.0));
        let g2 = g.add(Gain(0.5));
        g.chain(&[c, g1, g2]).unwrap();
        g.execute(&ExecPlan::batch()).unwrap();
        assert!((g.output(g2).unwrap().samples()[0].re - 3.0).abs() < 1e-12);
        // Intermediate node observable too.
        assert!((g.output(g1).unwrap().samples()[0].re - 6.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_topology() {
        let mut g = Graph::new();
        let c = g.add(Const(1.0));
        let a = g.add(Gain(2.0));
        let b = g.add(Gain(5.0));
        let sum = g.add(Adder);
        g.connect(c, a, 0).unwrap();
        g.connect(c, b, 0).unwrap();
        g.connect(a, sum, 0).unwrap();
        g.connect(b, sum, 1).unwrap();
        g.execute(&ExecPlan::batch()).unwrap();
        assert!((g.output(sum).unwrap().samples()[0].re - 7.0).abs() < 1e-12);
    }

    #[test]
    fn missing_input_detected() {
        let mut g = Graph::new();
        let _c = g.add(Const(1.0));
        let _gain = g.add(Gain(1.0)); // never connected
        let err = g.execute(&ExecPlan::batch()).unwrap_err();
        assert!(matches!(err, SimError::MissingInput { port: 0, .. }));
    }

    #[test]
    fn cycle_detected() {
        let mut g = Graph::new();
        let a = g.add(Gain(1.0));
        let b = g.add(Gain(1.0));
        g.connect(a, b, 0).unwrap();
        g.connect(b, a, 0).unwrap();
        assert_eq!(
            g.execute(&ExecPlan::batch()).unwrap_err(),
            SimError::GraphCycle
        );
    }

    #[test]
    fn port_conflict_detected() {
        let mut g = Graph::new();
        let c1 = g.add(Const(1.0));
        let c2 = g.add(Const(2.0));
        let gain = g.add(Gain(1.0));
        g.connect(c1, gain, 0).unwrap();
        let err = g.connect(c2, gain, 0).unwrap_err();
        assert!(matches!(err, SimError::PortConflict { port: 0, .. }));
    }

    #[test]
    fn invalid_port_detected() {
        let mut g = Graph::new();
        let c = g.add(Const(1.0));
        let gain = g.add(Gain(1.0));
        let err = g.connect(c, gain, 5).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPort {
                port: 5,
                inputs: 1,
                ..
            }
        ));
    }

    #[test]
    fn unknown_block_detected() {
        let mut g = Graph::new();
        let c = g.add(Const(1.0));
        let mut other = Graph::new();
        let foreign = other.add(Const(1.0));
        let _ = other.add(Const(1.0));
        let foreign2 = other.add(Const(1.0));
        // foreign2 has index 2 which does not exist in g.
        assert_eq!(
            g.connect(c, foreign2, 0).unwrap_err(),
            SimError::UnknownBlock
        );
        let _ = foreign;
    }

    #[test]
    fn reset_clears_outputs() {
        let mut g = Graph::new();
        let c = g.add(Const(1.0));
        g.execute(&ExecPlan::batch()).unwrap();
        assert!(g.output(c).is_some());
        g.reset();
        assert!(g.output(c).is_none());
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
    }

    /// A source that emits `len` ramp samples, in chunks when streamed.
    struct Ramp {
        len: usize,
        pos: usize,
    }
    impl Ramp {
        fn new(len: usize) -> Self {
            Ramp { len, pos: 0 }
        }
    }
    impl Block for Ramp {
        fn name(&self) -> &str {
            "ramp"
        }
        fn input_count(&self) -> usize {
            0
        }
        fn process(&mut self, _: &[Signal]) -> Result<Signal, SimError> {
            let samples = (0..self.len)
                .map(|i| Complex64::new(i as f64, 0.0))
                .collect();
            Ok(Signal::new(samples, 1.0))
        }
        fn supports_streaming(&self) -> bool {
            true
        }
        fn begin_stream(&mut self) {
            self.pos = 0;
        }
        fn stream_chunk(&mut self, max: usize, out: &mut Signal) -> Result<usize, SimError> {
            let take = max.min(self.len - self.pos);
            out.clear();
            out.set_sample_rate(1.0);
            for i in 0..take {
                out.push(Complex64::new((self.pos + i) as f64, 0.0));
            }
            self.pos += take;
            Ok(take)
        }
    }

    #[test]
    fn streaming_matches_batch_on_diamond() {
        // Batch reference.
        let build = |streaming_source: bool| {
            let mut g = Graph::new();
            let src: BlockId = if streaming_source {
                g.add(Ramp::new(100))
            } else {
                g.add(Const(1.0))
            };
            let a = g.add(Gain(2.0));
            let b = g.add(Gain(5.0));
            let sum = g.add(Adder);
            g.connect(src, a, 0).unwrap();
            g.connect(src, b, 0).unwrap();
            g.connect(a, sum, 0).unwrap();
            g.connect(b, sum, 1).unwrap();
            (g, sum)
        };
        for streaming_source in [false, true] {
            let (mut batch, sum_b) = build(streaming_source);
            batch.execute(&ExecPlan::batch()).unwrap();
            let reference = batch.output(sum_b).unwrap().clone();
            // Divisor and non-divisor chunk sizes.
            for chunk in [1usize, 7, 100, 1000] {
                let (mut g, sum) = build(streaming_source);
                g.probe(sum).unwrap();
                g.execute(&ExecPlan::streaming(chunk)).unwrap();
                assert_eq!(
                    g.output(sum).unwrap(),
                    &reference,
                    "chunk={chunk} streaming_source={streaming_source}"
                );
            }
        }
    }

    #[test]
    fn streaming_retains_only_probed_outputs() {
        let mut g = Graph::new();
        let src = g.add(Ramp::new(32));
        let gain = g.add(Gain(2.0));
        g.chain(&[src, gain]).unwrap();
        g.probe(gain).unwrap();
        g.execute(&ExecPlan::streaming(8)).unwrap();
        assert!(g.output(src).is_none());
        assert_eq!(g.output(gain).unwrap().len(), 32);
        // Probing a foreign id fails.
        let mut other = Graph::new();
        let a = other.add(Const(0.0));
        let _ = other.add(Const(0.0));
        let foreign = other.add(Const(0.0));
        let _ = (a, foreign);
        assert_eq!(g.probe(foreign).unwrap_err(), SimError::UnknownBlock);
    }

    #[test]
    fn streaming_validates_graph() {
        let mut g = Graph::new();
        let _ = g.add(Const(1.0));
        let _unconnected = g.add(Gain(1.0));
        assert!(matches!(
            g.execute(&ExecPlan::streaming(4)).unwrap_err(),
            SimError::MissingInput { .. }
        ));
        let mut cyc = Graph::new();
        let a = cyc.add(Gain(1.0));
        let b = cyc.add(Gain(1.0));
        cyc.connect(a, b, 0).unwrap();
        cyc.connect(b, a, 0).unwrap();
        assert_eq!(
            cyc.execute(&ExecPlan::streaming(4)).unwrap_err(),
            SimError::GraphCycle
        );
    }

    #[test]
    fn zero_chunk_len_is_a_typed_error() {
        // Regression: this used to be an `assert!` that unwound through
        // the scheduler and aborted whole scenario sweeps.
        let mut g = Graph::new();
        let _ = g.add(Const(1.0));
        for plan in [
            ExecPlan::streaming(0),
            ExecPlan::streaming(0).with_telemetry(true),
        ] {
            assert_eq!(g.execute(&plan).unwrap_err(), SimError::InvalidChunkLen);
        }
        // The graph is still usable afterwards.
        g.execute(&ExecPlan::streaming(4)).unwrap();
    }

    /// A block that corrupts one sample with NaN.
    struct Corruptor;
    impl Block for Corruptor {
        fn name(&self) -> &str {
            "corruptor"
        }
        fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
            let mut s = inputs[0].clone();
            if s.len() > 3 {
                s.set(3, Complex64::new(f64::NAN, 0.0));
            }
            Ok(s)
        }
    }

    #[test]
    fn non_finite_guard_fails_batch_and_streaming() {
        let build = || {
            let mut g = Graph::new();
            let c = g.add(Const(1.0));
            let bad = g.add(Corruptor);
            g.chain(&[c, bad]).unwrap();
            g
        };
        // Guard off: NaN propagates silently (the historical behavior).
        let mut silent = build();
        silent.execute(&ExecPlan::batch()).unwrap();
        // Guard on: typed error naming block and sample, on both paths.
        let mut g = build();
        let err = g
            .execute(&ExecPlan::batch().guard_non_finite(true))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::NonFiniteSample {
                block: "corruptor".into(),
                index: 3
            }
        );
        let mut s = build();
        assert!(matches!(
            s.execute(&ExecPlan::streaming(4).guard_non_finite(true))
                .unwrap_err(),
            SimError::NonFiniteSample { index: 3, .. }
        ));
    }

    #[test]
    fn non_finite_guard_checks_cached_streaming_sources() {
        /// A batch-only source that emits a NaN.
        struct BadSource;
        impl Block for BadSource {
            fn name(&self) -> &str {
                "bad-source"
            }
            fn input_count(&self) -> usize {
                0
            }
            fn process(&mut self, _: &[Signal]) -> Result<Signal, SimError> {
                Ok(Signal::new(
                    vec![Complex64::new(f64::INFINITY, 0.0); 2],
                    1.0,
                ))
            }
        }
        let mut g = Graph::new();
        let src = g.add(BadSource);
        let gain = g.add(Gain(1.0));
        g.chain(&[src, gain]).unwrap();
        assert!(matches!(
            g.execute(&ExecPlan::streaming(8).guard_non_finite(true))
                .unwrap_err(),
            SimError::NonFiniteSample { index: 0, .. }
        ));
    }

    #[test]
    fn instrumented_batch_reports_every_block() {
        let mut g = Graph::new();
        let c = g.add(Const(2.0));
        let gain = g.add(Gain(3.0));
        g.chain(&[c, gain]).unwrap();
        let report = instrumented(&mut g, ExecPlan::batch());
        assert_eq!(report.mode, crate::telemetry::RunMode::Batch);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.blocks.len(), 2);
        let src = report.block("const").unwrap();
        assert_eq!(src.invocations, 1);
        assert_eq!(src.samples_in, 0);
        assert_eq!(src.samples_out, 8);
        let gain_stats = report.block("gain").unwrap();
        assert_eq!(gain_stats.samples_in, 8);
        assert_eq!(gain_stats.samples_out, 8);
        assert_eq!(gain_stats.buffer_high_water, 8);
        assert_eq!(report.source_samples(), 8);
        // The ordinary run result is still produced.
        assert!((g.output(gain).unwrap().samples()[0].re - 6.0).abs() < 1e-12);
    }

    #[test]
    fn instrumented_streaming_counts_chunks_and_high_water() {
        let mut g = Graph::new();
        let src = g.add(Ramp::new(100));
        let gain = g.add(Gain(2.0));
        g.chain(&[src, gain]).unwrap();
        g.probe(gain).unwrap();
        let report = instrumented(&mut g, ExecPlan::streaming(16));
        assert_eq!(
            report.mode,
            crate::telemetry::RunMode::Streaming { chunk_len: 16 }
        );
        // 100 samples in 16-sample chunks → 7 producing rounds.
        assert_eq!(report.rounds, 7);
        let src_stats = report.block("ramp").unwrap();
        // One extra exhausted pull ends the pass.
        assert_eq!(src_stats.invocations, 8);
        assert_eq!(src_stats.samples_out, 100);
        assert_eq!(src_stats.buffer_high_water, 16);
        let gain_stats = report.block("gain").unwrap();
        assert_eq!(gain_stats.invocations, 7);
        assert_eq!(gain_stats.samples_in, 100);
        assert_eq!(gain_stats.samples_out, 100);
        assert_eq!(gain_stats.buffer_high_water, 16);
        // The instrumented pass produces the same signal as the plain one.
        assert_eq!(g.output(gain).unwrap().len(), 100);
    }

    #[test]
    fn instrumented_streaming_times_batch_only_sources() {
        let mut g = Graph::new();
        let c = g.add(Const(1.0)); // no streaming support → cached feed
        let gain = g.add(Gain(2.0));
        g.chain(&[c, gain]).unwrap();
        let report = instrumented(&mut g, ExecPlan::streaming(3));
        let src = report.block("const").unwrap();
        // The single up-front batch evaluation is the recorded invocation.
        assert_eq!(src.invocations, 1);
        assert_eq!(src.samples_out, 8);
        assert_eq!(report.source_samples(), 8);
        // Its edge buffer still only ever held one chunk.
        assert_eq!(src.buffer_high_water, 3);
    }

    #[test]
    fn back_to_back_instrumented_runs_do_not_accumulate() {
        let mut g = Graph::new();
        let c = g.add(Const(1.0));
        let gain = g.add(Gain(2.0));
        g.chain(&[c, gain]).unwrap();
        let first = instrumented(&mut g, ExecPlan::batch());
        let second = instrumented(&mut g, ExecPlan::batch());
        // Regression: a second instrumented pass must start from zero, not
        // extend the first one's counters.
        assert_eq!(first.block("gain").unwrap().invocations, 1);
        assert_eq!(second.block("gain").unwrap().invocations, 1);
        assert_eq!(
            first.block("gain").unwrap().samples_in,
            second.block("gain").unwrap().samples_in,
        );
        // Same for the streaming scheduler.
        let s1 = instrumented(&mut g, ExecPlan::streaming(4));
        let s2 = instrumented(&mut g, ExecPlan::streaming(4));
        assert_eq!(s1.rounds, s2.rounds);
        assert_eq!(
            s1.block("const").unwrap().samples_out,
            s2.block("const").unwrap().samples_out,
        );
    }

    #[test]
    fn reset_clears_probe_state() {
        let mut g = Graph::new();
        let src = g.add(Ramp::new(32));
        let gain = g.add(Gain(2.0));
        g.chain(&[src, gain]).unwrap();
        g.probe(gain).unwrap();
        g.execute(&ExecPlan::streaming(8)).unwrap();
        assert_eq!(g.output(gain).unwrap().len(), 32);
        g.reset();
        // Regression: reset must drop the probed output so the next pass
        // starts clean.
        assert!(g.output(gain).is_none());
        // Probe marking survives as configuration; a fresh run repopulates
        // the probed output without doubling it.
        g.execute(&ExecPlan::streaming(8)).unwrap();
        assert_eq!(g.output(gain).unwrap().len(), 32);
    }

    #[test]
    fn rerun_after_reset() {
        let mut g = Graph::new();
        let c = g.add(Const(4.0));
        let gain = g.add(Gain(0.25));
        g.chain(&[c, gain]).unwrap();
        g.execute(&ExecPlan::batch()).unwrap();
        g.reset();
        g.execute(&ExecPlan::batch()).unwrap();
        assert!((g.output(gain).unwrap().samples()[0].re - 1.0).abs() < 1e-12);
    }

    // --- supervision ---

    use crate::supervise::{BlockRole, CancelToken};
    use std::time::Duration;

    /// A source whose pass dawdles, to trip deadlines deterministically.
    struct SlowSource(Duration);
    impl Block for SlowSource {
        fn name(&self) -> &str {
            "slow-src"
        }
        fn input_count(&self) -> usize {
            0
        }
        fn process(&mut self, _: &[Signal]) -> Result<Signal, SimError> {
            std::thread::sleep(self.0);
            Ok(Signal::new(vec![Complex64::ONE; 8], 1.0))
        }
    }

    /// An impairment that fails every invocation, counting them.
    struct FailingImpairment {
        calls: u64,
    }
    impl Block for FailingImpairment {
        fn name(&self) -> &str {
            "bad-imp"
        }
        fn role(&self) -> BlockRole {
            BlockRole::Impairment
        }
        fn process(&mut self, _: &[Signal]) -> Result<Signal, SimError> {
            self.calls += 1;
            Err(SimError::BlockFailure {
                block: "bad-imp".into(),
                message: "refuses to impair".into(),
            })
        }
    }

    /// An essential stage that fails every invocation, counting them.
    struct FailingStage {
        calls: u64,
    }
    impl Block for FailingStage {
        fn name(&self) -> &str {
            "bad-stage"
        }
        fn process(&mut self, _: &[Signal]) -> Result<Signal, SimError> {
            self.calls += 1;
            Err(SimError::BlockFailure {
                block: "bad-stage".into(),
                message: "broken amplifier".into(),
            })
        }
    }

    #[test]
    fn deadline_fails_batch_run_and_clearing_budget_recovers() {
        let mut g = Graph::new();
        let src = g.add(SlowSource(Duration::from_millis(10)));
        let gain = g.add(Gain(1.0));
        g.chain(&[src, gain]).unwrap();
        let budgeted = ExecPlan::batch().with_budget(Some(Duration::from_millis(1)));
        match g.execute(&budgeted) {
            Err(SimError::DeadlineExceeded { block, elapsed }) => {
                assert!(!block.is_empty());
                assert!(elapsed >= Duration::from_millis(1));
            }
            other => panic!("expected deadline overrun, got {other:?}"),
        }
        assert_eq!(g.health(), Health::Failed);
        // The budget belongs to the plan: an unbudgeted pass runs normally.
        g.execute(&ExecPlan::batch()).unwrap();
        assert_eq!(g.health(), Health::Healthy);
    }

    #[test]
    fn deadline_fails_streaming_run_between_chunks() {
        let mut g = Graph::new();
        let src = g.add(crate::fault::StalledSource::new(
            1.0e6,
            Duration::from_millis(5),
        ));
        let gain = g.add(Gain(1.0));
        g.chain(&[src, gain]).unwrap();
        let plan = ExecPlan::streaming(16).with_budget(Some(Duration::from_millis(20)));
        let started = std::time::Instant::now();
        // Unsupervised, this pass would never terminate: the stalled
        // source emits chunks forever.
        match g.execute(&plan) {
            Err(SimError::DeadlineExceeded { .. }) => {}
            other => panic!("expected deadline overrun, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "killed promptly"
        );
        assert_eq!(g.health(), Health::Failed);
    }

    #[test]
    fn cancel_token_aborts_runs_cooperatively() {
        let mut g = Graph::new();
        let c = g.add(Const(1.0));
        let gain = g.add(Gain(2.0));
        g.chain(&[c, gain]).unwrap();
        let token = CancelToken::new();
        let plan = ExecPlan::batch().with_cancel_token(Some(token.clone()));
        g.execute(&plan).unwrap();
        assert!(token.cancel());
        match g.execute(&plan) {
            Err(SimError::Cancelled { block }) => assert_eq!(block, "const"),
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert_eq!(g.health(), Health::Failed);
        g.execute(&ExecPlan::batch()).unwrap();
    }

    #[test]
    fn breaker_bypasses_failing_impairment_and_degrades() {
        let mut g = Graph::new();
        let c = g.add(Const(3.0));
        let imp = g.add(FailingImpairment { calls: 0 });
        let gain = g.add(Gain(2.0));
        g.chain(&[c, imp, gain]).unwrap();
        let plan =
            ExecPlan::batch().with_breaker_policy(Some(BreakerPolicy::new().with_threshold(2)));
        // Without breakers this run would fail; with them the impairment
        // is bypassed pass-through and the signal flows on.
        g.execute(&plan).unwrap();
        assert_eq!(g.health(), Health::Degraded);
        assert_eq!(g.bypassed(imp), Some(1));
        assert_eq!(g.bypassed_invocations(), 1);
        assert!((g.output(gain).unwrap().samples()[0].re - 6.0).abs() < 1e-12);
        // Second failure trips the breaker (threshold 2)...
        g.execute(&plan).unwrap();
        assert_eq!(g.breaker_trips(), 1);
        assert!(g.breaker_state(imp).unwrap().is_open());
        // ...after which the block is skipped without being invoked.
        let calls_so_far = g.block::<FailingImpairment>(imp).unwrap().calls;
        g.execute(&plan).unwrap();
        assert_eq!(
            g.block::<FailingImpairment>(imp).unwrap().calls,
            calls_so_far
        );
        assert_eq!(g.health(), Health::Degraded);
    }

    #[test]
    fn breaker_bypass_works_in_streaming_passes() {
        let mut g = Graph::new();
        let c = g.add(Const(2.0));
        let imp = g.add(FailingImpairment { calls: 0 });
        let gain = g.add(Gain(0.5));
        g.chain(&[c, imp, gain]).unwrap();
        g.probe(gain).unwrap();
        let plan = ExecPlan::streaming(4).with_breaker_policy(Some(BreakerPolicy::new()));
        let report = instrumented(&mut g, plan);
        assert_eq!(report.health, Health::Degraded);
        assert!(report.block("bad-imp").unwrap().bypassed > 0);
        let out = g.output(gain).unwrap();
        assert_eq!(out.len(), 8);
        for z in out.samples() {
            assert!((z.re - 1.0).abs() < 1e-12, "pass-through × gain 0.5");
        }
    }

    #[test]
    fn essential_breaker_fails_fast_once_open() {
        let mut g = Graph::new();
        let c = g.add(Const(1.0));
        let bad = g.add(FailingStage { calls: 0 });
        g.chain(&[c, bad]).unwrap();
        let plan =
            ExecPlan::batch().with_breaker_policy(Some(BreakerPolicy::new().with_threshold(2)));
        // Two failing runs feed and trip the breaker; the block's own
        // error propagates each time (essentials are never bypassed).
        assert!(matches!(
            g.execute(&plan),
            Err(SimError::BlockFailure { .. })
        ));
        assert!(matches!(
            g.execute(&plan),
            Err(SimError::BlockFailure { .. })
        ));
        assert!(g.breaker_state(bad).unwrap().is_open());
        // Open breaker on an essential block: fail fast, no invocation.
        let calls = g.block::<FailingStage>(bad).unwrap().calls;
        match g.execute(&plan) {
            Err(SimError::BlockFault { block, fault }) => {
                assert_eq!(block, "bad-stage");
                assert!(fault.contains("circuit breaker open"), "{fault}");
            }
            other => panic!("expected breaker fail-fast, got {other:?}"),
        }
        assert_eq!(g.block::<FailingStage>(bad).unwrap().calls, calls);
        // reset() clears breaker state (runtime): the block is invoked
        // again and its own error returns.
        g.reset();
        assert!(!g.breaker_state(bad).unwrap().is_open());
        assert!(matches!(
            g.execute(&plan),
            Err(SimError::BlockFailure { .. })
        ));
        assert!(g.block::<FailingStage>(bad).unwrap().calls > calls);
    }

    #[test]
    fn half_open_breaker_recovers_after_probation() {
        /// Fails the first `failures` invocations, then works.
        struct Flaky {
            failures: u32,
            calls: u32,
        }
        impl Block for Flaky {
            fn name(&self) -> &str {
                "flaky-imp"
            }
            fn role(&self) -> BlockRole {
                BlockRole::Impairment
            }
            fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
                self.calls += 1;
                if self.calls <= self.failures {
                    return Err(SimError::BlockFailure {
                        block: "flaky-imp".into(),
                        message: "warming up".into(),
                    });
                }
                let mut s = inputs[0].clone();
                s.map_in_place(|z| z.scale(2.0));
                Ok(s)
            }
        }
        let mut g = Graph::new();
        let c = g.add(Const(1.0));
        let flaky = g.add(Flaky {
            failures: 1,
            calls: 0,
        });
        g.chain(&[c, flaky]).unwrap();
        let plan = ExecPlan::batch().with_breaker_policy(Some(
            BreakerPolicy::new().with_threshold(1).with_probation(2),
        ));
        g.execute(&plan).unwrap(); // fails → trips → bypassed
        assert_eq!(g.health(), Health::Degraded);
        assert!(g.breaker_state(flaky).unwrap().is_open());
        g.execute(&plan).unwrap(); // probation 1/2: skipped
        g.execute(&plan).unwrap(); // probation 2/2: skipped, goes half-open
        g.execute(&plan).unwrap(); // half-open trial succeeds → closed
        assert!(!g.breaker_state(flaky).unwrap().is_open());
        assert_eq!(g.health(), Health::Healthy);
        assert!((g.output(flaky).unwrap().samples()[0].re - 2.0).abs() < 1e-12);
    }
}
