//! `tx_pow2` and `tx_drm`: the Mother Model's main job. Each pass builds
//! one 50-data-symbol frame per standard and streams it through
//! `OfdmSource → RappPa → PowerMeter` with `Graph::execute`; the standard
//! order shifts by one every pass so no standard is always timed first.
//!
//! Traced passes also call the layers directly on the same frame shape:
//! `begin_stream` (FEC encode) and the `stream_into` drain with the
//! transmitter's stage counters, `RappPa::apply_split` over the frame and
//! the bare IFFT once per data symbol.

use crate::trace::{Span, Tracer};
use crate::{
    closed_loop, loopback_check, nanos, p50, Check, Config, OpRecord, Outcome, Phase, Workload,
};
use ofdm_core::params::OfdmParams;
use ofdm_core::source::OfdmSource;
use ofdm_core::{BitSource, MotherModel, StageNanos, StreamState};
use ofdm_dsp::fft::{plan, Fft, FftScratch};
use ofdm_dsp::Complex64;
use ofdm_standards::drm::{self, RobustnessMode};
use ofdm_standards::{default_params, StandardId};
use rfsim::prelude::{PowerMeter, RappPa};
use rfsim::{scenario_seed, BlockId, ExecPlan, Graph};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Data symbols per frame.
const DATA_SYMBOLS: usize = 50;
/// Streaming chunk length of the graph (and of the direct drain).
const CHUNK: usize = 256;
/// PA input back-off.
const IBO_DB: f64 = 8.0;
/// Payload of the set-up loopback check.
const LOOPBACK_BITS: usize = 2048;
/// 802.11a and 802.11g share one baseband, so their frame times must
/// agree within the spread the benchmark allows `throughput`.
const TWIN_TOLERANCE: f64 = 0.10;
/// Timed passes below which two medians cannot support that comparison
/// (short test runs), so the check is not made.
const TWIN_MIN_PASSES: usize = 100;
/// Last frame vs first frame of a graph (same seed, same payload).
const FRAME_TOLERANCE: f64 = 1e-12;

/// One standard of the workload, with its frame shape.
struct Standard {
    tag: &'static str,
    params: OfdmParams,
    payload_bits: usize,
    samples: u64,
    symbols: usize,
}

fn rapp() -> RappPa {
    RappPa::new(1.0, 3.0).with_input_backoff_db(IBO_DB)
}

fn standards(workload: Workload) -> Result<Vec<Standard>, String> {
    let list: Vec<(&'static str, OfdmParams)> = match workload {
        Workload::TxDrm => [
            (RobustnessMode::A, "drm-a"),
            (RobustnessMode::B, "drm-b"),
            (RobustnessMode::C, "drm-c"),
            (RobustnessMode::D, "drm-d"),
        ]
        .into_iter()
        .map(|(mode, tag)| (tag, drm::params(mode)))
        .collect(),
        _ => StandardId::ALL
            .into_iter()
            .filter(|&id| id != StandardId::Drm)
            .map(|id| {
                let tag = if id == StandardId::Adsl2Plus {
                    "adsl2plus"
                } else {
                    id.key()
                };
                (tag, default_params(id))
            })
            .collect(),
    };
    list.into_iter()
        .map(|(tag, params)| frame_shape(tag, params))
        .collect()
}

/// Finds the largest payload that fits in [`DATA_SYMBOLS`] data symbols
/// and measures the resulting frame once.
fn frame_shape(tag: &'static str, params: OfdmParams) -> Result<Standard, String> {
    let err = |e: &dyn std::fmt::Display| format!("{tag}: {e}");
    let mut model = MotherModel::new(params.clone()).map_err(|e| err(&e))?;
    let mut symbols_for = |bits: usize| -> usize {
        let coded = model.encode_payload(&vec![0; bits]).len();
        let (mut filled, mut symbols) = (0usize, 0usize);
        while filled < coded {
            filled += model.symbol_capacity(symbols).max(1);
            symbols += 1;
        }
        symbols
    };
    // Coded bits never undercount payload bits, so a payload of the full
    // nominal capacity needs more than DATA_SYMBOLS symbols.
    let (mut lo, mut hi) = (1usize, DATA_SYMBOLS * params.nominal_bits_per_symbol());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if symbols_for(mid) <= DATA_SYMBOLS {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let payload_bits = lo;

    let mut state = StreamState::new();
    state.set_stage_timing(true);
    model
        .begin_stream(&vec![0; payload_bits], &mut state)
        .map_err(|e| err(&e))?;
    let mut out = Vec::new();
    while model.stream_into(&mut state, usize::MAX, &mut out) > 0 {}
    // Outer-code blocks can make the count jump past DATA_SYMBOLS by more
    // than one symbol, so a frame may fall a symbol or two short.
    let symbols = state.stage_nanos().symbols as usize;
    if !(DATA_SYMBOLS - 2..=DATA_SYMBOLS).contains(&symbols) {
        return Err(format!(
            "{tag}: {payload_bits} payload bits made {symbols} data symbols, \
             expected about {DATA_SYMBOLS}"
        ));
    }
    Ok(Standard {
        tag,
        params,
        payload_bits,
        samples: out.len() as u64,
        symbols,
    })
}

/// One standard's RF chain.
struct Chain {
    graph: Graph,
    meter: BlockId,
}

impl Chain {
    /// Runs one frame from a reset graph, so every pass emits the same
    /// frame; returns the meter's reading.
    fn frame(&mut self, plan: &ExecPlan) -> Result<f64, String> {
        self.graph.reset();
        self.graph.execute(plan).map_err(|e| e.to_string())?;
        self.graph
            .block::<PowerMeter>(self.meter)
            .and_then(PowerMeter::power)
            .ok_or_else(|| "power meter has no reading".to_owned())
    }
}

/// Set-up: one graph per standard, and a loopback check per
/// configuration.
fn setup(stds: &[Standard], seed: u64) -> Result<(Vec<Chain>, Vec<Check>), String> {
    let mut chains = Vec::with_capacity(stds.len());
    let mut checks = Vec::with_capacity(stds.len());
    for (i, s) in stds.iter().enumerate() {
        let source = OfdmSource::new(s.params.clone(), s.payload_bits, scenario_seed(seed, i))
            .map_err(|e| format!("{}: {e}", s.tag))?;
        let mut graph = Graph::new();
        let src = graph.add(source);
        let pa = graph.add(rapp());
        let meter = graph.add(PowerMeter::new());
        graph.chain(&[src, pa, meter]).map_err(|e| e.to_string())?;
        chains.push(Chain { graph, meter });
        checks.push(loopback_check(
            s.tag,
            &s.params,
            LOOPBACK_BITS,
            scenario_seed(seed, 1000 + i),
        )?);
    }
    Ok((chains, checks))
}

/// Objects a traced pass calls directly, one set per standard.
struct Probe {
    model: MotherModel,
    state: StreamState,
    payload: Vec<u8>,
    out: Vec<Complex64>,
    re: Vec<f64>,
    im: Vec<f64>,
    fft: Arc<Fft>,
    scratch: FftScratch,
    symbol: (Vec<f64>, Vec<f64>),
    work: (Vec<f64>, Vec<f64>),
}

impl Probe {
    fn new(s: &Standard, seed: u64) -> Result<Probe, String> {
        let mut state = StreamState::new();
        state.set_stage_timing(true);
        let n = s.params.map.fft_size();
        let bits = BitSource::new(scenario_seed(seed, 1)).take(2 * n);
        let level = |b: u8| if b == 1 { 1.0 } else { -1.0 };
        let symbol = (
            bits[..n].iter().map(|&b| level(b)).collect(),
            bits[n..].iter().map(|&b| level(b)).collect(),
        );
        Ok(Probe {
            model: MotherModel::new(s.params.clone()).map_err(|e| format!("{}: {e}", s.tag))?,
            state,
            payload: BitSource::new(seed).take(s.payload_bits),
            out: Vec::new(),
            re: Vec::new(),
            im: Vec::new(),
            fft: plan(n),
            scratch: FftScratch::new(),
            symbol,
            work: (vec![0.0; n], vec![0.0; n]),
        })
    }

    /// The traced pass body for one standard: the production frame, then
    /// each layer called directly. Returns the meter reading, the frame's
    /// time in the graph and the transmitter's stage counters.
    fn pass(
        &mut self,
        t: &mut Tracer,
        s: &Standard,
        chain: &mut Chain,
        plan: &ExecPlan,
        pa: &RappPa,
    ) -> Result<(f64, u64, StageNanos), String> {
        let graph_span = t.spans().len();
        let power = t.span("rfsim.graph", s.tag, |_| chain.frame(plan))?;
        let graph_ns = t.spans()[graph_span].duration_ns();
        self.model.reset();
        t.span("core.source", s.tag, |t| {
            t.span("core.encode", s.tag, |_| {
                self.model.begin_stream(&self.payload, &mut self.state)
            })
            .map_err(|e| e.to_string())?;
            self.out.clear();
            while self
                .model
                .stream_into(&mut self.state, CHUNK, &mut self.out)
                > 0
            {}
            Ok::<(), String>(())
        })?;
        let stages = self.state.take_stage_nanos();
        self.re.clear();
        self.im.clear();
        self.re.extend(self.out.iter().map(|z| z.re));
        self.im.extend(self.out.iter().map(|z| z.im));
        t.span("rfsim.pa", s.tag, |_| {
            for (re, im) in self.re.chunks_mut(CHUNK).zip(self.im.chunks_mut(CHUNK)) {
                pa.apply_split(re, im);
            }
        });
        t.span("dsp.ifft", s.tag, |_| {
            for _ in 0..s.symbols {
                // A fresh input per symbol keeps the values in range.
                self.work.0.copy_from_slice(&self.symbol.0);
                self.work.1.copy_from_slice(&self.symbol.1);
                self.fft
                    .inverse_split_in(&mut self.work.0, &mut self.work.1, &mut self.scratch);
            }
        });
        std::hint::black_box((&self.re, &self.im, &self.work));
        Ok((power, graph_ns, stages))
    }
}

/// Samples per second of a frame set: Σ samples over Σ per-standard
/// median frame time.
fn throughput(stds: &[Standard], frame_ns: &[Vec<f64>]) -> f64 {
    let samples: u64 = stds.iter().map(|s| s.samples).sum();
    let ns: f64 = frame_ns.iter().map(|f| p50(f)).sum();
    samples as f64 / ns * 1e9
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let stds = standards(cfg.workload)?;
    let n = stds.len();
    let (mut chains, checks) = setup(&stds, cfg.seed)?;
    let mut out = Outcome {
        checks,
        ..Outcome::default()
    };
    let mut probes = if cfg.trace {
        stds.iter()
            .enumerate()
            .map(|(i, s)| Probe::new(s, scenario_seed(cfg.seed, 2000 + i)))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };

    let plan = ExecPlan::streaming(CHUNK);
    let pa = rapp();
    let mut tracer = Tracer::new(Instant::now());
    let mut first_power: Vec<Option<f64>> = vec![None; n];
    let mut last_power = vec![f64::NAN; n];
    // Timed frame times per standard, untraced and traced.
    let mut frame_ns: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut traced_ns: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut pass_ns: Vec<f64> = Vec::new();
    let mut stages: BTreeMap<u64, StageNanos> = BTreeMap::new();
    let mut first_timed = u64::MAX;

    let stats = closed_loop(
        cfg,
        || setup(&stds, cfg.seed),
        |phase, pass| {
            // With tracing on, passes alternate untraced / traced so both
            // paths see the same conditions and the overhead is measurable.
            let traced = cfg.trace && pass % 2 == 1;
            if phase == Phase::Timed {
                first_timed = first_timed.min(pass);
            }
            tracer.set_op(pass);
            let order: Vec<usize> = (0..n).map(|j| (pass as usize + j) % n).collect();
            let mut results: Vec<(usize, f64, u64)> = Vec::with_capacity(n);
            if traced {
                let mut pass_stages = StageNanos::default();
                tracer.span("tx.pass", "", |t| {
                    for &i in &order {
                        let (power, ns, st) =
                            probes[i].pass(t, &stds[i], &mut chains[i], &plan, &pa)?;
                        pass_stages.pilot += st.pilot;
                        pass_stages.map += st.map;
                        pass_stages.ifft += st.ifft;
                        pass_stages.cp += st.cp;
                        results.push((i, power, ns));
                    }
                    Ok::<(), String>(())
                })?;
                stages.insert(pass, pass_stages);
            } else {
                for &i in &order {
                    let t = Instant::now();
                    let power = chains[i].frame(&plan)?;
                    results.push((i, power, nanos(t.elapsed())));
                }
            }
            let mut total = 0u64;
            for &(i, power, ns) in &results {
                first_power[i].get_or_insert(power);
                last_power[i] = power;
                total += ns;
                out.ops.push(OpRecord {
                    phase,
                    op: pass,
                    kind: "frame",
                    tag: stds[i].tag,
                    traced,
                    ns,
                    ok: true,
                });
                if phase == Phase::Timed {
                    if traced {
                        traced_ns[i].push(ns as f64);
                    } else {
                        frame_ns[i].push(ns as f64);
                    }
                }
            }
            if phase == Phase::Timed && !traced {
                pass_ns.push(total as f64);
            }
            Ok(())
        },
    )?;

    for (i, s) in stds.iter().enumerate() {
        let first = first_power[i].unwrap_or(f64::NAN);
        out.checks.push(Check::new(
            format!("{} last timed frame matches first warm-up frame", s.tag),
            (first - last_power[i]).abs() <= FRAME_TOLERANCE * first.abs().max(last_power[i].abs()),
            format!("power {first:e} then {:e}", last_power[i]),
        ));
    }

    let mut spans = Vec::new();
    tracer.drain_into(&mut spans);
    if cfg.trace {
        let timed: Vec<Span> = spans
            .iter()
            .filter(|s| s.op >= first_timed)
            .cloned()
            .collect();
        layer_metrics(&mut out, &stds, &timed, &stages, &frame_ns, &traced_ns);
    } else {
        out.metric("throughput", throughput(&stds, &frame_ns), "items/s");
        out.op_ms = pass_ns.iter().map(|ns| ns / 1e6).collect();
        out.metric("op_ms_p50", p50(&out.op_ms), "ms");
        out.metric("peak_rss_mb", stats.peak_rss_mb, "MiB");
        out.metric("setup_s", stats.setup_s, "s");
        let frame_medians: Vec<f64> = frame_ns.iter().map(|f| p50(f)).collect();
        twin_check(
            &mut out,
            &stds,
            &frame_medians,
            pass_ns.len(),
            "median frame time",
        );
    }
    out.spans = spans;
    Ok(out)
}

/// The cold-first guard: 802.11a and 802.11g (identical basebands) must
/// time alike now that the order rotates and a warm-up runs first.
/// `values` are per-standard medians over `passes` timed passes.
fn twin_check(out: &mut Outcome, stds: &[Standard], values: &[f64], passes: usize, what: &str) {
    if passes < TWIN_MIN_PASSES {
        return;
    }
    let find = |tag: &str| stds.iter().position(|s| s.tag == tag).map(|i| values[i]);
    if let (Some(a), Some(g)) = (find("802.11a"), find("802.11g")) {
        let ratio = a / g;
        out.checks.push(Check::new(
            format!("802.11a and 802.11g {what} agree"),
            (ratio - 1.0).abs() <= TWIN_TOLERANCE,
            format!("802.11a / 802.11g = {ratio:.4}"),
        ));
    }
}

/// Per-pass sums of one span name over the traced passes.
fn per_pass(spans: &[Span], name: &str, tag: Option<&str>) -> BTreeMap<u64, f64> {
    let mut sums = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
    {
        *sums.entry(s.op).or_insert(0.0) += s.duration_ns() as f64;
    }
    sums
}

fn median_us(values: impl Iterator<Item = f64>) -> f64 {
    p50(&values.collect::<Vec<_>>()) / 1e3
}

fn layer_metrics(
    out: &mut Outcome,
    stds: &[Standard],
    spans: &[Span],
    stages: &BTreeMap<u64, StageNanos>,
    frame_ns: &[Vec<f64>],
    traced_ns: &[Vec<f64>],
) {
    let graph = per_pass(spans, "rfsim.graph", None);
    let source = per_pass(spans, "core.source", None);
    let encode = per_pass(spans, "core.encode", None);
    let pa = per_pass(spans, "rfsim.pa", None);
    let ifft = per_pass(spans, "dsp.ifft", None);
    let stages: Vec<(u64, &StageNanos)> = stages
        .iter()
        .filter(|(op, _)| graph.contains_key(op))
        .map(|(&op, s)| (op, s))
        .collect();
    let stage = |f: fn(&StageNanos) -> u64| median_us(stages.iter().map(|(_, s)| f(s) as f64));

    out.metric(
        "trace_overhead",
        throughput(stds, traced_ns) / throughput(stds, frame_ns),
        "ratio",
    );
    out.metric("core.encode_us", median_us(encode.values().copied()), "us");
    out.metric("core.source_us", median_us(source.values().copied()), "us");
    out.metric("core.stage.pilot_us", stage(|s| s.pilot), "us");
    out.metric("core.stage.map_us", stage(|s| s.map), "us");
    out.metric("core.stage.ifft_us", stage(|s| s.ifft), "us");
    out.metric("core.stage.cp_us", stage(|s| s.cp), "us");
    let core_residual: Vec<f64> = stages
        .iter()
        .map(|(op, s)| {
            let src = source[op];
            (src - encode[op] - s.total() as f64) / src
        })
        .collect();
    out.metric("core.residual_share", p50(&core_residual), "ratio");
    out.metric("dsp.ifft_us", median_us(ifft.values().copied()), "us");
    out.metric("rfsim.pa_us", median_us(pa.values().copied()), "us");
    out.metric("rfsim.graph_us", median_us(graph.values().copied()), "us");
    let rfsim_residual: Vec<f64> = graph
        .iter()
        .map(|(op, g)| (g - source[op] - pa[op]) / g)
        .collect();
    out.metric("rfsim.residual_share", p50(&rfsim_residual), "ratio");
    let mut per_std = Vec::with_capacity(stds.len());
    for s in stds {
        let us = median_us(per_pass(spans, "core.source", Some(s.tag)).into_values());
        out.metric(&format!("core.source_us.{}", s.tag), us, "us");
        per_std.push(us);
    }
    twin_check(out, stds, &per_std, graph.len(), "core.source time");
}
