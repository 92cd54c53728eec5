//! `ber_grid`: the waterfall use. Grid after grid of six standards × five
//! SNRs × four Rayleigh realizations × 8192 bits through `run_waterfall`
//! on two threads, each grid with a fresh `base_seed`.
//!
//! Traced grids run the same points with the layers called directly —
//! transmit, fading, AWGN, receive — then time the receiver's demodulator
//! and Viterbi decoder alone on the same frame, and must tally exactly
//! what `run_waterfall` tallied for that grid.

use crate::trace::{append, Span, Tracer};
use crate::{
    closed_loop, loopback_check, nanos, p50, p95, Check, Config, OpRecord, Outcome, Phase,
};
use ofdm_bench::waterfall::{run_waterfall, waterfall_json, ChannelProfile, WaterfallSpec};
use ofdm_core::ber::{BerCounter, BitSource};
use ofdm_core::fec::ConvCode;
use ofdm_core::params::OfdmParams;
use ofdm_core::MotherModel;
use ofdm_dsp::Complex64;
use ofdm_rx::demod::OfdmDemodulator;
use ofdm_rx::eq::ChannelEstimate;
use ofdm_rx::fec::ViterbiDecoder;
use ofdm_rx::ReferenceReceiver;
use ofdm_server::assemble_report;
use ofdm_standards::{default_params, StandardId};
use rfsim::prelude::{AwgnChannel, Block, FadingChannel};
use rfsim::{scenario_seed, SweepPlan};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

const STANDARDS: [StandardId; 6] = [
    StandardId::Ieee80211a,
    StandardId::Dab,
    StandardId::DvbT,
    StandardId::Drm,
    StandardId::HomePlug10,
    StandardId::Ieee80216a,
];
const SNR_DB: [f64; 5] = [0.0, 5.0, 10.0, 15.0, 20.0];
const REALIZATIONS: usize = 4;
const PAYLOAD_BITS: usize = 8192;
/// Sweep workers (the load generator's thread budget).
const THREADS: usize = 2;
const PATHS: [(usize, f64); 3] = [(0, 0.6), (3, 0.3), (7, 0.1)];

fn grid(base_seed: u64) -> WaterfallSpec {
    WaterfallSpec {
        standards: STANDARDS.to_vec(),
        snr_db: SNR_DB.to_vec(),
        realizations: REALIZATIONS,
        payload_bits: PAYLOAD_BITS,
        base_seed,
        profile: ChannelProfile::Rayleigh {
            paths: PATHS.to_vec(),
        },
        threads: THREADS,
    }
}

/// The `waterfall/v1` document of a grid and its bit-error total.
fn document(spec: &WaterfallSpec) -> Result<(String, u64), String> {
    let report = run_waterfall(spec, None)?;
    let errors = report
        .curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| p.errors))
        .sum();
    Ok((waterfall_json(spec, &report).to_string(), errors))
}

/// Bits entering the convolutional encoder for `payload_bits` (after the
/// outer Reed–Solomon code, if any).
fn pre_conv_len(params: &OfdmParams, payload_bits: usize) -> usize {
    match params.rs_outer {
        Some(rs) => payload_bits.div_ceil(8).div_ceil(rs.k) * rs.n * 8,
        None => payload_bits,
    }
}

/// Grid point `index`, computed exactly as `measure_ber_point` does but
/// with a span around each layer call, followed by the receiver's
/// demodulator and Viterbi decoder timed alone on the same frame.
fn traced_point(spec: &WaterfallSpec, index: usize, t: &mut Tracer) -> Result<(u64, u64), String> {
    let (s, g, _) = spec.decompose(index);
    let id = spec.standards[s];
    let tag = id.key();
    let params = default_params(id);
    let seed = scenario_seed(spec.base_seed, index);
    let ChannelProfile::Rayleigh { paths } = &spec.profile else {
        return Err("ber_grid runs Rayleigh grids".to_owned());
    };
    let mut probe_input = None;
    let tally = t.span("ber.point", tag, |t| {
        let sent = BitSource::new(scenario_seed(seed, 1)).take(spec.payload_bits);
        let mut tx = MotherModel::new(params.clone()).map_err(|e| format!("tx: {e}"))?;
        let frame = t
            .span("core.transmit", tag, |_| tx.transmit(&sent))
            .map_err(|e| format!("transmit: {e}"))?;
        let tx_power = frame.signal().power();
        let mut rx = ReferenceReceiver::new(params.clone()).map_err(|e| format!("rx: {e}"))?;
        let mut fading = FadingChannel::rayleigh(paths.clone(), 0.0, scenario_seed(seed, 2));
        let faded = t
            .span("rfsim.fading", tag, |_| {
                fading.process(std::slice::from_ref(frame.signal()))
            })
            .map_err(|e| format!("fading: {e}"))?;
        let fft = params.map.fft_size() as f64;
        let known: Vec<(i32, Complex64)> = params
            .map
            .data_carriers()
            .iter()
            .map(|&k| (k, fading.freq_response_at(k as f64 / fft, 0, 1.0)))
            .collect();
        let reference: Vec<(i32, Complex64)> =
            known.iter().map(|&(k, _)| (k, Complex64::ONE)).collect();
        rx.set_channel_estimate(ChannelEstimate::from_reference(&known, &reference));
        let noisy = t
            .span("rfsim.awgn", tag, |_| {
                AwgnChannel::from_snr_db(spec.snr_db[g], scenario_seed(seed, 3))
                    .with_reference_power(tx_power)
                    .process(std::slice::from_ref(&faded))
            })
            .map_err(|e| format!("awgn: {e}"))?;
        let received = t.span("rx.receive", tag, |_| rx.receive(&noisy, sent.len()));
        let mut counter = BerCounter::new();
        match received {
            Ok(got) => counter.record(&sent, &got),
            Err(_) => counter.add(sent.len() as u64, sent.len() as u64),
        }
        probe_input = Some((noisy, frame.symbol_count(), rx.preamble_samples(), sent));
        Ok::<_, String>((counter.errors, counter.bits))
    })?;

    let (noisy, symbols, preamble, sent) = probe_input.expect("the point span ran to completion");
    let demod = OfdmDemodulator::new(params.clone());
    let viterbi = match &params.conv_code {
        Some(code) => {
            let pre = pre_conv_len(&params, sent.len());
            let mut message = sent;
            message.resize(pre, 0);
            let coded = ConvCode::new(code.clone())
                .map_err(|e| format!("conv: {e}"))?
                .encode_terminated(&message);
            Some((ViterbiDecoder::new(code.clone()), coded, pre))
        }
        None => None,
    };
    t.span("rx.probe", tag, |t| {
        let (re, im) = noisy.parts();
        t.span("rx.demod", tag, |_| {
            for i in 0..symbols {
                black_box(demod.demodulate_at_parts(re, im, preamble + i * demod.symbol_len(), i));
            }
        });
        if let Some((decoder, coded, pre)) = &viterbi {
            t.span("rx.viterbi", tag, |_| {
                black_box(decoder.decode_terminated(coded, *pre));
            });
        }
    });
    Ok(tally)
}

/// What one traced grid produced.
struct TracedGrid {
    /// Per-point `(errors, bits)`, in grid order.
    tallies: Vec<(u64, u64)>,
    /// Spans; point `i` is operation `first_op + i`.
    spans: Vec<Span>,
    wall_ns: u64,
}

/// One traced grid on the same [`SweepPlan`] pool `run_waterfall` uses.
fn traced_grid(spec: &WaterfallSpec, first_op: u64, origin: Instant) -> Result<TracedGrid, String> {
    let spans = Mutex::new(Vec::new());
    let started = Instant::now();
    let (tallies, _) = SweepPlan::new(spec.point_count())
        .threads(THREADS)
        .run_fail_fast(|i| {
            let mut tracer = Tracer::new(origin);
            tracer.set_op(first_op + i as u64);
            let tally = traced_point(spec, i, &mut tracer)?;
            let mut all = spans.lock().map_err(|_| "span list poisoned".to_owned())?;
            tracer.drain_into(&mut all);
            Ok::<_, String>(tally)
        })?;
    Ok(TracedGrid {
        tallies,
        spans: spans
            .into_inner()
            .map_err(|_| "span list poisoned".to_owned())?,
        wall_ns: nanos(started.elapsed()),
    })
}

fn setup(seed: u64) -> Result<Vec<Check>, String> {
    STANDARDS
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            loopback_check(
                id.key(),
                &default_params(id),
                PAYLOAD_BITS,
                scenario_seed(seed, 1000 + i),
            )
        })
        .collect()
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome {
        checks: setup(cfg.seed)?,
        ..Outcome::default()
    };

    let count = grid(0).point_count();
    let origin = Instant::now();
    let mut first: Option<(WaterfallSpec, String, u64)> = None;
    let mut last_doc = String::new();
    let mut grid_ns: Vec<f64> = Vec::new();
    let mut traced_grid_ns: Vec<f64> = Vec::new();
    let mut utilization: Vec<f64> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut first_timed_op = u64::MAX;
    let (mut traced_grids, mut mismatched) = (0usize, 0usize);

    let stats = closed_loop(
        cfg,
        || setup(cfg.seed),
        |phase, k| {
            // With tracing on, grids come in pairs on one seed: untraced
            // first, then traced, which must tally the same.
            let traced = cfg.trace && k % 2 == 1;
            let index =
                usize::try_from(if cfg.trace { k / 2 } else { k }).map_err(|e| e.to_string())?;
            let spec = grid(scenario_seed(cfg.seed, index));
            let ns;
            if traced {
                let grid = traced_grid(&spec, k * count as u64, origin)?;
                let doc =
                    waterfall_json(&spec, &assemble_report(&spec, &grid.tallies)?).to_string();
                traced_grids += 1;
                if doc != last_doc {
                    mismatched += 1;
                }
                let roots = |name: &str| -> u64 {
                    grid.spans
                        .iter()
                        .filter(|s| s.parent.is_none() && s.name == name)
                        .map(Span::duration_ns)
                        .sum()
                };
                let (points, probes) = (roots("ber.point"), roots("rx.probe"));
                // The grid's wall time without the direct receiver calls,
                // comparable to an untraced grid.
                ns = grid.wall_ns.saturating_sub(probes / THREADS as u64);
                let busy = points + probes;
                if phase == Phase::Timed {
                    first_timed_op = first_timed_op.min(k * count as u64);
                    traced_grid_ns.push(ns as f64);
                    utilization.push(busy as f64 / (THREADS as f64 * grid.wall_ns as f64));
                }
                append(&mut spans, grid.spans);
            } else {
                let started = Instant::now();
                let (doc, errors) = document(&spec)?;
                ns = nanos(started.elapsed());
                if phase == Phase::Timed {
                    grid_ns.push(ns as f64);
                }
                if first.is_none() {
                    first = Some((spec, doc.clone(), errors));
                }
                last_doc = doc;
            }
            out.ops.push(OpRecord {
                phase,
                op: k,
                kind: "grid",
                tag: "",
                traced,
                ns,
                ok: true,
            });
            Ok(())
        },
    )?;

    let (spec, doc, errors) = first.expect("closed_loop runs an untraced grid first");
    let (again, _) = document(&spec)?;
    out.checks.push(Check::new(
        "first grid rerun from its seed is byte-identical",
        again == doc,
        format!("{} bit errors in grid 0", errors),
    ));

    if cfg.trace {
        out.checks.push(Check::new(
            "traced grids tally what run_waterfall tallied on the same seed",
            mismatched == 0,
            format!("{mismatched} of {traced_grids} traced grids differ"),
        ));
        let timed: Vec<&Span> = spans.iter().filter(|s| s.op >= first_timed_op).collect();
        layer_metrics(&mut out, &timed, errors);
        out.metric(
            "trace_overhead",
            p50(&grid_ns) / p50(&traced_grid_ns),
            "ratio",
        );
        out.metric(
            "sweep.utilization",
            utilization.iter().sum::<f64>() / utilization.len() as f64,
            "ratio",
        );
    } else {
        out.metric(
            "throughput",
            count as f64 / (p50(&grid_ns) / 1e9),
            "items/s",
        );
        out.op_ms = grid_ns.iter().map(|ns| ns / 1e6).collect();
        out.metric("op_ms_p50", p50(&out.op_ms), "ms");
        out.metric("peak_rss_mb", stats.peak_rss_mb, "MiB");
        out.metric("setup_s", stats.setup_s, "s");
    }
    out.spans = spans;
    Ok(out)
}

fn layer_metrics(out: &mut Outcome, spans: &[&Span], bit_errors: u64) {
    let points: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "ber.point")
        .map(|s| s.duration_ns() as f64)
        .collect();
    let n = points.len() as f64;
    let total = |name: &str, tag: Option<&str>| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    // Mean milliseconds per point.
    let per_point = |name: &str| total(name, None) / n / 1e6;
    out.metric("ber.point_ms_p50", p50(&points) / 1e6, "ms");
    out.metric("ber.point_ms_p95", p95(&points) / 1e6, "ms");
    for name in [
        "core.transmit",
        "rfsim.fading",
        "rfsim.awgn",
        "rx.receive",
        "rx.demod",
        "rx.viterbi",
    ] {
        out.metric(&format!("{name}_ms"), per_point(name), "ms");
    }
    out.metric(
        "rx.rest_ms",
        per_point("rx.receive") - per_point("rx.demod") - per_point("rx.viterbi"),
        "ms",
    );
    let layers: f64 = ["core.transmit", "rfsim.fading", "rfsim.awgn", "rx.receive"]
        .iter()
        .map(|name| total(name, None))
        .sum();
    let point_total: f64 = points.iter().sum();
    out.metric(
        "ber.residual_share",
        (point_total - layers) / point_total,
        "ratio",
    );
    for id in STANDARDS {
        let tag = id.key();
        let count = spans
            .iter()
            .filter(|s| s.name == "ber.point" && s.tag == tag)
            .count() as f64;
        out.metric(
            &format!("rx.receive_ms.{tag}"),
            total("rx.receive", Some(tag)) / count / 1e6,
            "ms",
        );
    }
    out.metric("ber.bit_errors", bit_errors as f64, "count");
}
