//! The execution contract: `Graph::execute(&ExecPlan)` is the only way to
//! run a graph, and every feature the plan can switch on (guard ×
//! telemetry × budget × breakers, batch and streaming) leaves a clean
//! pass bit-identical to the plain plan — outputs, measurements and run
//! reports — while the failure paths surface as typed errors with the
//! expected health and breaker counters.

use rfsim::prelude::*;
use std::time::Duration;

/// Tone → PA → AWGN (fixed reference, seeded) → power meter: a fully
/// deterministic chain where every block has a native streaming override.
fn build_chain(seed: u64) -> (Graph, BlockId, BlockId) {
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e6, 20.0e6, 2048));
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(6.0));
    let ch = g.add(AwgnChannel::from_snr_db(25.0, seed).with_reference_power(0.2));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, pa, ch, meter]).expect("wires");
    g.probe(ch).expect("probe");
    (g, ch, meter)
}

/// A chain whose impairment fails on every invocation: the material for
/// the guard and breaker paths. With a breaker policy the failing block
/// is bypassed pass-through; with the non-finite guard and no breaker the
/// pass fails.
fn build_faulty_chain(error_rate: f64, nan_rate: f64) -> (Graph, BlockId, BlockId) {
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e6, 20.0e6, 2048));
    let bad = g.add(
        FaultPlan::new()
            .with_error_rate(error_rate)
            .with_nan_rate(nan_rate)
            .wrap(0xEE, NanInjector::new(1.0, 5)),
    );
    let pa = g.add(SoftClipPa::new(1.0));
    g.chain(&[src, bad, pa]).expect("wires");
    g.probe(pa).expect("probe");
    (g, bad, pa)
}

/// Reports must agree on everything except wall-clock timings.
fn assert_reports_match(want: &RunReport, got: &RunReport, label: &str) {
    assert_eq!(want.mode, got.mode, "{label}: mode");
    assert_eq!(want.rounds, got.rounds, "{label}: rounds");
    assert_eq!(want.health, got.health, "{label}: health");
    assert_eq!(
        want.breaker_trips, got.breaker_trips,
        "{label}: breaker trips"
    );
    assert_eq!(
        want.bypassed_invocations, got.bypassed_invocations,
        "{label}: bypassed invocations"
    );
    assert_eq!(want.blocks.len(), got.blocks.len(), "{label}: blocks");
    for (a, b) in want.blocks.iter().zip(&got.blocks) {
        assert_eq!(a.name, b.name, "{label}: block name");
        assert_eq!(
            a.invocations, b.invocations,
            "{label}: {} invocations",
            a.name
        );
        assert_eq!(a.samples_in, b.samples_in, "{label}: {} samples in", a.name);
        assert_eq!(
            a.samples_out, b.samples_out,
            "{label}: {} samples out",
            a.name
        );
        assert_eq!(
            a.buffer_high_water, b.buffer_high_water,
            "{label}: {} buffer high water",
            a.name
        );
        assert_eq!(a.bypassed, b.bypassed, "{label}: {} bypassed", a.name);
    }
}

/// The full feature matrix on a clean chain: guard × telemetry × budget ×
/// breakers, batch and streaming. Each plan is compared against the plain
/// plan of its mode: the probed output and the meter reading must be
/// bit-identical, a report must come back exactly when telemetry is on,
/// and its shape must match the plain instrumented pass modulo timing.
#[test]
fn every_plan_matches_the_plain_plan_per_feature_combination() {
    let chunk_len = 77usize;
    let mut batch_output = None;
    for plain in [ExecPlan::batch(), ExecPlan::streaming(chunk_len)] {
        let (mut reference, ch, meter) = build_chain(11);
        let want_report = reference
            .execute(&plain.clone().with_telemetry(true))
            .expect("plain pass")
            .expect("telemetry was requested");
        let want_output = reference.output(ch).expect("probed").clone();
        let want_power = reference.block::<PowerMeter>(meter).unwrap().power();
        assert_eq!(want_report.mode, plain.mode().into());
        assert_eq!(want_report.health, Health::Healthy);
        // Batch and streaming agree on the signal path, too.
        assert_eq!(
            batch_output.get_or_insert_with(|| want_output.clone()),
            &want_output,
            "streaming output differs from batch"
        );

        for telemetry in [false, true] {
            for guard in [false, true] {
                for budget in [None, Some(Duration::from_secs(3600))] {
                    for breakers in [None, Some(BreakerPolicy::new().with_threshold(2))] {
                        let label = format!(
                            "mode={:?} telemetry={telemetry} guard={guard} budget={} \
                             breakers={}",
                            plain.mode(),
                            budget.is_some(),
                            breakers.is_some()
                        );
                        let plan = plain
                            .clone()
                            .with_telemetry(telemetry)
                            .guard_non_finite(guard)
                            .with_budget(budget)
                            .with_breaker_policy(breakers);
                        let (mut g, ch, meter) = build_chain(11);
                        let report = g.execute(&plan).expect(&label);

                        assert_eq!(
                            g.output(ch).expect(&label),
                            &want_output,
                            "{label}: probed channel output"
                        );
                        assert_eq!(
                            g.block::<PowerMeter>(meter).unwrap().power(),
                            want_power,
                            "{label}: measured power"
                        );
                        assert_eq!(report.is_some(), telemetry, "{label}: report presence");
                        if let Some(report) = &report {
                            assert_reports_match(&want_report, report, &label);
                        }
                        assert_eq!(g.health(), Health::Healthy, "{label}: health");
                    }
                }
            }
        }
    }
}

/// A guarded pass over a NaN-emitting block fails with a typed error
/// naming the block, in both modes, and leaves the graph `Failed` with no
/// breaker activity.
#[test]
fn guard_failure_is_a_typed_error_in_both_modes() {
    for plan in [ExecPlan::batch(), ExecPlan::streaming(64)] {
        let label = format!("{:?}", plan.mode());
        let (mut g, _, _) = build_faulty_chain(0.0, 1.0);
        let err = g
            .execute(&plan.guard_non_finite(true).with_telemetry(true))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "block `fault(nan-injector)` emitted a non-finite sample at index 0",
            "{label}"
        );
        assert_eq!(g.health(), Health::Failed, "{label}");
        assert_eq!(g.breaker_trips(), 0, "{label}");
        assert_eq!(g.bypassed_invocations(), 0, "{label}");
    }
}

/// A breaker-degraded streaming pass trips once, bypasses the failing
/// block on every chunk, finishes `Degraded`, and its output is the clean
/// pass-through.
#[test]
fn breaker_degradation_bypasses_the_failing_block() {
    let plan = ExecPlan::streaming(128)
        .with_telemetry(true)
        .with_breaker_policy(Some(BreakerPolicy::new().with_threshold(1)));
    let (mut g, bad, pa) = build_faulty_chain(1.0, 0.0);
    let report = g
        .execute(&plan)
        .expect("degrades")
        .expect("telemetry was requested");

    // 2048 samples in 128-sample chunks: 16 chunks, each one bypassed.
    assert_eq!(report.health, Health::Degraded);
    assert_eq!(g.health(), Health::Degraded);
    assert_eq!(report.breaker_trips, 1);
    assert_eq!(g.breaker_trips(), 1);
    assert_eq!(report.bypassed_invocations, 16);
    assert_eq!(g.bypassed_invocations(), 16);
    assert_eq!(g.bypassed(bad), Some(16));
    assert_eq!(
        report.block("fault(nan-injector)").map(|b| b.bypassed),
        Some(16)
    );
    assert_eq!(g.breaker_state(bad).map(|s| s.is_open()), Some(true));

    let mut clean = Graph::new();
    let src = clean.add(ToneSource::new(1.0e6, 20.0e6, 2048));
    let clean_pa = clean.add(SoftClipPa::new(1.0));
    clean.chain(&[src, clean_pa]).expect("wires");
    clean.execute(&ExecPlan::batch()).expect("clean pass");
    assert_eq!(g.output(pa), clean.output(clean_pa), "pass-through output");
}

/// Supervision limits on the plan abort with typed errors: an exhausted
/// deadline and a pre-cancelled token both stop the pass at its first
/// block boundary and leave the graph `Failed`.
#[test]
fn deadline_and_cancellation_abort_with_typed_errors() {
    // Deadline: a zero budget trips at the first supervision check. The
    // rendered message embeds the elapsed wall time, so match the type.
    let (mut g, _, _) = build_chain(3);
    let err = g
        .execute(&ExecPlan::batch().with_budget(Some(Duration::ZERO)))
        .unwrap_err();
    assert!(
        matches!(&err, SimError::DeadlineExceeded { block, .. } if block == "tone-source"),
        "deadline: {err:?}"
    );
    assert_eq!(g.health(), Health::Failed);

    // Cancellation: an already-cancelled token aborts before any block.
    let token = CancelToken::new();
    token.cancel();
    let (mut g, _, _) = build_chain(3);
    let err = g
        .execute(&ExecPlan::streaming(64).with_cancel_token(Some(token)))
        .unwrap_err();
    assert_eq!(err.to_string(), "run cancelled at block `tone-source`");
    assert_eq!(g.health(), Health::Failed);
}
