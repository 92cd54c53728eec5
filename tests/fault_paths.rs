//! Fault-path integration tests: malformed inputs must surface as typed
//! errors — never a panic — on both schedulers, for every registry
//! standard; and an adversarial fault-injection sweep must run to
//! completion with per-scenario outcomes matching the injected faults.

use ofdm_core::source::OfdmSource;
use ofdm_core::{MotherModel, TxError};
use ofdm_standards::{default_params, StandardId};
use proptest::prelude::*;
use rfsim::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Empty and non-bit payloads are typed `TxError`s for every
    /// standard, and the transmitter stays usable after each rejection.
    #[test]
    fn malformed_payloads_are_typed_errors(
        s in 0usize..StandardId::ALL.len(),
        bad in 2u8..=255,
        pos in 0usize..96,
    ) {
        let id = StandardId::ALL[s];
        let mut tx = MotherModel::new(default_params(id)).expect("preset valid");
        prop_assert_eq!(tx.transmit(&[]).unwrap_err(), TxError::EmptyPayload);
        let mut payload = vec![0u8; 96];
        payload[pos] = bad;
        prop_assert_eq!(
            tx.transmit(&payload).unwrap_err(),
            TxError::InvalidBit { index: pos, value: bad }
        );
        payload[pos] = 1;
        prop_assert!(tx.transmit(&payload).is_ok(), "{id}: usable after rejection");
    }

    /// A zero-length streaming plan is `SimError::InvalidChunkLen` for every
    /// standard's source chain; the same graph still runs batch and at a
    /// sane chunk length afterwards.
    #[test]
    fn zero_chunk_is_a_typed_error_for_all_standards(
        s in 0usize..StandardId::ALL.len(),
        seed in 0u64..1000,
    ) {
        let id = StandardId::ALL[s];
        let p = default_params(id);
        let bits = p.nominal_bits_per_symbol().max(100);
        let mut g = Graph::new();
        let src = g.add(OfdmSource::new(p, bits, seed).expect("preset valid"));
        let meter = g.add(PowerMeter::new());
        g.connect(src, meter, 0).expect("wires");
        prop_assert_eq!(
            g.execute(&ExecPlan::streaming(0)).unwrap_err(),
            SimError::InvalidChunkLen
        );
        prop_assert!(
            g.execute(&ExecPlan::batch()).is_ok(),
            "{id}: batch run after rejected chunk len"
        );
        g.reset();
        prop_assert!(
            g.execute(&ExecPlan::streaming(128)).is_ok(),
            "{id}: streaming after reset"
        );
    }

    /// A non-finite sample injected mid-stream surfaces as
    /// `NonFiniteSample` naming the corrupting block — on batch and
    /// streaming paths alike — once the plan arms the guard.
    #[test]
    fn non_finite_guard_catches_midstream_nans(
        s in 0usize..StandardId::ALL.len(),
        chunk in 1usize..300,
        seed in 0u64..1000,
    ) {
        let id = StandardId::ALL[s];
        let p = default_params(id);
        let bits = p.nominal_bits_per_symbol().max(100);
        let build = || {
            let mut g = Graph::new();
            let src = g.add(OfdmSource::new(p.clone(), bits, seed).expect("preset valid"));
            let nan = g.add(NanInjector::new(1.0, seed ^ 0xBAD));
            let meter = g.add(PowerMeter::new());
            g.chain(&[src, nan, meter]).expect("wires");
            g
        };
        let expect_nan_error = |err: SimError| match err {
            SimError::NonFiniteSample { block, .. } => {
                prop_assert_eq!(block, "nan-injector".to_owned());
                Ok(())
            }
            other => {
                prop_assert!(false, "{id}: want NonFiniteSample, got {other:?}");
                Ok(())
            }
        };
        for plan in [ExecPlan::batch(), ExecPlan::streaming(chunk)] {
            expect_nan_error(build().execute(&plan.guard_non_finite(true)).unwrap_err())?;
        }
    }
}

/// The acceptance sweep: 64 scenarios with a [`FaultPlan`] injecting
/// panics, NaNs and dropped samples into three wrapped block types. The
/// sweep must run to completion — never aborting the process — with
/// per-scenario outcome counts exactly matching the injected faults.
#[test]
fn adversarial_sweep_completes_with_partial_results() {
    let (outcomes, report) = SweepPlan::new(64)
        .threads(4)
        .with_retry(RetryPolicy::retries(1))
        .run(|i, attempt, _ctx| -> Result<f64, SimError> {
            let seed = scenario_seed(0xFA17, i) ^ u64::from(attempt);
            // Scenario kinds by index: clean / panics-once / always-NaN /
            // erasures. Panic scenarios are healthy on their retry.
            let plan = match i % 4 {
                0 => FaultPlan::new(),
                1 => FaultPlan::new().with_panic_rate(if attempt == 0 { 1.0 } else { 0.0 }),
                2 => FaultPlan::new().with_nan_rate(1.0),
                _ => FaultPlan::new().with_drop_rate(0.25),
            };
            let mut g = Graph::new();
            let src = g.add(ToneSource::new(1.0e6, 20.0e6, 1024));
            // The plan rotates over three distinct block types.
            let impaired = match (i / 4) % 3 {
                0 => g.add(plan.wrap(seed, SoftClipPa::new(1.0))),
                1 => g.add(plan.wrap(seed, RappPa::new(1.0, 3.0))),
                _ => g.add(plan.wrap(seed, AwgnChannel::from_snr_db(30.0, seed))),
            };
            let meter = g.add(PowerMeter::new());
            g.chain(&[src, impaired, meter])?;
            g.execute(&ExecPlan::batch().guard_non_finite(true))?;
            Ok(g.block::<PowerMeter>(meter)
                .expect("present")
                .power()
                .expect("ran"))
        });

    assert_eq!(outcomes.len(), 64, "every scenario must report an outcome");
    let faults = report.faults.expect("resilient sweep reports faults");
    assert_eq!(faults.succeeded, 32, "clean + erasure scenarios succeed");
    assert_eq!(faults.retried, 16, "panic scenarios recover on retry");
    assert_eq!(faults.faulted, 16, "NaN scenarios exhaust both attempts");
    assert_eq!(faults.panics_caught, 16, "one panic per panic scenario");
    assert_eq!(faults.errors_caught, 32, "two guard trips per NaN scenario");
    assert!((faults.survival_rate() - 0.75).abs() < 1e-12);

    for (i, outcome) in outcomes.iter().enumerate() {
        match i % 4 {
            0 | 3 => {
                let p = outcome.result().expect("clean/erasure scenario succeeded");
                assert!(p.is_finite() && *p > 0.0, "scenario {i}: power {p}");
                assert_eq!(outcome.attempts(), 1);
            }
            1 => {
                assert!(
                    matches!(outcome, ScenarioOutcome::Retried { attempts: 2, .. }),
                    "scenario {i}: {outcome:?}"
                );
            }
            _ => match outcome {
                ScenarioOutcome::Faulted { attempts, error } => {
                    assert_eq!(*attempts, 2, "scenario {i}");
                    assert!(error.contains("non-finite"), "scenario {i}: {error}");
                }
                other => panic!("scenario {i}: want Faulted, got {other:?}"),
            },
        }
    }
    assert_eq!(report.scenario_nanos.len(), 64);
    assert_eq!(report.workers, 4);
}
