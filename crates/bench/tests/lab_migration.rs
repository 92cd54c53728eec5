//! Migration-equivalence tests: each legacy E-number experiment, now a
//! spec file under `examples/lab/`, must reproduce the hand-coded
//! experiment's verdict and key metrics — bit-identical where the legacy
//! body was deterministic.

use ofdm_bench::lab::{run_spec, CellAgg, ExperimentSpec, LabOptions, LabRun};
use ofdm_bench::waterfall::{run_waterfall, ChannelProfile, WaterfallSpec};
use ofdm_bench::{evm_after_gain_correction, loopback_errors, transmit_frame};
use ofdm_standards::{default_params, StandardId};
use rfsim::prelude::*;
use std::path::PathBuf;

fn lab_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/lab")
}

fn run_lab(file: &str) -> LabRun {
    let path = lab_dir().join(file);
    let spec = ExperimentSpec::load(&path).expect("spec loads");
    run_spec(&spec, &LabOptions::default()).expect("spec runs")
}

fn cell<'a>(run: &'a LabRun, scenario: &str, variant: &str) -> &'a CellAgg {
    run.cells
        .iter()
        .find(|c| c.scenario == scenario && c.variant == variant)
        .expect("cell exists")
}

fn value(run: &LabRun, scenario: &str, variant: &str, metric: &str) -> f64 {
    cell(run, scenario, variant)
        .metric(metric)
        .expect("metric")
        .values[0]
}

#[test]
fn every_spec_file_parses() {
    let dir = lab_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("lab dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let spec =
            ExperimentSpec::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(spec.run_count() >= 1, "{}", path.display());
        seen += 1;
    }
    assert!(seen >= 16, "expected the full spec library, found {seen}");
}

#[test]
fn e1_matches_legacy_loopback_exactly() {
    let run = run_lab("e1.json");
    assert!(run.verdict);
    assert_eq!(run.cells.len(), StandardId::ALL.len());
    // Spot-check two presets bit-for-bit against the legacy body:
    // seed 17, 4 symbols of payload.
    for key in ["802.11a", "dvb-t"] {
        let id = StandardId::from_key(key).expect("known key");
        let p = default_params(id);
        let n_bits = 4 * p.nominal_bits_per_symbol().max(100);
        let frame = transmit_frame(&p, n_bits, 17);
        assert_eq!(
            value(&run, key, "base", "papr_db"),
            frame.signal().papr_db(),
            "{key}: PAPR must be bit-identical to the legacy experiment"
        );
        assert_eq!(
            value(&run, key, "base", "loopback_errors"),
            loopback_errors(&p, n_bits, 17) as f64,
        );
        assert_eq!(
            value(&run, key, "base", "fft_size"),
            p.map.fft_size() as f64
        );
    }
}

#[test]
fn e6_pa_matches_legacy_evm_exactly() {
    let run = run_lab("e6_pa.json");
    assert!(run.verdict);
    // Legacy body: Mbps54, 12 kbit payload at seed 9, EVM over 6 symbols.
    let p = ofdm_standards::ieee80211a::params(ofdm_standards::ieee80211a::WlanRate::Mbps54);
    let frame = transmit_frame(&p, 12_000, 9);
    for (label, ibo) in [("ibo0", 0.0), ("ibo12", 12.0)] {
        let mut g = Graph::new();
        let src = g.add(SamplePlayback::new(frame.signal().clone()));
        let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(ibo));
        g.chain(&[src, pa]).expect("wires");
        g.execute(&ExecPlan::batch()).expect("runs");
        let out = g.output(pa).expect("ran");
        let legacy = evm_after_gain_correction(&p, &frame, out, 6);
        assert_eq!(value(&run, label, "base", "evm_db"), legacy, "{label}");
    }
}

#[test]
fn e9_matches_legacy_fault_counts() {
    let run = run_lab("e9_faults.json");
    assert!(run.verdict);
    let (outcomes, report) = ofdm_bench::lab::workloads::run_fault_sweep();
    let faults = report.faults.expect("resilient sweep");
    assert_eq!(
        value(&run, "sweep", "base", "outcomes"),
        outcomes.len() as f64
    );
    assert_eq!(
        value(&run, "sweep", "base", "succeeded"),
        faults.succeeded as f64
    );
    assert_eq!(
        value(&run, "sweep", "base", "retried"),
        faults.retried as f64
    );
    assert_eq!(
        value(&run, "sweep", "base", "faulted"),
        faults.faulted as f64
    );
    assert_eq!(
        value(&run, "sweep", "base", "panics_caught"),
        faults.panics_caught as f64
    );
    assert_eq!(
        value(&run, "sweep", "base", "errors_caught"),
        faults.errors_caught as f64
    );
}

#[test]
fn ber_grid_cells_are_bit_identical_to_run_waterfall() {
    // The E11 migration contract: a lab spec with the same grid geometry
    // and seed reproduces `run_waterfall`'s per-point error/bit tallies
    // exactly — the kernel replays the same flat-index seed stream.
    let spec = WaterfallSpec {
        standards: vec![StandardId::Ieee80211a, StandardId::Dab],
        snr_db: vec![3.0, 9.0],
        realizations: 2,
        payload_bits: 400,
        base_seed: 777,
        profile: ChannelProfile::Awgn,
        threads: 0,
    };
    let legacy = run_waterfall(&spec, None).expect("waterfall runs");

    let doc = serde::json::parse(
        r#"{
            "schema": "lab-spec/v1",
            "name": "e11_equiv",
            "workload": "ber_grid",
            "base_seed": 777,
            "defaults": {
                "grid_seed": 777, "n_snr": 2, "realizations": 2,
                "payload_bits": 400, "profile": "awgn"
            },
            "scenarios": [
                { "label": "snr3", "snr_db": 3, "snr_index": 0 },
                { "label": "snr9", "snr_db": 9, "snr_index": 1 }
            ],
            "variants": [
                { "label": "802.11a", "standard": "802.11a", "std_index": 0 },
                { "label": "dab", "standard": "dab", "std_index": 1 }
            ]
        }"#,
    )
    .expect("valid JSON");
    let lab_spec = ExperimentSpec::parse(&doc).expect("parses");
    let run = run_spec(&lab_spec, &LabOptions::default()).expect("runs");

    for (s, curve) in legacy.curves.iter().enumerate() {
        let variant = curve.standard.key();
        for (g, point) in curve.points.iter().enumerate() {
            let scenario = ["snr3", "snr9"][g];
            assert_eq!(
                value(&run, scenario, variant, "errors"),
                point.errors as f64,
                "standard {s} point {g}: error tallies must be bit-identical"
            );
            assert_eq!(value(&run, scenario, variant, "bits"), point.bits as f64);
            assert_eq!(value(&run, scenario, variant, "ber"), point.ber());
        }
    }
}

#[test]
fn e11_specs_reproduce_legacy_verdicts() {
    // The real E11 grids are sized for release CI; here it is enough
    // that the specs parse with the legacy grid geometry and seeds.
    let awgn = ExperimentSpec::load(&lab_dir().join("e11_awgn.json")).expect("loads");
    assert_eq!(awgn.base_seed, 0xE11);
    assert_eq!(awgn.scenarios.len(), 5);
    assert_eq!(awgn.variants.len(), 3);
    let rayleigh = ExperimentSpec::load(&lab_dir().join("e11_rayleigh.json")).expect("loads");
    assert_eq!(rayleigh.base_seed, 0xFAD);
    assert_eq!(rayleigh.scenarios.len(), 3);
}

#[test]
fn e12_service_roundtrip_or_graceful_skip() {
    // The service kernels need the sibling `rfsim-server`/`rfsim-cli`
    // binaries, which `cargo test -p ofdm-bench` does not build. Run the
    // full round trip when they exist, skip loudly when they don't.
    let path = lab_dir().join("e12.json");
    let spec = ExperimentSpec::load(&path).expect("spec loads");
    match run_spec(&spec, &LabOptions::default()) {
        Ok(run) => assert!(
            run.verdict,
            "service round trip must pass when binaries exist"
        ),
        Err(e) if e.contains("not found") => {
            eprintln!("skipping e12 migration check: {e}");
        }
        Err(e) => panic!("unexpected service failure: {e}"),
    }
}
