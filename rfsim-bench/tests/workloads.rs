//! Each workload runs for about a second, untraced and traced, and must
//! report every metric `BENCHMARK.json` names, finite and in its unit,
//! with every output check passing.

use rfsim_bench::{run, Config, Outcome, Workload, END_TO_END, PER_LAYER};
use serde::json::{parse, Value};
use std::path::PathBuf;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), table(&END_TO_END));
    assert_eq!(declared("per_layer"), table(&PER_LAYER));
}

fn run_for_a_second(workload: Workload, trace: bool) -> Outcome {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        workload.name(),
        if trace { "trace" } else { "plain" }
    ));
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        out,
    };
    let outcome = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let failed: Vec<_> = outcome.checks.iter().filter(|c| !c.passed).collect();
    assert!(failed.is_empty(), "{}: {failed:?}", workload.name());
    assert_eq!(outcome.failed(), 0);
    assert!(outcome.attempted() > 0);
    let section = if trace { "per_layer" } else { "end_to_end" };
    for (name, unit) in declared(section) {
        let metric = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{}: no metric {name}", workload.name()));
        assert_eq!(metric.unit, unit, "{name}");
        assert!(metric.value.is_finite(), "{name} = {}", metric.value);
    }
    if trace {
        assert!(!outcome.spans.is_empty(), "{}: no spans", workload.name());
        rfsim_bench::trace::reconcile(&outcome.spans).expect("spans reconcile");
    } else {
        for name in ["setup_s", "throughput", "op_ms_p50", "peak_rss_mb"] {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value;
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
    outcome
}

/// The per-layer metric of `outcome` named `name`.
fn layer(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn tx_pow2_reports_every_metric() {
    run_for_a_second(Workload::TxPow2, false);
    let traced = run_for_a_second(Workload::TxPow2, true);
    assert!(layer(&traced, "core.source_us.802.11a") > 0.0);
    assert!(layer(&traced, "dsp.ifft_us") > 0.0);
    // The control never reaches the DRM modes or the receiver.
    assert_eq!(layer(&traced, "core.source_us.drm-a"), 0.0);
    assert_eq!(layer(&traced, "rx.receive_ms"), 0.0);
}

#[test]
fn tx_drm_reports_every_metric() {
    run_for_a_second(Workload::TxDrm, false);
    let traced = run_for_a_second(Workload::TxDrm, true);
    assert!(layer(&traced, "core.source_us.drm-a") > 0.0);
    assert_eq!(layer(&traced, "core.source_us.802.11a"), 0.0);
}

#[test]
fn ber_grid_reports_every_metric() {
    run_for_a_second(Workload::BerGrid, false);
    let traced = run_for_a_second(Workload::BerGrid, true);
    assert!(layer(&traced, "rx.viterbi_ms") > 0.0);
    assert!(layer(&traced, "ber.bit_errors") > 0.0);
    assert_eq!(layer(&traced, "rfsim.graph_us"), 0.0);
}

#[test]
fn service_grid_reports_every_metric_or_skips_without_the_server() {
    // The workload spawns the `rfsim-server` binary built next to this
    // one; without it the run must fail cleanly, and the test skips.
    if let Err(e) = ofdm_bench::lab::workloads::sibling_binary("rfsim-server") {
        eprintln!("skipping service_grid: {e}");
        return;
    }
    run_for_a_second(Workload::ServiceGrid, false);
    let traced = run_for_a_second(Workload::ServiceGrid, true);
    assert!(layer(&traced, "service.submit_rtt_ms_p50") > 0.0);
    assert!(layer(&traced, "service.compute_ms") > 0.0);
}
