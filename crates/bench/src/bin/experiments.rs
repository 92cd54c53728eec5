//! The experiment harness: runs every EXPERIMENTS.md table from a
//! declarative spec under `examples/lab/`.
//!
//! Run all experiments (release build strongly recommended):
//!
//! ```text
//! cargo run -p ofdm-bench --release --bin experiments
//! ```
//!
//! or a subset by short name: `… --bin experiments -- e1 e3 e6` (a short
//! name can map to several specs — `e11` runs both the AWGN and the
//! Rayleigh grid). Arbitrary spec files run with `--spec FILE`; the spec
//! directory itself moves with `--lab-dir DIR` (default: `examples/lab`
//! next to the workspace). `--list` prints the name → spec table.
//!
//! Lab outputs: `--lab-out FILE` writes the byte-stable `lab/v1` JSON of
//! the (single) run, `--lab-checkpoint FILE` resumes interrupted runs,
//! and `--check-lab FILE` validates an emitted document plus its verdict
//! (the CI gate).
//!
//! Machine-readable same-process ratios (the C3 claim and the SoA kernel
//! speedups) plus the fault and supervision snapshots; per-standard
//! timings are `rfsim-bench`'s job:
//!
//! ```text
//! … --bin experiments -- --emit-bench BENCH_ofdm.json
//! … --bin experiments -- --check-bench BENCH_ofdm.json
//! ```
//!
//! Fault-injection smoke sweep (E9 alone): `… --bin experiments -- --faults`.
//!
//! Supervised-runtime smoke sweep (E10 alone): `… --bin experiments -- --supervise`.
//!
//! BER-vs-SNR waterfall smoke (fixed seed, machine-readable output):
//!
//! ```text
//! … --bin experiments -- --waterfall waterfall.json
//! ```

use ofdm_bench::lab::workloads::{e10_scenario_power, run_fault_sweep};
use ofdm_bench::lab::{report, ExperimentSpec, LabOptions};
use ofdm_bench::waterfall::{run_waterfall, waterfall_json, ChannelProfile, WaterfallSpec};
use ofdm_bench::{gates, payload_bits, time_per_run};
use ofdm_core::MotherModel;
use ofdm_rtl::Tx80211aRtl;
use ofdm_standards::ieee80211a::{self, WlanRate};
use ofdm_standards::{default_params, StandardId};
use rfsim::prelude::*;
use serde::json::Value;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Short experiment name → spec files under the lab directory. One name
/// can fan out to several specs (the legacy experiment had several
/// independent parts).
const EXPERIMENTS: [(&str, &[&str]); 13] = [
    ("e1", &["e1.json"]),
    ("e2", &["e2.json"]),
    ("e3", &["e3.json"]),
    ("e4", &["e4.json"]),
    ("e5", &["e5.json"]),
    ("e6", &["e6_pa.json", "e6_lo.json"]),
    ("e7", &["e7.json"]),
    ("e8", &["e8.json"]),
    ("e9", &["e9_faults.json", "e9_dropper.json"]),
    (
        "e10",
        &[
            "e10_watchdog.json",
            "e10_breaker.json",
            "e10_checkpoint.json",
        ],
    ),
    ("e11", &["e11_awgn.json", "e11_rayleigh.json"]),
    ("e12", &["e12.json"]),
    ("e13", &["e13.json"]),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "experiments: {}; flags: --spec FILE, --lab-dir DIR, --lab-out FILE, \
         --lab-checkpoint FILE, --check-lab FILE, --list, --emit-bench FILE, \
         --check-bench FILE, --waterfall FILE, --faults, --supervise",
        names.join(", ")
    )
}

/// Locates the spec directory: an explicit `--lab-dir`, else
/// `examples/lab` under the current directory, else the copy that ships
/// next to this crate's workspace (so `cargo run` works from anywhere
/// inside the repo).
fn lab_dir(explicit: Option<&str>) -> PathBuf {
    if let Some(dir) = explicit {
        return PathBuf::from(dir);
    }
    let cwd = PathBuf::from("examples/lab");
    if cwd.is_dir() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lab")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut emit_bench: Option<String> = None;
    let mut check_bench: Option<String> = None;
    let mut check_lab: Option<String> = None;
    let mut waterfall_out: Option<String> = None;
    let mut lab_out: Option<String> = None;
    let mut lab_ckpt: Option<String> = None;
    let mut lab_dir_arg: Option<String> = None;
    let mut list = false;
    let mut names: Vec<String> = Vec::new();
    let mut spec_files: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--emit-bench" => {
                emit_bench = Some(it.next().ok_or("--emit-bench needs a file path")?);
            }
            "--check-bench" => {
                check_bench = Some(it.next().ok_or("--check-bench needs a file path")?);
            }
            "--check-lab" => {
                check_lab = Some(it.next().ok_or("--check-lab needs a file path")?);
            }
            "--waterfall" => {
                waterfall_out = Some(it.next().ok_or("--waterfall needs a file path")?);
            }
            "--spec" => {
                spec_files.push(PathBuf::from(it.next().ok_or("--spec needs a file path")?));
            }
            "--lab-dir" => {
                lab_dir_arg = Some(it.next().ok_or("--lab-dir needs a directory")?);
            }
            "--lab-out" => {
                lab_out = Some(it.next().ok_or("--lab-out needs a file path")?);
            }
            "--lab-checkpoint" => {
                lab_ckpt = Some(it.next().ok_or("--lab-checkpoint needs a file path")?);
            }
            "--list" => list = true,
            // The fault smoke sweep is experiment E9 under a flag name.
            "--faults" => names.push("e9".into()),
            // The supervised-runtime smoke sweep is E10 under a flag name.
            "--supervise" => names.push("e10".into()),
            name if EXPERIMENTS.iter().any(|(n, _)| *n == name) => names.push(arg),
            bad => {
                eprintln!("error: unknown argument `{bad}`; {}", usage());
                std::process::exit(2);
            }
        }
    }
    let dir = lab_dir(lab_dir_arg.as_deref());
    if list {
        for (name, specs) in EXPERIMENTS {
            let paths: Vec<String> = specs
                .iter()
                .map(|s| dir.join(s).display().to_string())
                .collect();
            println!("{name}: {}", paths.join(", "));
        }
        return Ok(());
    }
    if let Some(path) = &emit_bench {
        emit_bench_json(path)?;
    }
    if let Some(path) = &waterfall_out {
        emit_waterfall_json(path)?;
    }
    if let Some(path) = &check_bench {
        for line in gates::check_bench_json(path)? {
            println!("{line}");
        }
    }
    if let Some(path) = &check_lab {
        for line in gates::check_lab_json(path)? {
            println!("{line}");
        }
    }
    let had_side_job = emit_bench.is_some()
        || check_bench.is_some()
        || check_lab.is_some()
        || waterfall_out.is_some();

    // Resolve short names against the lab directory; `--spec` paths ride
    // along as-is. No selection at all means the full E1–E13 suite —
    // unless a side job above was the whole request.
    for name in &names {
        let specs = EXPERIMENTS
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .ok_or("unreachable: name was validated")?;
        spec_files.extend(specs.iter().map(|s| dir.join(s)));
    }
    if spec_files.is_empty() && !had_side_job {
        for (_, specs) in EXPERIMENTS {
            spec_files.extend(specs.iter().map(|s| dir.join(s)));
        }
    }
    if spec_files.is_empty() {
        return Ok(());
    }
    if lab_out.is_some() && spec_files.len() > 1 {
        eprintln!(
            "error: --lab-out needs exactly one spec (got {})",
            spec_files.len()
        );
        std::process::exit(2);
    }

    let options = LabOptions {
        threads: None,
        checkpoint: lab_ckpt.as_ref().map(PathBuf::from),
    };
    let mut failed = false;
    for path in &spec_files {
        let spec = ExperimentSpec::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = ofdm_bench::lab::run_spec(&spec, &options)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}", report::render(&run));
        if let Some(out) = &lab_out {
            std::fs::write(out, format!("{}\n", report::lab_json(&run)))?;
            println!("wrote {out}");
        }
        if !run.verdict {
            failed = true;
        }
    }
    if failed {
        return Err("at least one lab assertion failed".into());
    }
    Ok(())
}

/// The fixed-seed waterfall smoke grid behind `--waterfall`: two
/// standards × four SNR points, small enough for CI, deterministic
/// enough that the emitted `waterfall.json` is byte-stable across runs
/// and machines (BER tallies carry no timing).
fn waterfall_smoke_spec() -> WaterfallSpec {
    WaterfallSpec {
        standards: vec![StandardId::Ieee80211a, StandardId::Dab],
        snr_db: vec![0.0, 6.0, 12.0, 18.0],
        realizations: 3,
        payload_bits: 2000,
        base_seed: 0xE11,
        profile: ChannelProfile::Awgn,
        threads: 0,
    }
}

/// `--waterfall FILE` — runs the fixed-seed smoke grid through the
/// checkpointed sweep path and writes the `waterfall/v1` document.
fn emit_waterfall_json(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let spec = waterfall_smoke_spec();
    let ckpt = std::path::Path::new(path).with_extension("ckpt.json");
    let report = run_waterfall(&spec, Some(&ckpt))?;
    let doc = waterfall_json(&spec, &report);
    std::fs::write(path, format!("{doc}\n"))?;
    println!(
        "wrote {path}: {} standards x {} SNR points x {} realizations ({} resumed)",
        spec.standards.len(),
        spec.snr_db.len(),
        spec.realizations,
        report.resumed,
    );
    Ok(())
}

fn finite_ratio(num: f64, den: f64) -> f64 {
    (num.max(1e-12) / den.max(1e-12)).clamp(1e-9, 1e9)
}

/// The structure-of-arrays payoff gate riding along in the trajectory
/// file: per standard, the batched split-component Rapp kernel (at 8 dB
/// input backoff) timed against the retained per-sample polar path on
/// that standard's own waveform, tiled to a fixed working-set size.
/// `--check-bench` holds the speedups to the DESIGN §3.5 floors.
fn simd_speedup_snapshot() -> Result<Value, Box<dyn std::error::Error>> {
    use ofdm_dsp::Complex64;
    /// Working-set floor per standard — every measurement runs on at least
    /// this many samples so short-frame standards (802.11a) are not timed
    /// on cache-warm toy buffers while DVB-T runs a full 8k frame.
    const MIN_SAMPLES: usize = 1 << 15;
    const REPS: usize = 8;
    let pa = RappPa::new(1.0, 3.0).with_input_backoff_db(8.0);
    let mut entries: Vec<(String, Value)> = Vec::new();
    let mut log_sum = 0.0;
    for id in StandardId::ALL {
        let p = default_params(id);
        let bits = 2 * p.nominal_bits_per_symbol().max(100);
        let mut tx = MotherModel::new(p)?;
        let frame = tx.transmit(&payload_bits(bits, 5))?;
        let (frame_re, frame_im) = frame.signal().parts();
        let mut re: Vec<f64> = Vec::with_capacity(MIN_SAMPLES + frame_re.len());
        let mut im: Vec<f64> = Vec::with_capacity(MIN_SAMPLES + frame_im.len());
        while re.len() < MIN_SAMPLES {
            re.extend_from_slice(frame_re);
            im.extend_from_slice(frame_im);
        }
        let n = re.len();
        let samples: Vec<Complex64> = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();

        // Both variants read one n-sample buffer and write one n-sample
        // result per run, so the comparison is pure compute.
        let mut scalar_out = samples.clone();
        let t_scalar = time_per_run(
            || {
                for (dst, &z) in scalar_out.iter_mut().zip(&samples) {
                    *dst = pa.distort_reference(z);
                }
                std::hint::black_box(&scalar_out);
            },
            REPS,
        );
        let mut batch_re = re.clone();
        let mut batch_im = im.clone();
        let t_batched = time_per_run(
            || {
                batch_re.copy_from_slice(&re);
                batch_im.copy_from_slice(&im);
                pa.apply_split(&mut batch_re, &mut batch_im);
                std::hint::black_box((&batch_re, &batch_im));
            },
            REPS,
        );
        let speedup = finite_ratio(t_scalar, t_batched);
        log_sum += speedup.ln();
        entries.push((
            id.key().to_string(),
            Value::Object(vec![
                ("samples".into(), n.into()),
                ("scalar_ns".into(), (t_scalar * 1e9).into()),
                ("batched_ns".into(), (t_batched * 1e9).into()),
                ("speedup".into(), speedup.into()),
            ]),
        ));
    }
    let geomean = (log_sum / StandardId::ALL.len() as f64).exp();
    Ok(Value::Object(vec![
        ("min_samples".into(), MIN_SAMPLES.into()),
        ("standards".into(), Value::Object(entries)),
        ("geomean".into(), geomean.into()),
    ]))
}

/// 802.11a data symbols in the payload both C3 transmitters run.
const C3_SYMBOLS: usize = 4;

/// `--emit-bench FILE` — writes the `bench-ofdm/v2` `BENCH_ofdm.json`:
/// the same-process behavioral-vs-RTL ratio (the paper's C3 claim) and
/// SoA kernel speedups, plus the deterministic fault-sweep and
/// supervision snapshots. Per-standard timings are `rfsim-bench`'s job.
fn emit_bench_json(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    // Behavioral vs RTL transmitter wall time (802.11a, as in E3).
    let rate = WlanRate::Mbps12;
    let payload = payload_bits(C3_SYMBOLS * rate.n_cbps() / 2 - 6, 3);
    let mut beh = MotherModel::new(ieee80211a::params(rate))?;
    let t_beh = time_per_run(
        || {
            beh.transmit(&payload).expect("transmits");
        },
        3,
    );
    let rtl = Tx80211aRtl::new(rate);
    let t_rtl = time_per_run(
        || {
            rtl.transmit(&payload);
        },
        3,
    );
    let c3_ratio = finite_ratio(t_rtl, t_beh);

    // Fault-injection sweep outcome counts (the graceful-degradation gate
    // rides along in the trajectory file).
    let (_, fault_sweep) = run_fault_sweep();
    let faults = fault_sweep.faults.expect("resilient sweep reports faults");

    let doc = Value::Object(vec![
        ("schema".into(), "bench-ofdm/v2".into()),
        ("behavioral_vs_rtl_ratio".into(), c3_ratio.into()),
        ("fault_sweep".into(), faults.to_json_value()),
        ("supervision".into(), supervision_snapshot()?),
        ("simd_speedup".into(), simd_speedup_snapshot()?),
    ]);
    let simd_geomean = doc
        .get("simd_speedup")
        .and_then(|s| s.get("geomean"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    std::fs::write(path, format!("{doc}\n"))?;
    println!(
        "wrote {path}: RTL/behavioral {c3_ratio:.1}x, fault survival {:.0}%, \
         SoA kernel geomean {simd_geomean:.1}x",
        faults.survival_rate() * 100.0,
    );
    Ok(())
}

/// The supervised-runtime gate riding along in the trajectory file: a
/// breaker-degraded streaming run (health, trips, bypasses), a tiny
/// watchdogged sweep with one hung scenario (deadline kills), and a
/// two-pass checkpointed sweep (resumed count).
fn supervision_snapshot() -> Result<Value, Box<dyn std::error::Error>> {
    // Breaker: an always-failing impairment trips on the first chunk and
    // the rest of the pass bypasses it.
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e6, 20.0e6, 2048));
    let bad = g.add(
        FaultPlan::new()
            .with_error_rate(1.0)
            .wrap(0xB5, NanInjector::new(1.0, 5)),
    );
    let pa = g.add(SoftClipPa::new(1.0));
    g.chain(&[src, bad, pa])?;
    let plan = ExecPlan::streaming(256)
        .with_telemetry(true)
        .with_breaker_policy(Some(BreakerPolicy::new().with_threshold(1)));
    let run = g.execute(&plan)?.ok_or("telemetry was requested")?;

    // Watchdog: one of four scenarios hangs and is killed at its budget.
    let supervisor = SweepSupervisor::new()
        .with_scenario_budget(Duration::from_millis(150))
        .with_poll_interval(Duration::from_millis(2));
    let (_, sweep) = SweepPlan::new(4)
        .threads(2)
        .with_supervisor(supervisor)
        .run(|i, _attempt, ctx| -> Result<f64, SimError> {
            if i == 3 {
                let mut g = Graph::new();
                let src = g.add(StalledSource::new(20.0e6, Duration::from_millis(2)));
                let pa = g.add(SoftClipPa::new(1.0));
                g.chain(&[src, pa])?;
                g.execute(&ctx.supervise(ExecPlan::streaming(64)))?;
            }
            e10_scenario_power(0xBE, i)
        });
    let watchdog = sweep
        .supervision
        .expect("supervised sweep reports supervision");

    // Checkpoint: persist half a sweep, then resume and merge.
    const COUNT: usize = 6;
    let path = std::env::temp_dir().join(format!("rfsim-bench-ckpt-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut ckpt = SweepCheckpoint::load_or_new(&path, "bench", COUNT);
    let plan = SweepPlan::new(COUNT).threads(2);
    let _ = plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| {
        if i >= COUNT / 2 {
            return Err(SimError::BlockFailure {
                block: "bench".into(),
                message: "interrupted".into(),
            });
        }
        e10_scenario_power(0xCB, i)
    });
    drop(ckpt);
    let mut ckpt = SweepCheckpoint::load_or_new(&path, "bench", COUNT);
    let (_, resumed_sweep) =
        plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| e10_scenario_power(0xCB, i));
    let resumed = resumed_sweep
        .supervision
        .expect("checkpointed sweep reports supervision")
        .resumed;
    ckpt.discard()?;

    Ok(Value::Object(vec![
        ("health".into(), run.health.as_str().into()),
        ("breaker_trips".into(), run.breaker_trips.into()),
        (
            "bypassed_invocations".into(),
            run.bypassed_invocations.into(),
        ),
        ("deadline_kills".into(), watchdog.deadline_kills.into()),
        ("resumed".into(), resumed.into()),
    ]))
}
