//! `rfsim-bench` — runs one benchmark workload in this process.
//!
//! ```text
//! rfsim-bench --workload <tx_pow2|tx_drm|ber_grid|service_grid>
//!             --seed N --seconds S --trace <0|1> [--out DIR]
//! ```
//!
//! Prints every metric as `name value unit`, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`. Writes `summary.json`,
//! the raw per-operation log `ops.jsonl` and, when traced, `trace.jsonl`
//! to `--out` (default `rfsim-bench/out/<workload>-seed<N>[-trace]`).
//! Exits 1 when an output check fails and 2 when the workload cannot run.

use rfsim_bench::{run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let out = out.unwrap_or_else(|| {
        let suffix = if trace { "-trace" } else { "" };
        PathBuf::from(format!(
            "rfsim-bench/out/{}-seed{seed}{suffix}",
            workload.name()
        ))
    });
    Ok(Config {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: rfsim-bench --workload <tx_pow2|tx_drm|ber_grid|service_grid> \
                 --seed N --seconds S --trace <0|1> [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    let written = std::fs::create_dir_all(&cfg.out)
        .and_then(|()| {
            std::fs::write(
                cfg.out.join("summary.json"),
                format!("{}\n", outcome.summary_json(&cfg)),
            )
        })
        .and_then(|()| std::fs::write(cfg.out.join("ops.jsonl"), outcome.ops_jsonl()))
        .and_then(|()| {
            if cfg.trace {
                std::fs::write(
                    cfg.out.join("trace.jsonl"),
                    rfsim_bench::trace::to_jsonl(&outcome.spans),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("error: writing {}: {e}", cfg.out.display());
        return ExitCode::from(2);
    }

    for check in outcome.checks.iter().filter(|c| !c.passed) {
        eprintln!("check failed: {}: {}", check.name, check.detail);
    }
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
