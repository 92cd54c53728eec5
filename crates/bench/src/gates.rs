//! CI gate validators for the machine-readable bench documents.
//!
//! Each emitted JSON artifact has a schema-checking twin here:
//! `BENCH_ofdm.json` (`bench-ofdm/v2`), `waterfall.json`
//! (`waterfall/v1`) and the experiment-lab report (`lab/v1`). The
//! `check_*_doc` functions validate an in-memory [`Value`]; the
//! `check_*_json` wrappers add file IO and prefix errors with the path.
//! The experiments binary delegates `--check-bench` / `--check-lab` to
//! these, and the failure paths are unit-tested below — a gate that only
//! ever sees happy-path input is not a gate.

use ofdm_standards::StandardId;
use serde::json::Value;

fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde::json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

fn finite(v: Option<f64>, what: &str) -> Result<f64, String> {
    let v = v.ok_or_else(|| format!("missing numeric {what}"))?;
    if !v.is_finite() {
        return Err(format!("{what} is not finite: {v}"));
    }
    Ok(v)
}

/// Validates a `bench-ofdm/v2` document: the C3 ratio at or above the
/// paper's floor, and the fault-sweep, SIMD and supervision sections all
/// present, well-typed and within their floors. This is the CI gate on
/// the same-process ratios.
pub fn check_bench_doc(doc: &Value) -> Result<(), String> {
    if doc.get("schema").and_then(Value::as_str) != Some("bench-ofdm/v2") {
        return Err("missing or wrong `schema` (want \"bench-ofdm/v2\")".into());
    }
    // Paper claim C3: the behavioral model is cheaper to simulate than the
    // RT-level one, so RTL/behavioral wall time must be at least 1.
    let c3 = finite(
        doc.get("behavioral_vs_rtl_ratio").and_then(Value::as_f64),
        "`behavioral_vs_rtl_ratio`",
    )?;
    if c3 < 1.0 {
        return Err(format!(
            "`behavioral_vs_rtl_ratio` {c3:.2}x below the 1x C3 floor \
             (RTL faster than behavioral)"
        ));
    }
    let fs = doc.get("fault_sweep").ok_or("missing `fault_sweep`")?;
    for field in [
        "succeeded",
        "retried",
        "faulted",
        "panics_caught",
        "errors_caught",
    ] {
        finite(
            fs.get(field).and_then(Value::as_f64),
            &format!("`fault_sweep`.`{field}`"),
        )?;
    }
    let rate = finite(
        fs.get("survival_rate").and_then(Value::as_f64),
        "`fault_sweep`.`survival_rate`",
    )?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "`fault_sweep`.`survival_rate` must be in [0, 1], got {rate}"
        ));
    }
    // The SoA payoff gate: every standard's batched kernel must at minimum
    // not regress the scalar path, the two headline standards (802.11a and
    // DVB-T) must clear 5x, and the family geomean 3x.
    let simd = doc.get("simd_speedup").ok_or("missing `simd_speedup`")?;
    let entries = simd
        .get("standards")
        .and_then(Value::as_object)
        .ok_or("`simd_speedup` missing object `standards`")?;
    if entries.len() != StandardId::ALL.len() {
        return Err(format!(
            "`simd_speedup`.`standards` has {} entries, want {}",
            entries.len(),
            StandardId::ALL.len()
        ));
    }
    for id in StandardId::ALL {
        let key = id.key();
        let s = simd
            .get("standards")
            .and_then(|e| e.get(key))
            .ok_or_else(|| format!("`simd_speedup` missing standard `{key}`"))?;
        for field in ["samples", "scalar_ns", "batched_ns"] {
            finite(
                s.get(field).and_then(Value::as_f64),
                &format!("`simd_speedup`.`{key}`.`{field}`"),
            )?;
        }
        let speedup = finite(
            s.get("speedup").and_then(Value::as_f64),
            &format!("`simd_speedup`.`{key}`.`speedup`"),
        )?;
        if speedup < 1.0 {
            return Err(format!(
                "`simd_speedup`.`{key}`: batched kernel slower than the \
                 scalar path ({speedup:.2}x, floor 1x)"
            ));
        }
        let floor = match id {
            StandardId::Ieee80211a | StandardId::DvbT => 5.0,
            _ => 1.0,
        };
        if speedup < floor {
            return Err(format!(
                "`simd_speedup`.`{key}`: {speedup:.2}x below the {floor}x floor"
            ));
        }
    }
    let geomean = finite(
        simd.get("geomean").and_then(Value::as_f64),
        "`simd_speedup`.`geomean`",
    )?;
    if geomean < 3.0 {
        return Err(format!(
            "`simd_speedup`.`geomean` {geomean:.2}x below the 3x family floor"
        ));
    }
    let sup = doc.get("supervision").ok_or("missing `supervision`")?;
    let health = sup
        .get("health")
        .and_then(Value::as_str)
        .ok_or("`supervision` missing string `health`")?;
    if !["healthy", "degraded", "failed"].contains(&health) {
        return Err(format!("`supervision`.`health` is `{health}`"));
    }
    for field in [
        "breaker_trips",
        "bypassed_invocations",
        "deadline_kills",
        "resumed",
    ] {
        let v = finite(
            sup.get(field).and_then(Value::as_f64),
            &format!("`supervision`.`{field}`"),
        )?;
        if v < 0.0 {
            return Err(format!(
                "`supervision`.`{field}` must be non-negative, got {v}"
            ));
        }
    }
    Ok(())
}

/// `--check-bench FILE`: reads and validates an emitted `BENCH_ofdm.json`.
/// When a sibling `waterfall.json` exists (the CI smoke emits one next to
/// the bench file) its curves are validated too. Returns the human
/// summary lines to print.
pub fn check_bench_json(path: &str) -> Result<Vec<String>, String> {
    let doc = read_doc(path)?;
    check_bench_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
    let mut messages = Vec::new();
    let sibling = std::path::Path::new(path).with_file_name("waterfall.json");
    if sibling.exists() {
        messages.extend(check_waterfall_json(&sibling.to_string_lossy())?);
    }
    messages.push(format!("{path}: ok (bench-ofdm/v2)"));
    Ok(messages)
}

/// Validates a `waterfall/v1` document: shape, finite values, BER within
/// `[0, 1]` and consistent with its `errors/bits` tally, and per-standard
/// curves that descend with SNR (small slack per step for counting noise,
/// none for the endpoints). Returns the number of curves checked.
pub fn check_waterfall_doc(doc: &Value) -> Result<usize, String> {
    if doc.get("schema").and_then(Value::as_str) != Some("waterfall/v1") {
        return Err("missing or wrong `schema` (want \"waterfall/v1\")".into());
    }
    let snr = doc
        .get("snr_db")
        .and_then(Value::as_array)
        .ok_or("missing array `snr_db`")?;
    if snr.is_empty() {
        return Err("`snr_db` is empty".into());
    }
    let mut prev = f64::NEG_INFINITY;
    for (i, v) in snr.iter().enumerate() {
        let db = v
            .as_f64()
            .filter(|d| d.is_finite())
            .ok_or_else(|| format!("`snr_db[{i}]` is not a finite number"))?;
        if db <= prev {
            return Err(format!("`snr_db` must increase at index {i}"));
        }
        prev = db;
    }
    let standards = doc
        .get("standards")
        .and_then(Value::as_object)
        .ok_or("missing object `standards`")?;
    if standards.is_empty() {
        return Err("`standards` is empty".into());
    }
    for (key, curve) in standards {
        let series = |field: &str| -> Result<Vec<f64>, String> {
            let arr = curve
                .get(field)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("`{key}` missing array `{field}`"))?;
            if arr.len() != snr.len() {
                return Err(format!(
                    "`{key}`.`{field}` has {} points, want {}",
                    arr.len(),
                    snr.len()
                ));
            }
            arr.iter()
                .enumerate()
                .map(|(i, v)| {
                    v.as_f64()
                        .filter(|x| x.is_finite())
                        .ok_or_else(|| format!("`{key}`.`{field}[{i}]` is not finite"))
                })
                .collect()
        };
        let ber = series("ber")?;
        let errors = series("errors")?;
        let bits = series("bits")?;
        for i in 0..snr.len() {
            if !(0.0..=1.0).contains(&ber[i]) {
                return Err(format!("`{key}`.`ber[{i}]` outside [0, 1]: {}", ber[i]));
            }
            if bits[i] <= 0.0 || errors[i] < 0.0 || errors[i] > bits[i] {
                return Err(format!(
                    "`{key}` point {i}: bad tally {}/{}",
                    errors[i], bits[i]
                ));
            }
            if (ber[i] - errors[i] / bits[i]).abs() > 1e-9 {
                return Err(format!("`{key}`.`ber[{i}]` inconsistent with errors/bits"));
            }
        }
        for (i, w) in ber.windows(2).enumerate() {
            if w[1] > w[0] + (0.05 * w[0]).max(1e-3) {
                return Err(format!(
                    "`{key}`: BER rises from {:.3e} to {:.3e} at SNR index {}",
                    w[0],
                    w[1],
                    i + 1
                ));
            }
        }
        let (first, last) = (ber[0], ber[snr.len() - 1]);
        if last >= first && first > 0.0 {
            return Err(format!(
                "`{key}`: waterfall does not descend ({first:.3e} → {last:.3e})"
            ));
        }
    }
    Ok(standards.len())
}

/// `--waterfall`'s checking twin: reads and validates a `waterfall/v1`
/// file, returning the summary lines to print.
pub fn check_waterfall_json(path: &str) -> Result<Vec<String>, String> {
    let doc = read_doc(path)?;
    let curves = check_waterfall_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(vec![format!("{path}: ok ({curves} curves)")])
}

/// Validates a `lab/v1` experiment report: schema and identity fields,
/// a non-empty cell matrix whose deterministic metrics all carry finite
/// sample values with consistent percentile stats, declarative assertion
/// results whose `pass` flags agree with the overall verdict — and a
/// `pass` verdict, because a lab report that failed its own assertions
/// must fail the gate that checks it.
pub fn check_lab_doc(doc: &Value) -> Result<(usize, usize), String> {
    if doc.get("schema").and_then(Value::as_str) != Some("lab/v1") {
        return Err("missing or wrong `schema` (want \"lab/v1\")".into());
    }
    for key in ["name", "workload"] {
        if doc
            .get(key)
            .and_then(Value::as_str)
            .is_none_or(|s| s.is_empty())
        {
            return Err(format!("missing or empty string `{key}`"));
        }
    }
    doc.get("base_seed")
        .and_then(Value::as_u64)
        .ok_or("missing integer `base_seed`")?;
    let repeats = doc
        .get("repeats")
        .and_then(Value::as_u64)
        .ok_or("missing integer `repeats`")?;
    if repeats == 0 {
        return Err("`repeats` must be at least 1".into());
    }
    let names = |key: &str| -> Result<usize, String> {
        let arr = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("missing array `{key}`"))?;
        if arr.is_empty() {
            return Err(format!("`{key}` is empty"));
        }
        for (i, v) in arr.iter().enumerate() {
            if v.as_str().is_none_or(|s| s.is_empty()) {
                return Err(format!("`{key}[{i}]` is not a non-empty string"));
            }
        }
        Ok(arr.len())
    };
    let n_scenarios = names("scenarios")?;
    let n_variants = names("variants")?;
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("missing array `cells`")?;
    if cells.len() != n_scenarios * n_variants {
        return Err(format!(
            "`cells` has {} entries, want {} ({n_scenarios} scenarios x {n_variants} variants)",
            cells.len(),
            n_scenarios * n_variants
        ));
    }
    for (i, cell) in cells.iter().enumerate() {
        for key in ["scenario", "variant"] {
            if cell.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("`cells[{i}]` missing string `{key}`"));
            }
        }
        cell.get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("`cells[{i}]` missing integer `seed`"))?;
        let metrics = cell
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("`cells[{i}]` missing object `metrics`"))?;
        for (name, metric) in metrics {
            let what = format!("`cells[{i}]` metric `{name}`");
            let values = metric
                .get("values")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{what} missing array `values`"))?;
            if values.len() != repeats as usize {
                return Err(format!(
                    "{what} has {} values, want {repeats}",
                    values.len()
                ));
            }
            for (r, v) in values.iter().enumerate() {
                finite(v.as_f64(), &format!("{what} `values[{r}]`"))?;
            }
            let stats = metric
                .get("stats")
                .ok_or_else(|| format!("{what} missing object `stats`"))?;
            let count = finite(stats.get("count").and_then(Value::as_f64), &what)?;
            if count as usize != values.len() {
                return Err(format!("{what}: stats count {count} != {}", values.len()));
            }
            for stat in ["min", "max", "mean", "p50", "p95", "p99"] {
                finite(
                    stats.get(stat).and_then(Value::as_f64),
                    &format!("{what} stat `{stat}`"),
                )?;
            }
        }
        if let Some(volatile) = cell.get("volatile") {
            let arr = volatile
                .as_array()
                .ok_or_else(|| format!("`cells[{i}]`.`volatile` is not an array"))?;
            for v in arr {
                if v.as_str().is_none() {
                    return Err(format!("`cells[{i}]`.`volatile` has a non-string entry"));
                }
            }
        }
    }
    let assertions = doc
        .get("assertions")
        .and_then(Value::as_array)
        .ok_or("missing array `assertions`")?;
    let mut all_pass = true;
    for (i, a) in assertions.iter().enumerate() {
        if a.get("check").and_then(Value::as_str).is_none() {
            return Err(format!("`assertions[{i}]` missing string `check`"));
        }
        let pass = a
            .get("pass")
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("`assertions[{i}]` missing bool `pass`"))?;
        all_pass &= pass;
    }
    let verdict = doc
        .get("verdict")
        .and_then(Value::as_str)
        .ok_or("missing string `verdict`")?;
    let want = if all_pass { "pass" } else { "fail" };
    if verdict != want {
        return Err(format!(
            "`verdict` is `{verdict}` but the assertion results say `{want}`"
        ));
    }
    if verdict != "pass" {
        return Err("report verdict is `fail`".into());
    }
    Ok((cells.len(), assertions.len()))
}

/// `--check-lab FILE`: reads and validates a `lab/v1` report file,
/// returning the summary lines to print.
pub fn check_lab_json(path: &str) -> Result<Vec<String>, String> {
    let doc = read_doc(path)?;
    let (cells, assertions) = check_lab_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(vec![format!(
        "{path}: ok ({cells} cells, {assertions} assertions)"
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(members: Vec<(&str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn simd_entry(speedup: f64) -> Value {
        obj(vec![
            ("samples", Value::from(4096.0)),
            ("scalar_ns", Value::from(1.0e6)),
            ("batched_ns", Value::from(1.0e6 / speedup)),
            ("speedup", Value::from(speedup)),
        ])
    }

    /// A minimal document that passes `check_bench_doc`: a C3 ratio in
    /// the measured 4–5x band plus every required section. Tests mutate
    /// one field at a time and assert the validator names it.
    fn valid_bench_doc() -> Value {
        obj(vec![
            ("schema", Value::from("bench-ofdm/v2")),
            ("behavioral_vs_rtl_ratio", Value::from(4.6)),
            (
                "fault_sweep",
                obj(vec![
                    ("succeeded", Value::from(32.0)),
                    ("retried", Value::from(16.0)),
                    ("faulted", Value::from(16.0)),
                    ("panics_caught", Value::from(16.0)),
                    ("errors_caught", Value::from(32.0)),
                    ("survival_rate", Value::from(0.75)),
                ]),
            ),
            (
                "supervision",
                obj(vec![
                    ("health", Value::from("degraded")),
                    ("breaker_trips", Value::from(1.0)),
                    ("bypassed_invocations", Value::from(7.0)),
                    ("deadline_kills", Value::from(1.0)),
                    ("resumed", Value::from(3.0)),
                ]),
            ),
            (
                "simd_speedup",
                obj(vec![
                    (
                        "standards",
                        Value::Object(
                            StandardId::ALL
                                .iter()
                                .map(|id| (id.key().to_string(), simd_entry(6.0)))
                                .collect(),
                        ),
                    ),
                    ("geomean", Value::from(6.0)),
                ]),
            ),
        ])
    }

    /// The valid document with top-level member `key` removed.
    fn without(key: &str) -> Value {
        let Value::Object(members) = valid_bench_doc() else {
            unreachable!("the fixture is an object")
        };
        Value::Object(members.into_iter().filter(|(k, _)| k != key).collect())
    }

    /// Replaces `doc.<path>` (dot-separated member path) with `v`.
    fn set(doc: &mut Value, path: &str, v: Value) {
        let mut cur = doc;
        let mut parts = path.split('.').peekable();
        while let Some(key) = parts.next() {
            let Value::Object(members) = cur else {
                panic!("set: `{key}` parent is not an object")
            };
            if parts.peek().is_none() {
                match members.iter_mut().find(|(k, _)| k == key) {
                    Some(slot) => slot.1 = v,
                    None => members.push((key.into(), v)),
                }
                return;
            }
            cur = members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, child)| child)
                .expect("set: missing intermediate member");
        }
    }

    #[test]
    fn bench_doc_happy_path_passes() {
        assert_eq!(check_bench_doc(&valid_bench_doc()), Ok(()));
    }

    #[test]
    fn bench_doc_rejects_missing_schema_and_keys() {
        let mut doc = valid_bench_doc();
        set(&mut doc, "schema", Value::from("bench-ofdm/v1"));
        let err = check_bench_doc(&doc).expect_err("wrong schema");
        assert!(err.contains("schema"), "{err}");

        // v2 has no optional sections: each missing one is named.
        for key in [
            "behavioral_vs_rtl_ratio",
            "fault_sweep",
            "simd_speedup",
            "supervision",
        ] {
            let err = check_bench_doc(&without(key)).expect_err(key);
            assert!(err.contains(key), "{key}: {err}");
        }

        // A standard missing from the SIMD table is named.
        let mut doc = valid_bench_doc();
        set(&mut doc, "simd_speedup.standards.dab.speedup", Value::Null);
        let err = check_bench_doc(&doc).expect_err("missing speedup");
        assert!(err.contains("dab") && err.contains("speedup"), "{err}");
    }

    #[test]
    fn bench_doc_rejects_non_finite_values() {
        // The shim parses `null` where a non-finite f64 was serialized;
        // `Value::from(f64::NAN)` models a hand-built in-memory document.
        let mut doc = valid_bench_doc();
        set(
            &mut doc,
            "simd_speedup.standards.adsl.scalar_ns",
            Value::from(f64::NAN),
        );
        let err = check_bench_doc(&doc).expect_err("NaN scalar_ns");
        assert!(err.contains("adsl"), "{err}");

        let mut doc = valid_bench_doc();
        set(
            &mut doc,
            "behavioral_vs_rtl_ratio",
            Value::from(f64::INFINITY),
        );
        let err = check_bench_doc(&doc).expect_err("inf C3 ratio");
        assert!(err.contains("not finite"), "{err}");
    }

    #[test]
    fn bench_doc_rejects_out_of_range_ratios() {
        let mut doc = valid_bench_doc();
        set(&mut doc, "fault_sweep.survival_rate", Value::from(1.5));
        let err = check_bench_doc(&doc).expect_err("survival_rate out of range");
        assert!(err.contains("survival_rate"), "{err}");

        // C3: RTL exactly as fast as behavioral is the floor itself; RTL
        // 50x faster than behavioral contradicts the claim.
        let mut doc = valid_bench_doc();
        set(&mut doc, "behavioral_vs_rtl_ratio", Value::from(1.0));
        assert_eq!(check_bench_doc(&doc), Ok(()));
        set(&mut doc, "behavioral_vs_rtl_ratio", Value::from(0.02));
        let err = check_bench_doc(&doc).expect_err("C3 floor");
        assert!(err.contains("C3 floor"), "{err}");
    }

    #[test]
    fn bench_doc_gates_simd_floors() {
        // DVB-T below its 5x headline floor trips the gate even though it
        // clears the family-wide 1x floor.
        let mut doc = valid_bench_doc();
        set(&mut doc, "simd_speedup.standards.dvb-t", simd_entry(2.0));
        let err = check_bench_doc(&doc).expect_err("headline floor");
        assert!(err.contains("5x floor"), "{err}");
    }

    #[test]
    fn waterfall_doc_rejects_rising_curve() {
        let doc = obj(vec![
            ("schema", Value::from("waterfall/v1")),
            (
                "snr_db",
                Value::Array(vec![Value::from(0.0), Value::from(6.0)]),
            ),
            (
                "standards",
                obj(vec![(
                    "dab",
                    obj(vec![
                        (
                            "ber",
                            Value::Array(vec![Value::from(0.1), Value::from(0.2)]),
                        ),
                        (
                            "errors",
                            Value::Array(vec![Value::from(100.0), Value::from(200.0)]),
                        ),
                        (
                            "bits",
                            Value::Array(vec![Value::from(1000.0), Value::from(1000.0)]),
                        ),
                    ]),
                )]),
            ),
        ]);
        let err = check_waterfall_doc(&doc).expect_err("rising BER");
        assert!(err.contains("rises"), "{err}");
    }
}
