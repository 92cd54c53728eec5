//! Golden-vector regression tests: the exact transmitted waveforms of the
//! three paper-demonstrated standards, pinned sample by sample.
//!
//! Each golden file under `tests/golden/` holds the first
//! [`GOLDEN_SAMPLES`] baseband samples of a fixed-seed frame. Any change
//! to scrambling, coding, interleaving, mapping, pilots, IFFT scaling,
//! guard handling or windowing shifts these samples and fails the test —
//! which is the point: refactors must be bit-transparent.
//!
//! After an *intentional* waveform change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_vectors
//! ```

use ofdm_bench::payload_bits;
use ofdm_core::MotherModel;
use ofdm_dsp::Complex64;
use ofdm_standards::{default_params, StandardId};
use std::path::PathBuf;

/// Samples pinned per standard (preamble + a few data symbols).
const GOLDEN_SAMPLES: usize = 512;
/// Payload RNG seed — part of the golden definition; never change it
/// without regenerating every vector.
const GOLDEN_SEED: u64 = 0xC0FFEE;
/// Absolute per-component tolerance. The transmit path is pure f64
/// arithmetic with a fixed operation order, so matching runs reproduce the
/// files exactly; the slack only forgives last-ulp differences from
/// harmless expression reshuffles.
const TOLERANCE: f64 = 1e-12;

const GOLDEN: [(StandardId, &str); 3] = [
    (StandardId::Ieee80211a, "ieee80211a"),
    (StandardId::Adsl, "adsl"),
    (StandardId::Drm, "drm"),
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// The fixed-seed reference waveform prefix for one standard.
fn reference_waveform(id: StandardId) -> Vec<Complex64> {
    let p = default_params(id);
    let bits = payload_bits(2 * p.nominal_bits_per_symbol().max(100), GOLDEN_SEED);
    let mut tx = MotherModel::new(p).expect("valid preset");
    let frame = tx.transmit(&bits).expect("transmits");
    let samples = frame.signal().samples();
    samples[..samples.len().min(GOLDEN_SAMPLES)].to_vec()
}

fn render(name: &str, samples: &[Complex64]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# golden waveform: {name}, seed {GOLDEN_SEED:#x}, first {} samples (re im per line)\n",
        samples.len()
    ));
    for s in samples {
        out.push_str(&format!("{:.17e} {:.17e}\n", s.re, s.im));
    }
    out
}

fn parse(name: &str, text: &str) -> Vec<Complex64> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(i, l)| {
            let mut parts = l.split_whitespace();
            let mut field = |what: &str| -> f64 {
                parts
                    .next()
                    .unwrap_or_else(|| panic!("{name}.txt line {}: missing {what}", i + 1))
                    .parse()
                    .unwrap_or_else(|e| panic!("{name}.txt line {}: bad {what}: {e}", i + 1))
            };
            Complex64::new(field("re"), field("im"))
        })
        .collect()
}

/// Compares a waveform against its golden vector, reporting the first
/// drifted sample.
fn compare(name: &str, golden: &[Complex64], got: &[Complex64]) -> Result<(), String> {
    if golden.len() != got.len() {
        return Err(format!(
            "{name}: length drift: golden {} samples, got {}",
            golden.len(),
            got.len()
        ));
    }
    for (i, (g, s)) in golden.iter().zip(got).enumerate() {
        let d = (*g - *s).abs();
        if d.is_nan() || d > TOLERANCE {
            return Err(format!(
                "{name}: sample {i} drifted by {d:.3e}: golden {g}, got {s} \
                 (intentional change? regenerate with UPDATE_GOLDEN=1)"
            ));
        }
    }
    Ok(())
}

#[test]
fn waveforms_match_golden_vectors() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1");
    for (id, name) in GOLDEN {
        let got = reference_waveform(id);
        let path = golden_path(name);
        if update {
            std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
            std::fs::write(&path, render(name, &got)).expect("write golden");
            eprintln!("regenerated {}", path.display());
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} — generate it with UPDATE_GOLDEN=1 cargo test --test golden_vectors",
                path.display()
            )
        });
        let golden = parse(name, &text);
        assert_eq!(
            golden.len(),
            GOLDEN_SAMPLES,
            "{name}: truncated golden file"
        );
        if let Err(msg) = compare(name, &golden, &got) {
            panic!("{msg}");
        }
    }
}

/// The harness itself must be sensitive: a one-sample, one-ulp-scale
/// perturbation has to be flagged (guards against a silently widened
/// tolerance or a broken comparison loop).
#[test]
fn comparison_detects_single_sample_perturbation() {
    let golden = reference_waveform(StandardId::Ieee80211a);
    let mut perturbed = golden.clone();
    perturbed[137] += Complex64::new(10.0 * TOLERANCE, 0.0);
    let err = compare("ieee80211a", &golden, &perturbed).expect_err("must detect drift");
    assert!(err.contains("sample 137"), "unexpected message: {err}");

    let mut truncated = golden.clone();
    truncated.pop();
    assert!(compare("ieee80211a", &golden, &truncated)
        .expect_err("must detect length drift")
        .contains("length drift"));
}
