//! Rayleigh waterfall regression: the exact `waterfall/v1` document of a
//! small fixed-seed grid through the quasi-static fading channel, the
//! perfect-CSI equalizer and the Viterbi decoder, pinned byte for byte.
//!
//! The tracked root `waterfall.json` only covers AWGN, so this file is
//! what catches a changed fading realization, channel estimate or decoded
//! bit under Rayleigh. After an *intentional* change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test waterfall_golden
//! ```

use ofdm_bench::waterfall::{run_waterfall, waterfall_json, ChannelProfile, WaterfallSpec};
use ofdm_standards::StandardId;
use std::path::PathBuf;

/// Five K=7 convolutional standards on the `ber_grid` power-delay
/// profile: rate 1/2 (DAB), punctured rates 3/4 (802.11a, HomePlug) and
/// 2/3 (802.16a), and two behind Reed–Solomon (DVB-T, 802.16a).
fn spec() -> WaterfallSpec {
    WaterfallSpec {
        standards: vec![
            StandardId::Ieee80211a,
            StandardId::Dab,
            StandardId::HomePlug10,
            StandardId::DvbT,
            StandardId::Ieee80216a,
        ],
        snr_db: vec![5.0, 15.0, 25.0],
        realizations: 2,
        payload_bits: 2048,
        base_seed: 0xFAD_601D,
        profile: ChannelProfile::Rayleigh {
            paths: vec![(0, 0.6), (3, 0.3), (7, 0.1)],
        },
        threads: 2,
    }
}

#[test]
fn rayleigh_waterfall_matches_golden_document() {
    let spec = spec();
    let report = run_waterfall(&spec, None).expect("grid runs");
    let got = format!("{}\n", waterfall_json(&spec, &report));
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/waterfall_rayleigh.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} — generate it with UPDATE_GOLDEN=1 cargo test --test waterfall_golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "Rayleigh waterfall drifted from tests/golden/waterfall_rayleigh.json \
         (intentional change? regenerate with UPDATE_GOLDEN=1)"
    );
}
