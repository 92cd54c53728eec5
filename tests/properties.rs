//! Property-based tests over the cross-crate invariants that make the
//! Mother Model trustworthy as an executable specification.

use ofdm_bench::payload_bits;
use ofdm_core::constellation::Modulation;
use ofdm_core::fec::{ConvCode, ConvSpec, ReedSolomon};
use ofdm_core::interleave::{Interleaver, InterleaverSpec};
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::scramble::{Scrambler, ScramblerSpec};
use ofdm_core::source::OfdmSource;
use ofdm_core::symbol::GuardInterval;
use ofdm_core::{MotherModel, StreamState};
use ofdm_dsp::fft::{dft_naive, Fft, FftScratch};
use ofdm_dsp::Complex64;
use ofdm_rx::fec::ViterbiDecoder;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::{default_params, StandardId};
use proptest::collection::vec;
use proptest::prelude::*;
use rfsim::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FFT forward matches the O(N²) DFT oracle for arbitrary lengths,
    /// including the odd-radix levels.
    #[test]
    fn fft_matches_naive_dft(
        n in 2usize..96,
        seed in 0u64..1000,
    ) {
        let input: Vec<Complex64> = (0..n)
            .map(|i| {
                let x = ((i as u64 + 1) * (seed + 3)) as f64;
                Complex64::new((x * 0.013).sin(), (x * 0.007).cos())
            })
            .collect();
        let (mut re, mut im): (Vec<f64>, Vec<f64>) = input.iter().map(|z| (z.re, z.im)).unzip();
        Fft::new(n).forward_split_in(&mut re, &mut im, &mut FftScratch::new());
        let got: Vec<Complex64> = re.iter().zip(&im).map(|(&r, &i)| Complex64::new(r, i)).collect();
        let expect = dft_naive(&input);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((*g - *e).abs() < 1e-7, "n={n}");
        }
    }

    /// inverse(forward(x)) == x for any length.
    #[test]
    fn fft_roundtrips(n in 2usize..200, seed in 0u64..1000) {
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(((i as u64 * 37 + seed) % 1009) as f64 * 0.1))
            .collect();
        let fft = Fft::new(n);
        let (mut re, mut im): (Vec<f64>, Vec<f64>) = input.iter().map(|z| (z.re, z.im)).unzip();
        let mut scratch = FftScratch::new();
        fft.forward_split_in(&mut re, &mut im, &mut scratch);
        fft.inverse_split_in(&mut re, &mut im, &mut scratch);
        for ((&r, &i), b) in re.iter().zip(&im).zip(&input) {
            prop_assert!((Complex64::new(r, i) - *b).abs() < 1e-9);
        }
    }

    /// Constellation map/demap round-trips for every modulation and any
    /// bit pattern.
    #[test]
    fn constellation_roundtrips(bits_per_symbol in 1u8..=15, pattern in any::<u32>()) {
        let m = Modulation::from_bits(bits_per_symbol);
        let b = m.bits_per_symbol();
        let bits: Vec<u8> = (0..b).rev()
            .map(|k| ((pattern >> (k % 32)) & 1) as u8)
            .collect();
        let z = m.map(&bits);
        prop_assert!(z.abs() < 2.0, "unit-energy constellations stay bounded");
        prop_assert_eq!(m.demap_hard(z), bits.clone());
        // The appending form writes the same bits after whatever the
        // buffer already holds.
        let mut out = vec![7u8];
        m.demap_hard_into(z, &mut out);
        prop_assert_eq!(out[0], 7u8);
        prop_assert_eq!(&out[1..], &bits[..]);
    }

    /// Scrambling twice is the identity for arbitrary payloads.
    #[test]
    fn scrambler_is_involution(bits in vec(0u8..=1, 1..300)) {
        let mut a = Scrambler::new(ScramblerSpec::drm());
        let mut b = Scrambler::new(ScramblerSpec::drm());
        prop_assert_eq!(b.scramble(&a.scramble(&bits)), bits);
    }

    /// Interleavers are true permutations: deinterleave ∘ interleave = id.
    #[test]
    fn interleaver_inverts(rows in 1usize..24, cols in 1usize..24, seed in any::<u64>()) {
        let spec = InterleaverSpec::BlockRowCol { rows, cols };
        let il = Interleaver::new(spec).expect("nonzero dims");
        let n = rows * cols;
        let bits: Vec<u8> = (0..n * 2).map(|i| ((seed >> (i % 60)) & 1) as u8).collect();
        prop_assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    /// Viterbi inverts the convolutional encoder on clean channels for
    /// every standard rate.
    #[test]
    fn viterbi_inverts_clean_encoder(
        msg in vec(0u8..=1, 1..150),
        rate_idx in 0usize..4,
    ) {
        let spec = [
            ConvSpec::k7_rate_half(),
            ConvSpec::k7_rate_two_thirds(),
            ConvSpec::k7_rate_three_quarters(),
            ConvSpec::k7_rate_five_sixths(),
        ][rate_idx].clone();
        let mut enc = ConvCode::new(spec.clone()).expect("valid");
        let coded = enc.encode_terminated(&msg);
        let decoded = ViterbiDecoder::new(spec).decode_terminated(&coded, msg.len());
        prop_assert_eq!(decoded, msg);
    }

    /// Reed–Solomon corrects any ≤t random symbol corruptions.
    #[test]
    fn rs_corrects_up_to_t(
        positions in vec(0usize..60, 0..4),
        magnitudes in vec(1u8..=255, 4),
    ) {
        let rs = ReedSolomon::new(60, 52); // t = 4
        let msg: Vec<u8> = (0..52).map(|i| (i * 41) as u8).collect();
        let mut code = rs.encode(&msg);
        let mut unique = positions.clone();
        unique.sort_unstable();
        unique.dedup();
        for (i, &p) in unique.iter().enumerate() {
            code[p] ^= magnitudes[i % magnitudes.len()];
        }
        prop_assert_eq!(rs.decode(&code).expect("≤ t errors"), msg);
    }

    /// The full OFDM loopback is bit-exact for arbitrary payload sizes on
    /// a generated (valid) configuration.
    #[test]
    fn ofdm_loopback_bit_exact(
        payload_len in 1usize..400,
        fft_exp in 5u32..9,
        guard_div in 2u32..5,
        bits_per_sym in 1u8..7,
    ) {
        let fft = 1usize << fft_exp;
        let half = (fft / 2) as i32;
        let lo = -(half - 2).min(20);
        let hi = (half - 2).min(20);
        let params = OfdmParams::builder("prop")
            .sample_rate(1e6)
            .map(SubcarrierMap::contiguous(fft, lo, hi, false).expect("valid"))
            .guard(GuardInterval::Fraction(1, 1 << guard_div))
            .modulation(Modulation::from_bits(bits_per_sym))
            .build()
            .expect("valid");
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 2) as u8).collect();
        let mut tx = MotherModel::new(params.clone()).expect("valid");
        let frame = tx.transmit(&payload).expect("tx");
        let mut rx = ReferenceReceiver::new(params).expect("valid");
        let got = rx.receive(frame.signal(), payload.len()).expect("rx");
        prop_assert_eq!(got, payload);
    }

    /// Transmit power is invariant under reconfiguration: with a
    /// constant-modulus constellation, *any* FFT size / carrier count
    /// yields exactly unit symbol power (Parseval + the modulator's
    /// occupied-bin normalization). For multi-ring QAM the same holds in
    /// expectation only, so the exact property is stated for QPSK.
    #[test]
    fn power_invariant_under_configuration(
        fft_exp in 5u32..10,
        used_frac in 2u32..6,
        seed in 0u64..500,
    ) {
        let fft = 1usize << fft_exp;
        let half = (fft / 2) as i32;
        let hi = (half / used_frac as i32).max(2);
        let params = OfdmParams::builder("prop-power")
            .sample_rate(1e6)
            .map(SubcarrierMap::contiguous(fft, -hi, hi, false).expect("valid"))
            .guard(GuardInterval::Samples(0))
            .modulation(Modulation::Qpsk)
            .build()
            .expect("valid");
        let n_bits = params.nominal_bits_per_symbol();
        let payload: Vec<u8> = (0..n_bits).map(|i| (((i as u64 * 23 + seed) >> 3) & 1) as u8).collect();
        let mut tx = MotherModel::new(params).expect("valid");
        let frame = tx.transmit(&payload).expect("tx");
        let p = frame.signal().power();
        prop_assert!((p - 1.0).abs() < 1e-9, "power {p}");
    }
}

/// Builds one of the new channel impairment blocks by kind index, so a
/// single proptest input sweeps the whole suite: frequency-selective
/// Rayleigh and Rician fading, carrier frequency offset, phase noise.
fn impairment(kind: usize, sample_rate: f64, seed: u64) -> Box<dyn Block> {
    match kind {
        0 => Box::new(FadingChannel::rayleigh(
            vec![(0, 0.6), (3, 0.3), (7, 0.1)],
            40.0,
            seed,
        )),
        1 => Box::new(FadingChannel::rician(
            vec![(0, 0.7), (2, 0.3)],
            4.0,
            25.0,
            seed,
        )),
        2 => Box::new(CfoChannel::new(sample_rate * 1.7e-4).with_phase(0.3)),
        _ => Box::new(PhaseNoiseChannel::new(sample_rate * 1e-6, seed)),
    }
}

/// Runs `block` over `signal` in `chunk_len`-sized chunks through the
/// streaming API and concatenates the output.
fn run_chunked(block: &mut dyn Block, signal: &Signal, chunk_len: usize) -> Signal {
    block.begin_stream();
    let mut out = Signal::empty(signal.sample_rate());
    let mut chunk_out = Signal::default();
    let mut pos = 0;
    while pos < signal.len() {
        let take = chunk_len.min(signal.len() - pos);
        let chunk = Signal::new(
            signal.samples()[pos..pos + take].to_vec(),
            signal.sample_rate(),
        );
        block
            .process_chunk(&[&chunk], &mut chunk_out)
            .expect("chunk");
        out.extend_from(&chunk_out);
        pos += take;
    }
    block.end_stream().expect("end of stream");
    out
}

// Registry-wide properties over all ten real standards. These presets are
// much heavier than the generated minimal configs above (8k-FFT DMT,
// concatenated RS+CC coding), so the case count stays low — coverage comes
// from the standard index being part of the generated input.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chunk invariance: for every registry standard, the chunked
    /// streaming emitter reproduces batch `transmit` bit for bit,
    /// regardless of chunk size.
    #[test]
    fn streaming_equals_batch_for_all_standards(
        std_idx in 0usize..10,
        chunk_exp in 0u32..12,
        seed in 0u64..1000,
    ) {
        let id = StandardId::ALL[std_idx];
        let p = default_params(id);
        let payload = payload_bits(p.nominal_bits_per_symbol().max(100), seed);
        let mut tx = MotherModel::new(p).expect("valid preset");
        let want = tx.transmit(&payload).expect("tx");
        // Pilot sequences and differential references deliberately continue
        // across frames; reset so the streamed frame is independent.
        tx.reset();
        let mut state = StreamState::new();
        tx.begin_stream(&payload, &mut state).expect("streams");
        let mut got = Vec::new();
        while tx.stream_into(&mut state, 1 << chunk_exp, &mut got) > 0 {}
        prop_assert_eq!(want.signal().samples(), &got[..], "{}", id.key());
    }

    /// Engine-plan permutation invariance: for every registry standard
    /// and any combination of `ExecPlan` toggles (telemetry × non-finite
    /// guard × deadline budget × breaker policy), chunked execution under
    /// the unified engine reproduces the batch pass bit for bit, and a
    /// report is produced exactly when the plan asks for one.
    #[test]
    fn exec_plan_permutations_preserve_chunk_invariance(
        std_idx in 0usize..10,
        chunk_exp in 0u32..12,
        telemetry in any::<bool>(),
        guard in any::<bool>(),
        breakers in any::<bool>(),
        budget in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let id = StandardId::ALL[std_idx];
        let p = default_params(id);
        let bits = p.nominal_bits_per_symbol().max(100);
        let build = || {
            let mut g = Graph::new();
            let src = g.add(OfdmSource::new(p.clone(), bits, seed).expect("valid preset"));
            let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
            let ch = g.add(AwgnChannel::from_snr_db(25.0, seed ^ 0x5A).with_reference_power(1.0));
            let meter = g.add(PowerMeter::new());
            g.chain(&[src, pa, ch, meter]).expect("wires");
            g.probe(ch).expect("probe");
            (g, ch, meter)
        };
        let with_toggles = |plan: ExecPlan| {
            plan.with_telemetry(telemetry)
                .guard_non_finite(guard)
                .with_budget(budget.then(|| Duration::from_secs(3600)))
                .with_breaker_policy(breakers.then(BreakerPolicy::new))
        };

        let (mut batch, ch_b, meter_b) = build();
        let batch_report = batch.execute(&with_toggles(ExecPlan::batch())).expect("batch");
        let (mut streamed, ch_s, meter_s) = build();
        let stream_report = streamed
            .execute(&with_toggles(ExecPlan::streaming(1 << chunk_exp)))
            .expect("streams");

        prop_assert_eq!(
            batch.output(ch_b).expect("probed"),
            streamed.output(ch_s).expect("probed"),
            "{} chunk 2^{}", id.key(), chunk_exp
        );
        prop_assert_eq!(
            batch.block::<PowerMeter>(meter_b).expect("present").power(),
            streamed.block::<PowerMeter>(meter_s).expect("present").power(),
            "{} chunk 2^{}", id.key(), chunk_exp
        );
        prop_assert_eq!(batch_report.is_some(), telemetry);
        prop_assert_eq!(stream_report.is_some(), telemetry);
    }

    /// Channel chunk invariance: every new impairment block (Rayleigh and
    /// Rician fading, CFO, phase noise) reproduces its batch output bit
    /// for bit when the same waveform is streamed through it in chunks of
    /// any size, for every registry standard's transmit waveform.
    #[test]
    fn impairments_chunk_invariant_for_all_standards(
        std_idx in 0usize..10,
        kind in 0usize..4,
        chunk_exp in 0u32..12,
        seed in 0u64..1000,
    ) {
        let id = StandardId::ALL[std_idx];
        let p = default_params(id);
        let frame = ofdm_bench::transmit_frame(&p, p.nominal_bits_per_symbol().max(100), seed);
        let sig = frame.signal();
        let mut batch = impairment(kind, sig.sample_rate(), seed);
        let want = batch
            .process(std::slice::from_ref(sig))
            .expect("batch pass");
        let mut streamed = impairment(kind, sig.sample_rate(), seed);
        let got = run_chunked(streamed.as_mut(), sig, 1 << chunk_exp);
        prop_assert_eq!(
            want.samples(), got.samples(),
            "{} kind {} chunk 2^{}", id.key(), kind, chunk_exp
        );
        prop_assert!(matches!(batch.role(), BlockRole::Impairment));
    }

    /// Seeded determinism: two impairment instances built with the same
    /// seed produce identical output on every registry standard's
    /// waveform; `reset` rewinds an instance to reproduce its own first
    /// pass; and (for the stochastic blocks) a different seed diverges.
    #[test]
    fn impairments_seed_deterministic_for_all_standards(
        std_idx in 0usize..10,
        kind in 0usize..4,
        seed in 0u64..1000,
    ) {
        let id = StandardId::ALL[std_idx];
        let p = default_params(id);
        let frame = ofdm_bench::transmit_frame(&p, p.nominal_bits_per_symbol().max(100), seed);
        let sig = frame.signal();
        let inputs = std::slice::from_ref(sig);
        let mut a = impairment(kind, sig.sample_rate(), seed);
        let mut b = impairment(kind, sig.sample_rate(), seed);
        let first = a.process(inputs).expect("first pass");
        let twin = b.process(inputs).expect("twin pass");
        prop_assert_eq!(first.samples(), twin.samples(), "{} kind {}", id.key(), kind);
        a.reset();
        let again = a.process(inputs).expect("pass after reset");
        prop_assert_eq!(first.samples(), again.samples(), "{} kind {} reset", id.key(), kind);
        // CFO carries no randomness; the seeded blocks must diverge.
        if kind != 2 {
            let mut c = impairment(kind, sig.sample_rate(), seed ^ 0x9E37_79B9);
            let other = c.process(inputs).expect("other-seed pass");
            prop_assert!(first.samples() != other.samples(), "{} kind {}", id.key(), kind);
        }
    }

    /// Reconfiguration round-trip: switching a Mother Model A→B→A (any
    /// pair of registry standards) and transmitting again reproduces A's
    /// waveform exactly — reconfiguration leaves no residue.
    #[test]
    fn reconfigure_roundtrip_reproduces_waveform(
        a_idx in 0usize..10,
        b_idx in 0usize..10,
        seed in 0u64..1000,
    ) {
        let pa = default_params(StandardId::ALL[a_idx]);
        let pb = default_params(StandardId::ALL[b_idx]);
        let bits_a = payload_bits(pa.nominal_bits_per_symbol().max(100), seed);
        let bits_b = payload_bits(pb.nominal_bits_per_symbol().max(100), seed ^ 1);
        let mut tx = MotherModel::new(pa.clone()).expect("valid preset");
        let want = tx.transmit(&bits_a).expect("tx");
        tx.reconfigure(pb).expect("valid preset");
        let _ = tx.transmit(&bits_b).expect("tx");
        tx.reconfigure(pa).expect("valid preset");
        let again = tx.transmit(&bits_a).expect("tx");
        prop_assert_eq!(want.signal().samples(), again.signal().samples(),
            "{} -> {} -> {}",
            StandardId::ALL[a_idx].key(),
            StandardId::ALL[b_idx].key(),
            StandardId::ALL[a_idx].key());
    }
}

// The serde shim's JSON writer and parser back every telemetry artifact
// (`RunReport::to_json`, sweep checkpoints, `BENCH_*.json`), so their
// round-trip must be exact: any document the writer emits, the parser
// reads back structurally identical — including escaped strings, nested
// containers, and the documented clamp of non-finite numbers to `null`.

/// SplitMix64: a tiny deterministic stream for building arbitrary JSON
/// documents out of a single proptest-generated seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A string exercising the writer's escape table: quotes, backslashes,
/// control characters, and multi-byte UTF-8.
fn gen_json_string(state: &mut u64) -> String {
    const PALETTE: [&str; 10] = ["a", "Z", "\"", "\\", "\n", "\t", "\r", "\u{1}", "β", "☃"];
    let len = splitmix(state) % 9;
    (0..len)
        .map(|_| PALETTE[(splitmix(state) % PALETTE.len() as u64) as usize])
        .collect()
}

/// An arbitrary JSON value of bounded depth. Numbers are drawn from raw
/// f64 bit patterns so subnormals and extreme exponents appear; non-finite
/// draws fall back to a rational so this generator stays roundtrip-exact.
fn gen_json_value(state: &mut u64, depth: u32) -> serde::json::Value {
    use serde::json::Value;
    match splitmix(state) % if depth == 0 { 4 } else { 6 } {
        0 => Value::Null,
        1 => Value::Bool(splitmix(state).is_multiple_of(2)),
        2 => {
            let bits = splitmix(state);
            let x = f64::from_bits(bits);
            if x.is_finite() {
                Value::Number(x)
            } else {
                Value::Number((bits % 1_000_003) as f64 / 97.0)
            }
        }
        3 => Value::String(gen_json_string(state)),
        4 => Value::Array(
            (0..splitmix(state) % 4)
                .map(|_| gen_json_value(state, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..splitmix(state) % 4)
                .map(|_| (gen_json_string(state), gen_json_value(state, depth - 1)))
                .collect(),
        ),
    }
}

/// The writer's documented treatment of non-finite numbers, applied
/// recursively: NaN and the infinities serialize as `null`.
fn clamp_non_finite(v: &serde::json::Value) -> serde::json::Value {
    use serde::json::Value;
    match v {
        Value::Number(x) if !x.is_finite() => Value::Null,
        Value::Array(items) => Value::Array(items.iter().map(clamp_non_finite).collect()),
        Value::Object(members) => Value::Object(
            members
                .iter()
                .map(|(k, v)| (k.clone(), clamp_non_finite(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Writer/parser round-trip: any finite document comes back
    /// structurally equal, so checkpoint and telemetry JSON is lossless.
    #[test]
    fn json_writer_parser_roundtrip(seed in 0u64..1_000_000) {
        let mut state = seed;
        let doc = gen_json_value(&mut state, 3);
        let text = doc.to_string();
        let back = serde::json::parse(&text)
            .unwrap_or_else(|e| panic!("writer emitted unparsable JSON `{text}`: {e}"));
        prop_assert_eq!(back, doc, "{}", text);
    }

    /// Non-finite numbers clamp to `null` on write, wherever they sit in
    /// the document, and the rest of the value survives untouched.
    #[test]
    fn json_non_finite_numbers_clamp_to_null(seed in 0u64..1_000_000) {
        use serde::json::Value;
        let mut state = seed;
        let doc = Value::Object(vec![
            ("nan".into(), Value::Number(f64::NAN)),
            ("inf".into(), Value::Number(f64::INFINITY)),
            ("ninf".into(), Value::Number(f64::NEG_INFINITY)),
            (
                "nested".into(),
                Value::Array(vec![
                    Value::Number(f64::NAN),
                    gen_json_value(&mut state, 2),
                ]),
            ),
        ]);
        let back = serde::json::parse(&doc.to_string()).expect("parses");
        prop_assert_eq!(back, clamp_non_finite(&doc));
    }
}
