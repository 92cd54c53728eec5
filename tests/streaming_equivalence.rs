//! End-to-end equivalence of the chunked streaming scheduler with the
//! batch engine, over a realistic transmit chain:
//!
//! ```text
//! OfdmSource → RappPa → AwgnChannel(fixed reference) → PowerMeter
//! ```
//!
//! The issue's acceptance criteria: chunked execution is sample-exact
//! against batch for several chunk sizes (including non-divisors of the
//! frame length), per-edge buffers stay bounded by the chunk size after
//! warm-up, and the parallel scenario runner reproduces sequential results
//! for the same seeds.

use ofdm_core::params::presets::minimal_test_params;
use ofdm_core::source::OfdmSource;
use rfsim::prelude::*;
use rfsim::Graph;

/// Builds the reference TX → PA → channel → meter chain. The AWGN block
/// uses a fixed reference power so its σ does not depend on chunking.
fn build_chain(seed: u64) -> (Graph, BlockId, BlockId, BlockId, BlockId) {
    build_chain_with(
        OfdmSource::new(minimal_test_params(), 480, seed).unwrap(),
        seed,
    )
}

/// The reference chain behind an arbitrary source block.
fn build_chain_with(
    source: impl Block + 'static,
    seed: u64,
) -> (Graph, BlockId, BlockId, BlockId, BlockId) {
    let mut g = Graph::new();
    let src = g.add(source);
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
    let ch = g.add(AwgnChannel::from_snr_db(25.0, seed ^ 0xA5A5).with_reference_power(1.0));
    let meter = g.add(PowerMeter::new());
    g.connect(src, pa, 0).unwrap();
    g.connect(pa, ch, 0).unwrap();
    g.connect(ch, meter, 0).unwrap();
    (g, src, pa, ch, meter)
}

#[test]
fn chunked_run_is_bit_identical_to_batch() {
    let (mut batch, src, _, ch, meter) = build_chain(17);
    batch.execute(&ExecPlan::batch()).unwrap();
    let frame = batch.output(src).unwrap().clone();
    let want = batch.output(ch).unwrap().clone();
    let want_power = batch.block::<PowerMeter>(meter).unwrap().power().unwrap();
    // 480 payload bits / 24 per symbol → 20 symbols × 80 samples = 1600.
    assert_eq!(want.len(), 1600);

    // Two sources: the streaming-capable OfdmSource, and a batch-only
    // playback of the same frame, which the scheduler evaluates once and
    // slices into chunks.
    for cached in [false, true] {
        // Chunk sizes: tiny, a non-divisor of both the symbol (80) and
        // frame (1600) lengths, the symbol length, and larger-than-frame.
        for chunk_len in [1usize, 7, 77, 80, 256, 5000] {
            let (mut g, _, _, ch, meter) = if cached {
                build_chain_with(SamplePlayback::new(frame.clone()), 17)
            } else {
                build_chain(17)
            };
            g.probe(ch).unwrap();
            g.execute(&ExecPlan::streaming(chunk_len)).unwrap();
            let got = g.output(ch).unwrap();
            assert_eq!(got, &want, "chunk_len {chunk_len} cached {cached}");
            let got_power = g.block::<PowerMeter>(meter).unwrap().power().unwrap();
            assert_eq!(
                got_power, want_power,
                "chunk_len {chunk_len} cached {cached}"
            );
        }
    }
}

#[test]
fn unprobed_nodes_retain_nothing_probed_nodes_everything() {
    let (mut g, src, pa, ch, meter) = build_chain(3);
    g.probe(ch).unwrap();
    g.execute(&ExecPlan::streaming(128)).unwrap();
    assert!(g.output(src).is_none(), "unprobed source must not retain");
    assert!(g.output(pa).is_none(), "unprobed PA must not retain");
    assert!(g.output(meter).is_none(), "unprobed meter must not retain");
    assert_eq!(g.output(ch).unwrap().len(), 1600);
    // The instrument still measured the whole pass.
    assert!(g.block::<PowerMeter>(meter).unwrap().power().is_some());
}

/// Per-edge memory is bounded by the chunk size: stream one frame chunk by
/// chunk through the PA block directly and check its reused output buffer
/// never grows beyond one chunk (plus slack for the initial reserve).
#[test]
fn per_edge_buffers_are_bounded_by_chunk_size() {
    let chunk_len = 64usize;
    let mut src = OfdmSource::new(minimal_test_params(), 480, 9).unwrap();
    let mut pa = RappPa::new(1.0, 3.0);
    src.begin_stream();
    Block::begin_stream(&mut pa);
    let mut chunk = Signal::default();
    let mut out = Signal::default();
    let mut total = 0usize;
    loop {
        let n = src.stream_chunk(chunk_len, &mut chunk).unwrap();
        if n == 0 {
            break;
        }
        pa.process_chunk(&[&chunk], &mut out).unwrap();
        total += out.len();
        assert!(
            chunk.capacity() <= 2 * chunk_len && out.capacity() <= 2 * chunk_len,
            "edge buffers must stay O(chunk): src cap {} pa cap {}",
            chunk.capacity(),
            out.capacity()
        );
    }
    pa.end_stream().unwrap();
    assert_eq!(total, 1600, "whole frame must have flowed through");
}

/// The parallel scenario runner reproduces a sequential sweep bit for bit:
/// same per-scenario seeds → same measured powers, in scenario order.
#[test]
fn parallel_scenario_sweep_reproduces_sequential() {
    let sweep = |threads: usize| -> Vec<(f64, usize)> {
        SweepPlan::new(6)
            .threads(threads)
            .run_fail_fast(|i| -> Result<(f64, usize), SimError> {
                let seed = scenario_seed(1234, i);
                let (mut g, _, _, ch, meter) = build_chain(seed);
                g.probe(ch).unwrap();
                // Mix batch and streaming scenarios: both modes must give
                // the same result for the same seed either way.
                let plan = if i % 2 == 0 {
                    ExecPlan::batch()
                } else {
                    ExecPlan::streaming(100 + i)
                };
                g.execute(&plan)?;
                let p = g.block::<PowerMeter>(meter).unwrap().power().unwrap();
                Ok((p, g.output(ch).unwrap().len()))
            })
            .unwrap()
            .0
    };
    let seq = sweep(1);
    let par = sweep(4);
    assert_eq!(seq, par);
    for (p, len) in &seq {
        assert_eq!(*len, 1600);
        // 8 dB input back-off puts the PA output near 10^{-0.8} ≈ 0.16 of
        // the unit-power frame; AWGN at 25 dB under the unit reference adds
        // a further ~0.003.
        assert!((*p - 0.16).abs() < 0.05, "power {p}");
    }
}
