//! RF-simulator substrate benchmarks: per-block throughput of the analog
//! models and instruments, and the E6 impairment-sweep pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ofdm_bench::{payload_bits, transmit_frame};
use ofdm_standards::ieee80211a::{self, WlanRate};
use rfsim::prelude::*;
use rfsim::Block;
use std::hint::black_box;

fn test_signal(n: usize) -> Signal {
    let bits = payload_bits(n, 4);
    let _ = bits;
    let frame = transmit_frame(&ieee80211a::params(WlanRate::Mbps54), n, 4);
    frame.into_signal()
}

fn bench_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("rf_block");
    let sig = test_signal(12_000);
    group.throughput(Throughput::Elements(sig.len() as u64));

    let mut run = |name: &str, mut blk: Box<dyn Block>| {
        group.bench_with_input(BenchmarkId::from_parameter(name), &sig, |b, s| {
            b.iter(|| black_box(blk.process(std::slice::from_ref(s)).expect("processes")));
        });
    };
    run("dac_10bit", Box::new(Dac::new(10, 4.0)));
    run("rapp_pa", Box::new(RappPa::new(1.0, 3.0)));
    run("saleh_pa", Box::new(SalehPa::classic()));
    run(
        "lo_phase_noise",
        Box::new(LocalOscillator::new(1e3, 100.0, 1)),
    );
    run("iq_imbalance", Box::new(IqImbalance::new(0.3, 1.5)));
    run("awgn", Box::new(AwgnChannel::from_snr_db(20.0, 2)));
    run(
        "multipath_8tap",
        Box::new(MultipathChannel::new(
            (0..8)
                .map(|i| ofdm_dsp::Complex64::new(0.5f64.powi(i), 0.0))
                .collect(),
        )),
    );
    run("butterworth_6", Box::new(ButterworthLowpass::new(6, 5e6)));
    run("spectrum_analyzer", Box::new(SpectrumAnalyzer::new(256)));
    run("ccdf_probe", Box::new(CcdfProbe::new()));
    group.finish();
}

fn bench_impairment_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_sweep");
    group.sample_size(10);
    let frame = transmit_frame(&ieee80211a::params(WlanRate::Mbps54), 6_000, 9);
    group.bench_function("pa_backoff_point", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let src = g.add(SamplePlayback::new(frame.signal().clone()));
            let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
            let probe = g.add(CcdfProbe::new());
            g.chain(&[src, pa, probe]).expect("wires");
            g.execute(&ExecPlan::batch()).expect("runs");
            black_box(g.block::<CcdfProbe>(probe).expect("present").papr_db())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_blocks, bench_impairment_sweep);
criterion_main!(benches);
