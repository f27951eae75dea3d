//! Criterion benchmark for the end-to-end diBELLA 2D pipeline and its 1D
//! counterpart on a small simulated dataset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dibella_dist::CommStats;
use dibella_pipeline::{run_dibella_1d, run_dibella_2d_on_reads, PipelineConfig};
use dibella_seq::DatasetSpec;

fn bench_pipeline(c: &mut Criterion) {
    let ds = DatasetSpec::Tiny.generate_with_length(6_000, 17);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    for p in [1usize, 16] {
        let cfg = PipelineConfig::for_small_reads(13, p);
        group.bench_with_input(BenchmarkId::new("dibella_2d", p), &p, |bencher, _| {
            bencher.iter(|| {
                let comm = CommStats::new();
                run_dibella_2d_on_reads(&ds.reads, &cfg, &comm).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("dibella_1d", p), &p, |bencher, _| {
            bencher.iter(|| {
                let comm = CommStats::new();
                run_dibella_1d(&ds.reads, &cfg, &comm).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
