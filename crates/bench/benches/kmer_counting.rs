//! Criterion micro-benchmarks for the exact-k-mer front end: the two-pass
//! distributed counter (the serial reference, one superstep over the whole
//! set at several rank counts, and bounded supersteps — the same fold, many
//! exchanges) and the row-wise assembly of `A` from its table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dibella_dist::{CommStats, ProcessGrid};
use dibella_overlap::build_a_matrix;
use dibella_seq::{
    count_kmers_distributed, count_kmers_serial, count_kmers_streaming, read_set_batches,
    DatasetSpec, IngestBudget, KmerSelection,
};

fn bench_kmer_counting(c: &mut Criterion) {
    let ds = DatasetSpec::EColiLike.generate_with_length(20_000, 3);
    let selection = KmerSelection::with_bella_bound(17, ds.achieved_depth(), ds.config.error_rate);

    let mut group = c.benchmark_group("kmer_counting");
    group.sample_size(10);

    group.bench_function("serial", |bencher| {
        bencher.iter(|| count_kmers_serial(&ds.reads, &selection))
    });
    for p in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("distributed", p), &p, |bencher, &p| {
            bencher.iter(|| {
                let stats = CommStats::new();
                count_kmers_distributed(&ds.reads, &selection, p, &stats)
            })
        });
    }
    for max_batch_reads in [64usize, 1024] {
        let budget = IngestBudget::with_batch_reads(max_batch_reads);
        let id = BenchmarkId::new("supersteps_p16", max_batch_reads);
        group.bench_with_input(id, &budget, |bencher, budget| {
            bencher.iter(|| {
                let batches = || Ok(read_set_batches(&ds.reads, *budget));
                count_kmers_streaming(batches, &selection, 16, budget, &CommStats::new())
            })
        });
    }
    group.finish();
}

fn bench_build_a(c: &mut Criterion) {
    let ds = DatasetSpec::EColiLike.generate_with_length(20_000, 3);
    let selection = KmerSelection::with_bella_bound(17, ds.achieved_depth(), ds.config.error_rate);
    let table = count_kmers_distributed(&ds.reads, &selection, 16, &CommStats::new());
    let grid = ProcessGrid::square(16);

    let mut group = c.benchmark_group("build_a");
    group.sample_size(10);
    group.bench_function("p16_grid4x4", |bencher| {
        bencher.iter(|| build_a_matrix(&ds.reads, &table, selection.k, grid, grid.nprocs()))
    });
    group.finish();
}

criterion_group!(benches, bench_kmer_counting, bench_build_a);
criterion_main!(benches);
