//! Criterion micro-benchmarks for the two-pass distributed k-mer counter:
//! the serial reference, one superstep over the whole set at several rank
//! counts, and bounded supersteps (the same fold, many exchanges).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dibella_dist::CommStats;
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

criterion_group!(benches, bench_kmer_counting);
criterion_main!(benches);
