//! Table IV — datasets used during evaluation.
//!
//! Prints the statistics of the scaled synthetic datasets generated by this
//! reproduction next to the figures the paper reports for the real PacBio CLR
//! inputs.
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin table4_datasets
//! ```

use dibella_bench::{benchmark_dataset, fmt, print_header, print_row};
use dibella_seq::DatasetSpec;

fn main() {
    println!("Table IV reproduction — evaluation datasets\n");
    print_header(&[
        "label", "depth", "reads (K)", "read len", "input (MB)", "genome (Mb)", "error",
    ]);
    for (spec, seed) in [
        (DatasetSpec::EColiLike, 41u64),
        (DatasetSpec::CElegansLike, 42),
        (DatasetSpec::HSapiensLike, 43),
    ] {
        let ds = benchmark_dataset(spec, seed);
        print_row(&[
            ds.label.clone(),
            fmt(ds.achieved_depth()),
            fmt(ds.num_reads() as f64 / 1_000.0),
            fmt(ds.mean_read_length()),
            fmt(ds.input_size_mb()),
            fmt(ds.genome.len() as f64 / 1.0e6),
            fmt(ds.config.error_rate),
        ]);
    }

    println!("\nPaper (Table IV, real PacBio CLR data):");
    print_header(&[
        "label", "depth", "reads (K)", "read len", "input (GB)", "genome (Mb)", "error",
    ]);
    print_row(&["C. elegans", "40", "420.7", "11241", "4.8", "100", "0.13"]);
    print_row(&["H. sapiens", "10", "4421.6", "7401", "33.1", "3000", "0.15"]);
    println!("\nThe synthetic datasets preserve depth, read-length scale and error rate; the");
    println!("genome length is scaled down (see DESIGN.md, substitution table) so the full");
    println!("pipeline and every experiment harness run on a single machine.");
}
