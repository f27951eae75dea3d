//! Table V — details of the machines used for evaluation.
//!
//! Prints this host's characteristics next to the Cori Haswell and Summit CPU
//! rows of the paper.  This reproduction runs on one machine with a virtual
//! process grid, so the table documents the hardware substitution.
//!
//! ```bash
//! cargo run --release -p dibella-bench --bin table5_machine
//! ```

use dibella_bench::{print_header, print_row};

fn read_first_match(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
}

fn main() {
    println!("Table V reproduction — evaluation platforms\n");
    print_header(&["platform", "cores/node", "freq (GHz)", "processor", "memory (GB)"]);

    // This host.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let model = read_first_match("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let mhz: f64 = read_first_match("/proc/cpuinfo", "cpu MHz")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let mem_gb: f64 = read_first_match("/proc/meminfo", "MemTotal")
        .and_then(|s| s.split_whitespace().next().map(|x| x.to_string()))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0 / 1024.0)
        .unwrap_or(0.0);
    print_row(&[
        "this host".into(),
        cores.to_string(),
        format!("{:.1}", mhz / 1000.0),
        model.chars().take(14).collect(),
        format!("{mem_gb:.0}"),
    ]);

    // The paper's platforms.
    print_row(&["Cori Haswell", "32", "3.6", "Xeon E5-2698V3", "128"]);
    print_row(&["Summit CPU", "42", "4.0", "IBM POWER9", "512"]);

    println!("\nNetworks: Cori uses Aries Dragonfly, Summit an InfiniBand fat tree.  This");
    println!("reproduction replaces the network with a virtual process grid whose collective");
    println!("volumes are measured exactly and whose time is projected with documented");
    println!("bandwidth/latency constants (see crates/bench/src/lib.rs).");
    println!("\nFull CPU model of this host: {model}");
}
