//! Re-pins the SpGEMM determinism claim — and that of the other pool loops in
//! this crate (the 1D outer product and its consuming reduction) — under
//! adversarial steal schedules.
//!
//! `spgemm_stages` and its symmetric sibling `spgemm_stages_aat` accumulate
//! every output row in place across stages on the work-stealing pool, and the
//! k-major block kernel behind `spgemm_aat_block` fills row tiles of a dense
//! slot array on it; their claim is bit-identical output for every thread
//! count *and every chunk-claim order*.  The 1/2/4-thread sweeps elsewhere
//! leave the claim order to the OS; here the schedule explorer enumerates all
//! 3-/4-chunk permutations (and seeded large shuffles on the randomized CI
//! preset) with yield points injected before every claim.

use dibella_dist::{CommPhase, CommStats};
use dibella_dist::ProcessGrid;
use dibella_sparse::{
    outer1d::outer1d_aat,
    spgemm::{aat_block_is_k_major, spgemm_aat_block, spgemm_stages, spgemm_stages_aat, AatStage},
    CsrMatrix, DistMat2D, FlopCounter, PlusTimes, Triples,
};
use dibella_testutil::{assert_schedule_determinism, SchedulePreset};

/// A deterministic pseudo-random CSR matrix (LCG-filled, duplicate-free).
fn random_csr(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CsrMatrix<u64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut triples = Triples::new(nrows, ncols);
    while seen.len() < nnz.min(nrows * ncols) {
        let r = (next() % nrows as u64) as usize;
        let c = (next() % ncols as u64) as usize;
        if seen.insert((r, c)) {
            triples.push(r, c, next() % 97 + 1);
        }
    }
    CsrMatrix::from_triples(&triples)
}

#[test]
fn spgemm_stages_is_bit_identical_under_adversarial_schedules() {
    // Two stages with skewed shapes, as a 2-stage SUMMA rank would see.
    let a1 = random_csr(96, 48, 700, 1);
    let b1 = random_csr(48, 80, 500, 2);
    let a2 = random_csr(96, 48, 350, 3);
    let b2 = random_csr(48, 80, 900, 4);

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        let flops = FlopCounter::new();
        let out = spgemm_stages::<PlusTimes<u64>>(
            96,
            80,
            &[(&a1, &b1), (&a2, &b2)],
            &flops,
        );
        // The counters are part of the determinism claim too.
        (out, flops.flops(), flops.probes(), flops.peak_row_width())
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}

#[test]
fn spgemm_stages_aat_is_bit_identical_under_adversarial_schedules() {
    // A diagonal block of a 2-stage symmetric SUMMA: Σ_s A_s·A_sᵀ.
    let a1 = random_csr(96, 48, 700, 5);
    let a2 = random_csr(96, 48, 350, 6);
    let (t1, t2) = (a1.transpose(), a2.transpose());

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        let flops = FlopCounter::new();
        let out = spgemm_stages_aat::<PlusTimes<u64>>(
            96,
            &[(&a1, &t1), (&a2, &t2)],
            &flops,
        );
        (out, flops.flops(), flops.probes(), flops.peak_row_width())
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}

#[test]
fn k_major_aat_block_is_bit_identical_under_adversarial_schedules() {
    // Two stages dense enough for the block to pick the k-major kernel, and
    // an output of five row tiles, so a 3-/4-chunk schedule splits the tile
    // loop unevenly.  Diagonal and off-diagonal block of the same grid row.
    let (a1, a2) = (random_csr(768, 40, 9_000, 12), random_csr(768, 40, 5_000, 13));
    let (b1, b2) = (random_csr(700, 40, 9_000, 14), random_csr(700, 40, 5_000, 15));
    let (at1, at2, bt1, bt2) = (a1.transpose(), a2.transpose(), b1.transpose(), b2.transpose());
    let diag = [
        AatStage { left: &a1, left_t: &at1, right_t: &at1 },
        AatStage { left: &a2, left_t: &at2, right_t: &at2 },
    ];
    let off = [
        AatStage { left: &a1, left_t: &at1, right_t: &bt1 },
        AatStage { left: &a2, left_t: &at2, right_t: &bt2 },
    ];
    assert!(aat_block_is_k_major(768, 768, &diag, true));
    assert!(aat_block_is_k_major(768, 700, &off, false));

    let run = || {
        let flops = FlopCounter::new();
        let d = spgemm_aat_block::<PlusTimes<u64>>(768, 768, &diag, true, &flops);
        let o = spgemm_aat_block::<PlusTimes<u64>>(768, 700, &off, false, &flops);
        (d, o, flops.flops(), flops.probes(), flops.peak_row_width())
    };
    let explored = assert_schedule_determinism(SchedulePreset::from_env(), run);
    assert!(explored >= 30, "expected at least the exhaustive-small preset");

    // And what every schedule agreed on is what the row-wise kernels compute.
    let flops = FlopCounter::new();
    let d = spgemm_stages_aat::<PlusTimes<u64>>(768, &[(&a1, &at1), (&a2, &at2)], &flops);
    let o = spgemm_stages::<PlusTimes<u64>>(768, 700, &[(&a1, &bt1), (&a2, &bt2)], &flops);
    assert_eq!(run(), (d, o, flops.flops(), flops.probes(), flops.peak_row_width()));
}

#[test]
fn outer1d_aat_is_bit_identical_under_adversarial_schedules() {
    let a = random_csr(96, 48, 700, 9);

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        let stats = CommStats::new();
        let out = outer1d_aat::<PlusTimes<u64>>(&a, 4, &stats, CommPhase::OverlapDetection);
        // The all-to-all's accounted traffic is part of the claim too.
        (out.row_blocks, stats.snapshot())
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}

#[test]
fn from_sorted_rows_equals_from_triples_under_adversarial_schedules() {
    // Sparse enough for empty rows (and, at 4×4, empty blocks), plus an
    // all-empty matrix; rows fewer than scan ranks leave some runs empty.
    let inputs = [random_csr(23, 31, 40, 10), random_csr(5, 40, 60, 11), CsrMatrix::zero(7, 9)];
    let grids = [1usize, 4, 9, 16].map(ProcessGrid::square);
    assert!((0..23).any(|r| inputs[0].row_nnz(r) == 0), "want an empty row");

    let explored = assert_schedule_determinism(SchedulePreset::from_env(), || {
        let mut built = Vec::new();
        for m in &inputs {
            for grid in grids {
                let want = DistMat2D::from_triples(grid, &m.to_triples());
                for scan_ranks in [1usize, 4, 7, 16] {
                    let got =
                        DistMat2D::from_sorted_rows(grid, m.nrows(), m.ncols(), scan_ranks, |r, row| {
                            row.extend(m.row(r).map(|(c, v)| (c, *v)))
                        });
                    assert_eq!(got, want, "{grid:?} scan_ranks={scan_ranks}");
                }
                built.push(want);
            }
        }
        built
    });
    assert!(explored >= 30, "expected at least the exhaustive-small preset");
}

#[test]
#[should_panic(expected = "unsorted or duplicate columns")]
fn from_sorted_rows_rejects_a_row_out_of_order() {
    let fill = |_: usize, row: &mut Vec<(usize, u64)>| row.extend([(3, 1), (1, 2)]);
    let _ = DistMat2D::from_sorted_rows(ProcessGrid::square(1), 2, 5, 1, fill);
}

#[test]
#[should_panic(expected = "column 5 out of range (5 columns)")]
fn from_sorted_rows_rejects_a_column_out_of_range() {
    let fill = |_: usize, row: &mut Vec<(usize, u64)>| row.push((5, 1));
    let _ = DistMat2D::from_sorted_rows(ProcessGrid::square(4), 2, 5, 1, fill);
}
