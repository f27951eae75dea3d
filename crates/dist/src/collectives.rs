//! Simulated MPI collectives with exact volume accounting.
//!
//! Because all virtual ranks share one address space, these collectives move
//! data with `Vec` plumbing and **record** the words and messages a real MPI
//! run would have moved.  The conventions match the paper's instrumentation:
//! volumes are in 8-byte words, self-messages (`src == dst`) are free, and
//! empty point-to-point buffers are not sent.

use crate::comm::{CommPhase, CommStats};
use rayon::pool;

/// Simulated `MPI_Alltoallv`: deliver `send[src][dst]` to rank `dst`,
/// recording the traffic under `phase`.
///
/// Rank `dst` receives the concatenation of every `send[src][dst]` in
/// ascending `src` order (deterministic, like a rank-ordered `MPI_Alltoallv`).
/// Each off-rank, non-empty buffer counts `len · words_per_item` words and
/// one message against the sending rank; on-rank data (`src == dst`) is free,
/// so a single-rank exchange records nothing.  The largest per-rank volume of
/// this exchange — sent **or received**, so that both send- and receive-side
/// skew show up — is folded into the phase's
/// [`max_words_per_rank`](crate::PhaseCounters::max_words_per_rank).
///
/// # Panics
/// Panics if any `send[src]` does not have exactly one buffer per rank.
pub fn alltoallv_counted<T: Send>(
    send: Vec<Vec<Vec<T>>>,
    stats: &CommStats,
    phase: CommPhase,
    words_per_item: u64,
) -> Vec<Vec<T>> {
    let nprocs = send.len();
    // `inbound[dst][src]`: the accounting pass hands every buffer to the rank
    // that is about to receive it.
    let mut inbound: Vec<Vec<Vec<T>>> =
        (0..nprocs).map(|_| Vec::with_capacity(nprocs)).collect();
    let mut words_received = vec![0u64; nprocs];
    for (src, buffers) in send.into_iter().enumerate() {
        assert_eq!(
            buffers.len(),
            nprocs,
            "rank {src} prepared {} buffers for {nprocs} ranks",
            buffers.len()
        );
        let mut words_sent = 0u64;
        let mut messages_sent = 0u64;
        for (dst, buffer) in buffers.into_iter().enumerate() {
            if dst != src && !buffer.is_empty() {
                let words = buffer.len() as u64 * words_per_item;
                words_sent += words;
                words_received[dst] += words;
                messages_sent += 1;
            }
            inbound[dst].push(buffer);
        }
        if words_sent > 0 || messages_sent > 0 {
            stats.record(phase, words_sent, messages_sent);
            stats.record_rank_max(phase, words_sent);
        }
    }
    for words in words_received {
        if words > 0 {
            stats.record_rank_max(phase, words);
        }
    }
    // Every destination fills its own receive buffer, reserved at its exact
    // total, and frees each source buffer once copied: the two sides of the
    // exchange are co-resident one destination at a time, not all at once.
    pool::map_owned(inbound, |_, buffers| {
        let mut recv = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
        for buffer in buffers {
            recv.extend(buffer);
        }
        recv
    })
}

/// Account for one simulated broadcast of `words` words from one rank to the
/// other `group_size - 1` members of its grid row or column.
///
/// The data itself is already shared (one address space), so only the
/// accounting happens: `words · (group_size - 1)` words and `group_size - 1`
/// messages, which is what Sparse SUMMA's per-stage `A`/`B` block broadcasts
/// cost in the paper's Table I model.  A broadcast within a single-member
/// group records nothing.
///
/// Unlike point-to-point sends, a zero-word broadcast still counts its
/// `group_size - 1` messages: `MPI_Bcast` is a collective, so every member of
/// the row/column communicator posts it even when the root's sparse block is
/// empty (the receivers cannot know the payload is empty without taking part).
/// The SUMMA kernels therefore call this for every stage block, empty or not,
/// which keeps the accounted message count at its data-independent closed
/// form.
pub fn record_broadcast(stats: &CommStats, phase: CommPhase, words: u64, group_size: usize) {
    if group_size <= 1 {
        return;
    }
    let peers = (group_size - 1) as u64;
    stats.record(phase, words * peers, peers);
    stats.record_rank_max(phase, words * peers);
}

/// Account for one simulated all-reduce of a `words`-word vector over
/// `group_size` ranks (e.g. the bitwise-OR merge of the contained-read bitmap
/// between alignment waves).
///
/// Priced in this module's broadcast convention as a reduce to one root
/// followed by a broadcast back: `2 · words · (group_size - 1)` words and
/// `2 · (group_size - 1)` messages, the root moving `words · (group_size - 1)`
/// each way.  Like a broadcast it is a collective — every member posts it
/// whatever its payload — and it is free within a single-member group.
pub fn record_allreduce(stats: &CommStats, phase: CommPhase, words: u64, group_size: usize) {
    if group_size <= 1 {
        return;
    }
    let peers = (group_size - 1) as u64;
    stats.record(phase, 2 * words * peers, 2 * peers);
    stats.record_rank_max(phase, words * peers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommPhase;

    fn square_send(matrix: &[&[&[u32]]]) -> Vec<Vec<Vec<u32>>> {
        matrix.iter().map(|row| row.iter().map(|buf| buf.to_vec()).collect()).collect()
    }

    #[test]
    fn delivery_is_concatenated_in_source_order() {
        let stats = CommStats::new();
        let send = square_send(&[
            &[&[1], &[2, 3], &[4]],
            &[&[5, 6], &[], &[7]],
            &[&[8], &[9], &[]],
        ]);
        let recv = alltoallv_counted(send, &stats, CommPhase::Other, 1);
        assert_eq!(recv[0], vec![1, 5, 6, 8]);
        assert_eq!(recv[1], vec![2, 3, 9]);
        assert_eq!(recv[2], vec![4, 7]);
    }

    #[test]
    fn volumes_match_hand_computed_off_rank_items() {
        let stats = CommStats::new();
        let send = square_send(&[
            &[&[1], &[2, 3], &[4]],    // off-rank: 3 items, 2 messages
            &[&[5, 6], &[], &[7]],     // off-rank: 3 items, 2 messages
            &[&[8], &[9], &[]],        // off-rank: 2 items, 2 messages
        ]);
        let _ = alltoallv_counted(send, &stats, CommPhase::KmerCounting, 1);
        assert_eq!(stats.words(CommPhase::KmerCounting), 8);
        assert_eq!(stats.messages(CommPhase::KmerCounting), 6);
        // Per-rank max: ranks sent 3, 3 and 2 words respectively.
        assert_eq!(stats.snapshot().phase(CommPhase::KmerCounting).max_words_per_rank, 3);
    }

    #[test]
    fn words_per_item_scales_the_volume_but_not_the_messages() {
        let stats = CommStats::new();
        let send = square_send(&[&[&[], &[1, 2, 3]], &[&[4], &[]]]);
        let _ = alltoallv_counted(send, &stats, CommPhase::Other, 5);
        assert_eq!(stats.words(CommPhase::Other), (3 + 1) * 5);
        assert_eq!(stats.messages(CommPhase::Other), 2);
    }

    #[test]
    fn single_rank_and_empty_buffers_are_free() {
        let stats = CommStats::new();
        let recv = alltoallv_counted(vec![vec![vec![1u8, 2, 3]]], &stats, CommPhase::Other, 4);
        assert_eq!(recv, vec![vec![1, 2, 3]]);
        assert_eq!(stats.words(CommPhase::Other), 0);
        assert_eq!(stats.messages(CommPhase::Other), 0);

        // Empty off-rank buffers do not count as messages either.
        let send: Vec<Vec<Vec<u8>>> = vec![vec![vec![], vec![]], vec![vec![], vec![]]];
        let _ = alltoallv_counted(send, &stats, CommPhase::Other, 4);
        assert_eq!(stats.messages(CommPhase::Other), 0);
    }

    #[test]
    fn broadcast_accounting_matches_group_size() {
        let stats = CommStats::new();
        record_broadcast(&stats, CommPhase::OverlapDetection, 10, 4);
        assert_eq!(stats.words(CommPhase::OverlapDetection), 30);
        assert_eq!(stats.messages(CommPhase::OverlapDetection), 3);
        // Single-member groups are free (the 1×1 grid case).
        record_broadcast(&stats, CommPhase::OverlapDetection, 10, 1);
        assert_eq!(stats.words(CommPhase::OverlapDetection), 30);
        // Empty broadcasts still pay latency in a bigger group.
        record_broadcast(&stats, CommPhase::OverlapDetection, 0, 3);
        assert_eq!(stats.messages(CommPhase::OverlapDetection), 5);
    }

    #[test]
    fn allreduce_costs_a_reduce_and_a_broadcast() {
        let stats = CommStats::new();
        record_allreduce(&stats, CommPhase::OverlapDetection, 3, 4);
        assert_eq!(stats.words(CommPhase::OverlapDetection), 2 * 3 * 3);
        assert_eq!(stats.messages(CommPhase::OverlapDetection), 2 * 3);
        assert_eq!(stats.snapshot().phase(CommPhase::OverlapDetection).max_words_per_rank, 9);
        // Free on a one-rank grid.
        record_allreduce(&stats, CommPhase::OverlapDetection, 3, 1);
        assert_eq!(stats.messages(CommPhase::OverlapDetection), 6);
    }

    #[test]
    fn rank_max_sees_receive_side_skew() {
        // Every rank sends one word, but rank 0 receives everything (a hash
        // hot spot): the per-rank max must reflect the receive side.
        let stats = CommStats::new();
        let send = square_send(&[
            &[&[], &[], &[]],
            &[&[10], &[], &[]],
            &[&[20], &[], &[]],
        ]);
        let _ = alltoallv_counted(send, &stats, CommPhase::KmerCounting, 1);
        let snap = stats.snapshot().phase(CommPhase::KmerCounting);
        assert_eq!(snap.words, 2);
        assert_eq!(snap.max_words_per_rank, 2, "rank 0 received 2 words");
    }

    #[test]
    #[should_panic(expected = "buffers")]
    fn ragged_send_matrices_are_rejected() {
        let stats = CommStats::new();
        let send: Vec<Vec<Vec<u8>>> = vec![vec![vec![]], vec![vec![], vec![]]];
        let _ = alltoallv_counted(send, &stats, CommPhase::Other, 1);
    }
}
