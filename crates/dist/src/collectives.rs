//! Simulated MPI collectives with exact volume accounting.
//!
//! Because all virtual ranks share one address space, these collectives move
//! data with `Vec` plumbing and **record** the words and messages a real MPI
//! run would have moved.  The conventions match the paper's instrumentation:
//! volumes are in 8-byte words, self-messages (`src == dst`) are free, and
//! empty point-to-point buffers are not sent.

use crate::comm::{CommPhase, CommStats};
use rayon::pool;

/// Simulated `MPI_Alltoallv`: rank `src` sends the items `send[src]`, each to
/// rank `owner(item)`, recording the traffic under `phase`.
///
/// Rank `dst` receives the items addressed to it in ascending `src` order,
/// each source's in the order it listed them (deterministic, like a
/// rank-ordered `MPI_Alltoallv`).  A source's items for one rank travel as
/// one buffer: each off-rank, non-empty buffer counts `len · words_per_item`
/// words and one message against the sending rank; on-rank data
/// (`src == dst`) is free, so a single-rank exchange records nothing.
///
/// # Panics
/// Panics if `owner` returns a rank outside `0..send.len()`.
pub fn alltoallv_counted<T: Send>(
    send: Vec<Vec<T>>,
    owner: impl Fn(&T) -> usize + Sync,
    stats: &CommStats,
    phase: CommPhase,
    words_per_item: u64,
) -> Vec<Vec<T>> {
    let nprocs = send.len();
    // Every source groups its own items, as its own task, and keeps only its
    // non-empty buffers, so no state here grows with rank pairs.  An owner
    // hash spreads a source's items evenly: a buffer sized an eighth over its
    // even share almost never regrows, and an empty source allocates nothing.
    let outgoing: Vec<Vec<(usize, Vec<T>)>> = pool::map_owned(send, |_, items| {
        if items.is_empty() {
            return Vec::new();
        }
        let share = items.len() / nprocs;
        let mut buffers: Vec<Vec<T>> =
            (0..nprocs).map(|_| Vec::with_capacity(share + share / 8)).collect();
        for item in items {
            buffers[owner(&item)].push(item);
        }
        buffers.into_iter().enumerate().filter(|(_, buffer)| !buffer.is_empty()).collect()
    });
    // `inbound[dst]`: the accounting pass hands every buffer to the rank that
    // is about to receive it, in ascending source order.
    let mut inbound: Vec<Vec<Vec<T>>> = (0..nprocs).map(|_| Vec::new()).collect();
    for (src, buffers) in outgoing.into_iter().enumerate() {
        let mut words_sent = 0u64;
        let mut messages_sent = 0u64;
        for (dst, buffer) in buffers {
            if dst != src {
                words_sent += buffer.len() as u64 * words_per_item;
                messages_sent += 1;
            }
            inbound[dst].push(buffer);
        }
        if messages_sent > 0 {
            stats.record(phase, words_sent, messages_sent);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommPhase;

    /// Run the exchange on a `[src][dst]` matrix of values: each source lists
    /// its values row by row, tagged with their destination, and the tag is
    /// the owner.  Returns the values each rank received.
    fn exchange(
        matrix: &[&[&[u32]]],
        stats: &CommStats,
        phase: CommPhase,
        words_per_item: u64,
    ) -> Vec<Vec<u32>> {
        let send = matrix
            .iter()
            .map(|row| {
                let tagged = row.iter().enumerate();
                tagged.flat_map(|(dst, buf)| buf.iter().map(move |&v| (dst, v))).collect()
            })
            .collect();
        let recv = alltoallv_counted(send, |&(dst, _)| dst, stats, phase, words_per_item);
        recv.into_iter().map(|items| items.into_iter().map(|(_, v)| v).collect()).collect()
    }

    #[test]
    fn delivery_is_concatenated_in_source_order() {
        let stats = CommStats::new();
        let recv = exchange(
            &[
                &[&[1], &[2, 3], &[4]],
                &[&[5, 6], &[], &[7]],
                &[&[8], &[9], &[]],
            ],
            &stats,
            CommPhase::Other,
            1,
        );
        assert_eq!(recv[0], vec![1, 5, 6, 8]);
        assert_eq!(recv[1], vec![2, 3, 9]);
        assert_eq!(recv[2], vec![4, 7]);
    }

    #[test]
    fn a_source_listed_out_of_destination_order_is_delivered_in_its_order() {
        // Owner `v % 3`: rank 0 lists its values for ranks 2, 0, 1, 1, 0, 2
        // and rank 1 for ranks 0, 1, 2, 0; rank 2 lists nothing.
        let stats = CommStats::new();
        let send = vec![vec![5u32, 3, 1, 4, 0, 2], vec![9, 7, 8, 6], vec![]];
        let recv = alltoallv_counted(send, |&v| v as usize % 3, &stats, CommPhase::Other, 1);
        assert_eq!(recv, vec![vec![3, 0, 9, 6], vec![1, 4, 7], vec![5, 2, 8]]);
        // Rank 0 sends 2 + 2 items in 2 messages, rank 1 sends 2 + 1 in 2.
        assert_eq!(stats.words(CommPhase::Other), 7);
        assert_eq!(stats.messages(CommPhase::Other), 4);
    }

    #[test]
    fn volumes_match_hand_computed_off_rank_items() {
        let stats = CommStats::new();
        let _ = exchange(
            &[
                &[&[1], &[2, 3], &[4]],    // off-rank: 3 items, 2 messages
                &[&[5, 6], &[], &[7]],     // off-rank: 3 items, 2 messages
                &[&[8], &[9], &[]],        // off-rank: 2 items, 2 messages
            ],
            &stats,
            CommPhase::KmerCounting,
            1,
        );
        assert_eq!(stats.words(CommPhase::KmerCounting), 8);
        assert_eq!(stats.messages(CommPhase::KmerCounting), 6);
    }

    #[test]
    fn words_per_item_scales_the_volume_but_not_the_messages() {
        let stats = CommStats::new();
        let _ = exchange(&[&[&[], &[1, 2, 3]], &[&[4], &[]]], &stats, CommPhase::Other, 5);
        assert_eq!(stats.words(CommPhase::Other), (3 + 1) * 5);
        assert_eq!(stats.messages(CommPhase::Other), 2);
    }

    #[test]
    fn single_rank_and_empty_buffers_are_free() {
        let stats = CommStats::new();
        let recv = exchange(&[&[&[1, 2, 3]]], &stats, CommPhase::Other, 4);
        assert_eq!(recv, vec![vec![1, 2, 3]]);
        assert_eq!(stats.words(CommPhase::Other), 0);
        assert_eq!(stats.messages(CommPhase::Other), 0);

        // Empty off-rank buffers do not count as messages either.
        let _ = exchange(&[&[&[], &[]], &[&[], &[]]], &stats, CommPhase::Other, 4);
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
        // Free on a one-rank grid.
        record_allreduce(&stats, CommPhase::OverlapDetection, 3, 1);
        assert_eq!(stats.messages(CommPhase::OverlapDetection), 6);
    }

    #[test]
    fn a_receive_side_hot_spot_is_charged_to_the_senders() {
        // Every rank sends one word, but rank 0 receives everything (a hash
        // hot spot): each sender pays for its own word, the receiver nothing.
        let stats = CommStats::new();
        let _ = exchange(
            &[
                &[&[], &[], &[]],
                &[&[10], &[], &[]],
                &[&[20], &[], &[]],
            ],
            &stats,
            CommPhase::KmerCounting,
            1,
        );
        assert_eq!(stats.words(CommPhase::KmerCounting), 2);
        assert_eq!(stats.messages(CommPhase::KmerCounting), 2);
    }
}
