//! Probing order (paper Section 3.3): destinations are drawn round-robin
//! across the four /26 quarters, and the quarter order is reshuffled at the
//! end of each round, so early terminations still represent the whole /24.

use crate::select::SelectedBlock;
use netsim::{Addr, Block24};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Produce the full probing order for a selected block.
///
/// Within each quarter the addresses are visited in a seeded shuffle; the
/// round-robin quarter order reshuffles between rounds. Every active
/// address appears exactly once.
pub fn probing_order(sel: &SelectedBlock, seed: u64) -> Vec<Addr> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (sel.block.0 as u64) << 8);
    // Per-quarter queues, shuffled once.
    let mut queues: Vec<Vec<Addr>> = sel
        .quarters
        .iter()
        .map(|q| {
            let mut v = q.clone();
            v.shuffle(&mut rng);
            v
        })
        .collect();
    let mut order = Vec::with_capacity(sel.active_count());
    let mut quarter_order: Vec<usize> = (0..4).collect();
    while queues.iter().any(|q| !q.is_empty()) {
        quarter_order.shuffle(&mut rng);
        for &q in &quarter_order {
            if let Some(a) = queues[q].pop() {
                order.push(a);
            }
        }
    }
    order
}

/// Order the targeted reprobe pass over destinations that stayed
/// unresolved.
///
/// Input order is irrelevant (the list is sorted before shuffling), so the
/// schedule depends only on the block, the seed, and the *set* of
/// unresolved addresses — a worker that collected them in any order
/// reprobes them identically.
pub fn reprobe_order(block: Block24, unresolved: &[Addr], seed: u64) -> Vec<Addr> {
    let mut order: Vec<Addr> = unresolved.to_vec();
    order.sort();
    order.dedup();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((block.0 as u64) << 8) ^ 0x5EC0);
    order.shuffle(&mut rng);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(hosts_per_quarter: [&[u8]; 4]) -> SelectedBlock {
        let block = Block24(0x0A_0102);
        let quarters = hosts_per_quarter.map(|hs| hs.iter().map(|&h| block.addr(h)).collect());
        SelectedBlock { block, quarters }
    }

    #[test]
    fn order_visits_every_address_once() {
        let s = sel([&[1, 2, 3], &[70, 71], &[130], &[200, 201, 202, 203]]);
        let order = probing_order(&s, 9);
        assert_eq!(order.len(), 10);
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn first_round_covers_all_quarters() {
        let s = sel([&[1, 2], &[70, 71], &[130, 131], &[200, 201]]);
        let order = probing_order(&s, 9);
        let quarters: std::collections::HashSet<u8> =
            order[..4].iter().map(|a| a.quarter26()).collect();
        assert_eq!(quarters.len(), 4, "first four probes hit all quarters");
    }

    #[test]
    fn deterministic_per_seed_and_block() {
        let s = sel([&[1, 2], &[70], &[130], &[200, 201]]);
        assert_eq!(probing_order(&s, 9), probing_order(&s, 9));
        assert_ne!(probing_order(&s, 9), probing_order(&s, 10));
    }

    #[test]
    fn reprobe_order_is_a_permutation_independent_of_input_order() {
        let block = Block24(0x0A_0102);
        let fwd: Vec<Addr> = [1u8, 9, 40, 77, 130, 200]
            .iter()
            .map(|&h| block.addr(h))
            .collect();
        let mut rev = fwd.clone();
        rev.reverse();
        let a = reprobe_order(block, &fwd, 7);
        let b = reprobe_order(block, &rev, 7);
        assert_eq!(a, b, "schedule depends on the set, not collection order");
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, fwd);
        assert_ne!(reprobe_order(block, &fwd, 7), reprobe_order(block, &fwd, 8));
    }

    #[test]
    fn uneven_quarters_drain_gracefully() {
        let s = sel([&[1], &[70], &[130], &[200, 201, 202, 203, 204]]);
        let order = probing_order(&s, 3);
        assert_eq!(order.len(), 8);
        // Tail should be all quarter-3 addresses once others drain.
        assert!(order[4..].iter().all(|a| a.quarter26() == 3));
    }
}
