//! Concurrent data structures for exact parallel edge switching.
//!
//! Section 5 of the paper describes the data-structure layer that makes the
//! chains fast and the parallel ones exact:
//!
//! * the one **edge hash set** of every exact chain, with open addressing,
//!   power-of-two capacity, a low maximum load factor, and an 8-bit lock
//!   field per bucket manipulated with compare-and-swap
//!   ([`edge_set::ConcurrentEdgeSet`]).  Algorithm 1 and `NaiveParES` write
//!   it atomically; the in-order kernel of the sequential chains, and of the
//!   parallel ones at one thread, reads and writes it through exclusive
//!   access with plain loads and stores.  That kernel hashes each edge once
//!   into an [`edge_set::EdgeProbe`], prefetches the probe's home bucket,
//!   and queries and writes the set with the same probe some switches
//!   later, in one inlined [`ConcurrentEdgeSet::switch_mut`] per switch,
//! * the **dependency table** of `ParallelSuperstep` (Algorithm 1): a
//!   reusable, lock-free map from each packed edge to the one switch erasing
//!   it and the list of switches inserting it, plus one three-state
//!   (undecided / legal / illegal) cell per switch
//!   ([`dep_table::DependencyTable`]).  The parallel pass that registers a
//!   superstep's switches publishes the inserter lists when it joins; the
//!   decision rounds read them only after that join,
//! * an **atomic edge array** so that switches owning disjoint indices can
//!   rewire `E[i]`/`E[j]` from different threads without locks
//!   ([`atomic_edge_list::AtomicEdgeList`]), whose slots the in-order kernel
//!   prefetches ahead of the switches that read them,
//! * the portable **software prefetch** hint of both ([`prefetch`], Sec.
//!   5.4).
//!
//! Both hash tables place a key with one bucket function,
//! [`fibonacci_hash`].
//!
//! All structures are safe Rust; the only (optional) unsafe code is the
//! x86_64 prefetch intrinsic, which is isolated in [`prefetch`].

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomic_edge_list;
pub mod dep_table;
pub mod edge_set;
pub mod prefetch;

pub use atomic_edge_list::AtomicEdgeList;
pub use dep_table::{DependencyTable, SwitchState};
pub use edge_set::{ConcurrentEdgeSet, EdgeProbe, LockOutcome};

/// The bucket function of both hash tables, Fibonacci hashing (Knuth, TAOCP
/// Vol. 3, §6.4): `key × ⌊2^64/φ⌋`, whose top `b` bits are the key's home
/// bucket in a table of `2^b` buckets.  One multiply, portable, where the
/// paper uses the hardware `crc32` instruction; the probe-length tests of
/// both tables check that it spreads the keys they see.
#[inline(always)]
pub fn fibonacci_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_graph::gen::{gnp, havel_hakimi, powerlaw_degree_sequence, PowerlawConfig};
    use gesmc_graph::{Edge, EdgeListGraph};
    use gesmc_randx::permutation::random_permutation;
    use gesmc_randx::rng_from_seed;

    /// Linear probing's mean displacement from the home bucket under uniform
    /// hashing at load `alpha` (Knuth, TAOCP Vol. 3, §6.4).
    fn uniform_displacement(alpha: f64) -> f64 {
        (1.0 / (1.0 - alpha) - 1.0) / 2.0
    }

    /// A star, a path, a grid, a power-law graph (γ = 2.01) and a G(n, p),
    /// each with 20k–33k edges.
    fn graphs() -> [(&'static str, EdgeListGraph); 5] {
        let n = 1 << 15;
        let star = (1..n).map(|v| Edge::new(0, v)).collect();
        let path = (1..n).map(|v| Edge::new(v - 1, v)).collect();
        let side = 1 << 7;
        let grid = (0..side * side)
            .flat_map(|v| {
                let right = (v % side + 1 < side).then(|| Edge::new(v, v + 1));
                let down = (v + side < side * side).then(|| Edge::new(v, v + side));
                right.into_iter().chain(down)
            })
            .collect();
        let mut rng = rng_from_seed(3);
        let degrees = powerlaw_degree_sequence(&mut rng, &PowerlawConfig::paper(1 << 13, 2.01));
        [
            ("star", EdgeListGraph::new(n as usize, star).unwrap()),
            ("path", EdgeListGraph::new(n as usize, path).unwrap()),
            ("grid", EdgeListGraph::new((side * side) as usize, grid).unwrap()),
            ("power law", havel_hakimi(&degrees).unwrap()),
            ("G(n, p)", gnp(&mut rng, 1 << 13, 6.0 / f64::from(1 << 13))),
        ]
    }

    /// Panic unless `mean` is within twice uniform hashing's at `alpha`.
    fn assert_near_uniform(table: &str, graph: &str, mean: f64, alpha: f64) {
        let bound = 2.0 * uniform_displacement(alpha);
        assert!(
            mean <= bound,
            "{table} of the {graph}: mean displacement {mean:.4} at load {alpha:.3}, \
             over twice uniform hashing's ({bound:.4})"
        );
    }

    #[test]
    fn edge_sets_probe_about_as_far_as_under_uniform_hashing() {
        for (name, graph) in graphs() {
            assert!((20_000..=33_000).contains(&graph.num_edges()), "{name}");
            let set = ConcurrentEdgeSet::for_graph(&graph);
            let alpha = set.len() as f64 / set.capacity() as f64;
            assert_near_uniform("edge set", name, set.mean_displacement(), alpha);
        }
    }

    #[test]
    fn dependency_tables_probe_about_as_far_as_under_uniform_hashing() {
        // The table of one global switch: ℓ = ⌊m/2⌋ switches over a random
        // pairing of the slots, in 8ℓ buckets.
        for (name, graph) in graphs() {
            let ell = graph.num_edges() / 2;
            let perm = random_permutation(&mut rng_from_seed(4), graph.num_edges());
            let table = DependencyTable::for_switches(ell);
            for k in 0..ell {
                let (e1, e2) =
                    (graph.edge(perm[2 * k] as usize), graph.edge(perm[2 * k + 1] as usize));
                let ((u, v), (x, y)) = (e1.endpoints(), e2.endpoints());
                let targets = [Edge::new(u, x).pack56(), Edge::new(v, y).pack56()];
                table.register(k as u32, [e1.pack56(), e2.pack56()], targets);
            }
            let (mean, claimed) = table.mean_displacement();
            let alpha = claimed as f64 / table.capacity() as f64;
            assert_near_uniform("dependency table", name, mean, alpha);
        }
    }
}
