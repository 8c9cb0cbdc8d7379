//! The edge switch primitive (Def. 1 of the paper).
//!
//! An edge switch is described by two edge indices `i ≠ j` and a direction
//! bit `g`.  With the canonical orientations `⃗e₁ = (u, v)` and `⃗e₂ = (x, y)`
//! (smaller endpoint first), the target edges are
//!
//! ```text
//! τ((u,v), (x,y), 0) = ((u,x), (v,y))
//! τ((u,v), (x,y), 1) = ((u,y), (v,x))
//! ```
//!
//! The switch is *legal* iff neither target is a self-loop and neither target
//! already exists in the graph; only then are `E[i] ← e₃` and `E[j] ← e₄`
//! rewired.  Degrees are preserved in either case.

use gesmc_graph::Edge;
use gesmc_randx::bounded::UniformIndex;
use gesmc_randx::Rng;
use rand::Rng as _;

/// A requested edge switch `σ = (i, j, g)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRequest {
    /// Index of the first source edge in the edge array.
    pub i: usize,
    /// Index of the second source edge in the edge array.
    pub j: usize,
    /// Direction bit selecting which target pairing `τ` produces.
    pub g: bool,
}

impl SwitchRequest {
    /// Construct a request; `i` and `j` must differ.
    pub fn new(i: usize, j: usize, g: bool) -> Self {
        debug_assert_ne!(i, j, "an edge switch needs two distinct edge indices");
        Self { i, j, g }
    }

    /// Draw one uniformly random ES-MC switch: the slot pair from `sampler`
    /// (over the `m` slots of the edge array), then the direction bit.
    ///
    /// Every ES-MC chain draws its switches here, in this order, so that
    /// `seq-es`, `par-es`, `seq-es-ext` and `adjacency-es` follow one random
    /// stream per seed.
    #[inline]
    pub fn sample(sampler: &UniformIndex, rng: &mut Rng) -> Self {
        let (i, j) = sampler.sample_distinct_pair(rng);
        Self::new(i as usize, j as usize, rng.gen())
    }
}

/// Compute the target edges `(e₃, e₄) = τ(⃗e₁, ⃗e₂, g)` from the canonical
/// orientations of the source edges.
///
/// The targets may be self-loops or duplicates of existing edges; deciding
/// legality is the caller's responsibility.
#[inline]
pub fn switch_targets(e1: Edge, e2: Edge, g: bool) -> (Edge, Edge) {
    let (u, v) = e1.endpoints();
    let (x, y) = e2.endpoints();
    if !g {
        (Edge::new(u, x), Edge::new(v, y))
    } else {
        (Edge::new(u, y), Edge::new(v, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_matches_definition() {
        // e1 = {1,2} -> (1,2), e2 = {3,4} -> (3,4)
        let e1 = Edge::new(2, 1);
        let e2 = Edge::new(3, 4);
        assert_eq!(switch_targets(e1, e2, false), (Edge::new(1, 3), Edge::new(2, 4)));
        assert_eq!(switch_targets(e1, e2, true), (Edge::new(1, 4), Edge::new(2, 3)));
    }

    #[test]
    fn tau_preserves_degrees() {
        // Every node keeps exactly the same number of endpoints among targets.
        let e1 = Edge::new(0, 5);
        let e2 = Edge::new(3, 7);
        for g in [false, true] {
            let (t1, t2) = switch_targets(e1, e2, g);
            let mut before = vec![e1.u(), e1.v(), e2.u(), e2.v()];
            let mut after = vec![t1.u(), t1.v(), t2.u(), t2.v()];
            before.sort_unstable();
            after.sort_unstable();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn tau_can_produce_loops() {
        // Sharing a node produces a loop for one of the direction bits.
        let e1 = Edge::new(1, 2);
        let e2 = Edge::new(2, 3);
        let (t1, t2) = switch_targets(e1, e2, true); // ((1,3),(2,2))
        assert_eq!(t1, Edge::new(1, 3));
        assert!(t2.is_loop());
        let (t1, t2) = switch_targets(e1, e2, false); // ((1,2),(2,3)) = original edges
        assert_eq!(t1, e1);
        assert_eq!(t2, e2);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn request_with_equal_indices_panics_in_debug() {
        let _ = SwitchRequest::new(3, 3, false);
    }
}
