//! Havel–Hakimi realisation of a graphical degree sequence.
//!
//! The *SynPld* pipeline (Sec. 6) materialises a sampled degree sequence into
//! an initial simple graph with the deterministic Havel–Hakimi construction
//! and then randomises it with the switching chain.  The classic algorithm
//! repeatedly connects the node of highest residual degree to the next-highest
//! nodes; we implement it with a max-heap using lazy (stale-entry) deletion,
//! which runs in `O((n + m) log n)` and comfortably handles the multi-million
//! edge instances of the benchmark sweeps.

use crate::degree::DegreeSequence;
use crate::edge::{Edge, Node};
use crate::edge_list::EdgeListGraph;

/// Errors reported by [`havel_hakimi`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HavelHakimiError {
    /// The degree sum is odd, so no graph exists.
    OddDegreeSum,
    /// The sequence is not graphical (Erdős–Gallai violated); contains the
    /// node at which the construction got stuck.
    NotGraphical {
        /// Node whose residual degree could not be satisfied.
        node: Node,
    },
}

impl std::fmt::Display for HavelHakimiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HavelHakimiError::OddDegreeSum => write!(f, "degree sum is odd"),
            HavelHakimiError::NotGraphical { node } => {
                write!(f, "sequence is not graphical (stuck at node {node})")
            }
        }
    }
}

impl std::error::Error for HavelHakimiError {}

/// Construct a simple graph realising `seq` with the Havel–Hakimi algorithm.
///
/// Returns an error iff the sequence is not graphical.  Node `i` of the output
/// has degree exactly `seq.degrees()[i]`.
pub fn havel_hakimi(seq: &DegreeSequence) -> Result<EdgeListGraph, HavelHakimiError> {
    let n = seq.len();
    let degrees = seq.degrees();
    if seq.degree_sum() % 2 != 0 {
        return Err(HavelHakimiError::OddDegreeSum);
    }
    if n == 0 {
        return Ok(EdgeListGraph::from_edges_unchecked(0, Vec::new()));
    }
    if degrees.iter().any(|&d| d as usize > n - 1) {
        return Err(HavelHakimiError::NotGraphical { node: 0 });
    }

    // Max-heap of (residual degree, node) with lazy deletion: an entry is
    // stale iff its key no longer equals the node's current residual degree.
    // Keys strictly decrease per node, so freshness is unambiguous.  Ties are
    // broken towards the smaller node id for determinism.  An entry is packed
    // into one `u64`, `residual << 32 | !node`, which orders as
    // `(residual, Reverse(node))` does.
    use std::collections::BinaryHeap;
    let entry = |key: u32, v: Node| u64::from(key) << 32 | u64::from(!v);

    let mut residual: Vec<u32> = degrees.to_vec();
    let mut edges: Vec<Edge> = Vec::with_capacity((seq.degree_sum() / 2) as usize);
    let mut heap: BinaryHeap<u64> = (0..n as Node)
        .filter(|&v| residual[v as usize] > 0)
        .map(|v| entry(residual[v as usize], v))
        .collect();
    let mut scratch: Vec<Node> = Vec::new();

    // Pop the freshest maximum-residual node.
    let pop_fresh = |heap: &mut BinaryHeap<u64>, residual: &[u32]| loop {
        let packed = heap.pop()?;
        let (key, v) = ((packed >> 32) as u32, !(packed as u32));
        if residual[v as usize] == key && key > 0 {
            return Some(v);
        }
    };

    while let Some(v) = pop_fresh(&mut heap, &residual) {
        let need = residual[v as usize] as usize;
        residual[v as usize] = 0;

        // Collect the `need` nodes with the largest residual degrees.
        scratch.clear();
        while scratch.len() < need {
            match pop_fresh(&mut heap, &residual) {
                Some(u) => scratch.push(u),
                None => return Err(HavelHakimiError::NotGraphical { node: v }),
            }
        }
        for &u in &scratch {
            debug_assert!(residual[u as usize] > 0);
            edges.push(Edge::new(v, u));
            residual[u as usize] -= 1;
            if residual[u as usize] > 0 {
                heap.push(entry(residual[u as usize], u));
            }
        }
    }

    let graph = EdgeListGraph::from_edges_unchecked(n, edges);
    debug_assert_eq!(graph.degrees().degrees(), degrees);
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realises_simple_sequences() {
        for degrees in [
            vec![2u32, 2, 2],    // triangle
            vec![1, 1],          // single edge
            vec![3, 1, 1, 1],    // star
            vec![2, 2, 2, 2],    // cycle
            vec![4, 4, 4, 4, 4], // K5
            vec![0, 0, 0],       // empty
            vec![3, 3, 2, 2, 2], // mixed
        ] {
            let seq = DegreeSequence::new(degrees.clone());
            let g = havel_hakimi(&seq).expect("graphical");
            assert!(g.validate().is_ok());
            assert_eq!(g.degrees().degrees(), &degrees[..]);
        }
    }

    #[test]
    fn rejects_odd_sum() {
        let seq = DegreeSequence::new(vec![2, 1]);
        assert_eq!(havel_hakimi(&seq), Err(HavelHakimiError::OddDegreeSum));
    }

    #[test]
    fn rejects_non_graphical() {
        let seq = DegreeSequence::new(vec![3, 3, 1, 1]);
        assert!(matches!(havel_hakimi(&seq), Err(HavelHakimiError::NotGraphical { .. })));
        let seq = DegreeSequence::new(vec![4, 1, 1, 1, 1, 0]);
        assert!(havel_hakimi(&seq).is_ok(), "this one is graphical");
        let seq = DegreeSequence::new(vec![5, 1, 1, 1]);
        assert!(matches!(havel_hakimi(&seq), Err(HavelHakimiError::NotGraphical { .. })));
    }

    #[test]
    fn empty_sequence() {
        let g = havel_hakimi(&DegreeSequence::new(vec![])).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn agrees_with_erdos_gallai_on_random_sequences() {
        use gesmc_randx::rng_from_seed;
        use rand::Rng as _;
        let mut rng = rng_from_seed(55);
        let mut graphical = 0;
        for _ in 0..300 {
            let n = rng.gen_range(1..20usize);
            let degrees: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32)).collect();
            let seq = DegreeSequence::new(degrees);
            let eg = seq.is_graphical();
            let hh = havel_hakimi(&seq).is_ok();
            assert_eq!(eg, hh, "disagreement on {:?}", seq.degrees());
            graphical += eg as u32;
        }
        assert!(graphical > 0, "test should see at least one graphical sequence");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn havel_hakimi_iff_erdos_gallai(degrees in proptest::collection::vec(0u32..10, 1..20)) {
            let seq = DegreeSequence::new(degrees);
            let eg = seq.is_graphical();
            match havel_hakimi(&seq) {
                Ok(g) => {
                    prop_assert!(eg);
                    prop_assert!(g.validate().is_ok());
                    let realized = g.degrees();
                    prop_assert_eq!(realized.degrees(), seq.degrees());
                }
                Err(_) => prop_assert!(!eg),
            }
        }
    }
}
