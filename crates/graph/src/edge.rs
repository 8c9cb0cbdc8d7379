//! Undirected edges and their packed integer encoding.
//!
//! Following Sec. 5.2 of the paper, every possible simple undirected edge
//! `{u, v}` with `u < v` is identified by a unique 64-bit integer whose upper
//! 32 bits hold the smaller endpoint and whose lower 32 bits hold the larger
//! endpoint.  Hash sets and dependency tables operate exclusively on these
//! packed identifiers.
//!
//! The concurrent edge set additionally reserves the top 8 bits of a bucket
//! for lock/owner information, which restricts nodes to 28 bits each when the
//! locking representation is in use (exactly the `n ≤ 2^28` restriction the
//! paper describes).  [`Edge::pack56`] provides that narrower encoding.

use std::fmt;

/// Node identifier.  The paper stores nodes as 32-bit integers; so do we.
pub type Node = u32;

/// A packed undirected edge: `(min << 32) | max`.
pub type PackedEdge = u64;

/// Maximum node id representable in the 56-bit (lockable) encoding.
pub const MAX_NODE_56: Node = (1 << 28) - 1;

/// An undirected edge in canonical orientation (`u <= v` is *not* required at
/// construction, but the canonical accessor always reports the smaller node
/// first).
///
/// Self-loops (`u == v`) are representable — the Markov chains must be able to
/// talk about them in order to *reject* them — but [`Edge::is_loop`] flags
/// them and no simple graph ever stores one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    u: Node,
    v: Node,
}

impl Edge {
    /// Create an edge from two endpoints; stores the canonical orientation.
    #[inline]
    pub fn new(a: Node, b: Node) -> Self {
        if a <= b {
            Self { u: a, v: b }
        } else {
            Self { u: b, v: a }
        }
    }

    /// The smaller endpoint.
    #[inline]
    pub fn u(&self) -> Node {
        self.u
    }

    /// The larger endpoint.
    #[inline]
    pub fn v(&self) -> Node {
        self.v
    }

    /// Both endpoints as a `(min, max)` tuple.
    #[inline]
    pub fn endpoints(&self) -> (Node, Node) {
        (self.u, self.v)
    }

    /// Whether this edge is a self-loop.
    #[inline]
    pub fn is_loop(&self) -> bool {
        self.u == self.v
    }

    /// Whether `x` is an endpoint of this edge.
    #[inline]
    pub fn is_incident(&self, x: Node) -> bool {
        self.u == x || self.v == x
    }

    /// The endpoint different from `x`, if `x` is an endpoint.
    #[inline]
    pub fn other(&self, x: Node) -> Option<Node> {
        if x == self.u {
            Some(self.v)
        } else if x == self.v {
            Some(self.u)
        } else {
            None
        }
    }

    /// Pack into the canonical 64-bit identifier `(min << 32) | max`.
    #[inline]
    pub fn pack(&self) -> PackedEdge {
        ((self.u as u64) << 32) | self.v as u64
    }

    /// Unpack a 64-bit identifier produced by [`Edge::pack`].
    #[inline]
    pub fn unpack(packed: PackedEdge) -> Self {
        Self { u: (packed >> 32) as Node, v: (packed & 0xFFFF_FFFF) as Node }
    }

    /// Pack into the 56-bit identifier used by the lockable concurrent set:
    /// `(min << 28) | max`, requiring both nodes to fit in 28 bits.
    ///
    /// # Panics
    /// Panics (in debug builds) if an endpoint exceeds [`MAX_NODE_56`].
    #[inline]
    pub fn pack56(&self) -> u64 {
        debug_assert!(self.v <= MAX_NODE_56, "node id exceeds 28-bit range for lockable encoding");
        ((self.u as u64) << 28) | self.v as u64
    }

    /// Unpack a 56-bit identifier produced by [`Edge::pack56`].
    #[inline]
    pub fn unpack56(packed: u64) -> Self {
        Self { u: ((packed >> 28) & 0x0FFF_FFFF) as Node, v: (packed & 0x0FFF_FFFF) as Node }
    }

    /// The 8-byte record of the binary formats (`GESMCEL1` edge lists and
    /// `GESMCKP1` checkpoints): `u32 u, u32 v`, little-endian.
    #[inline]
    pub fn to_le_bytes(self) -> [u8; 8] {
        (u64::from(self.v) << 32 | u64::from(self.u)).to_le_bytes()
    }

    /// Decode a record of [`Edge::to_le_bytes`] through [`Edge::new`], so
    /// either orientation reads as the canonical edge.
    #[inline]
    pub fn from_le_bytes(record: [u8; 8]) -> Self {
        let word = u64::from_le_bytes(record);
        Self::new(word as Node, (word >> 32) as Node)
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.u, self.v)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.u, self.v)
    }
}

impl From<(Node, Node)> for Edge {
    fn from((a, b): (Node, Node)) -> Self {
        Edge::new(a, b)
    }
}

/// A *directed representation* of an edge, used while computing the target
/// edges of a switch (the `τ` function of Def. 1 distinguishes the two
/// orientations of each source edge).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DirectedEdge {
    /// Tail of the arc.
    pub tail: Node,
    /// Head of the arc.
    pub head: Node,
}

impl DirectedEdge {
    /// Construct a directed edge.
    #[inline]
    pub fn new(tail: Node, head: Node) -> Self {
        Self { tail, head }
    }

    /// Canonical orientation of an undirected edge: smaller node first.
    #[inline]
    pub fn canonical(e: Edge) -> Self {
        Self { tail: e.u(), head: e.v() }
    }

    /// Forget the orientation.
    #[inline]
    pub fn undirected(&self) -> Edge {
        Edge::new(self.tail, self.head)
    }

    /// Reverse the orientation.
    #[inline]
    pub fn reversed(&self) -> Self {
        Self { tail: self.head, head: self.tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_orientation() {
        let e = Edge::new(7, 3);
        assert_eq!(e.u(), 3);
        assert_eq!(e.v(), 7);
        assert_eq!(e, Edge::new(3, 7));
    }

    #[test]
    fn pack_roundtrip() {
        for (a, b) in [(0, 0), (0, 1), (5, 3), (u32::MAX, 0), (123456, 654321)] {
            let e = Edge::new(a, b);
            assert_eq!(Edge::unpack(e.pack()), e);
        }
    }

    #[test]
    fn record_is_u_then_v_little_endian() {
        let e = Edge::new(0x0102_0304, 7);
        assert_eq!(e.to_le_bytes(), [7, 0, 0, 0, 4, 3, 2, 1]);
        assert_eq!(Edge::from_le_bytes(e.to_le_bytes()), e);
        assert_eq!(Edge::from_le_bytes([4, 3, 2, 1, 7, 0, 0, 0]), e, "either orientation");
    }

    #[test]
    fn pack_is_injective_and_ordered() {
        let e1 = Edge::new(1, 2);
        let e2 = Edge::new(1, 3);
        let e3 = Edge::new(2, 3);
        assert!(e1.pack() < e2.pack());
        assert!(e2.pack() < e3.pack());
    }

    #[test]
    fn pack56_roundtrip() {
        for (a, b) in [(0, 0), (0, 1), (5, 3), (MAX_NODE_56, 0), (1 << 20, 1 << 27)] {
            let e = Edge::new(a, b);
            assert_eq!(Edge::unpack56(e.pack56()), e);
            assert!(e.pack56() < (1 << 56));
        }
    }

    #[test]
    fn loop_detection() {
        assert!(Edge::new(4, 4).is_loop());
        assert!(!Edge::new(4, 5).is_loop());
    }

    #[test]
    fn incidence_and_other() {
        let e = Edge::new(2, 9);
        assert!(e.is_incident(2) && e.is_incident(9));
        assert!(!e.is_incident(3));
        assert_eq!(e.other(2), Some(9));
        assert_eq!(e.other(9), Some(2));
        assert_eq!(e.other(1), None);
    }

    #[test]
    fn directed_edge_roundtrip() {
        let d = DirectedEdge::new(9, 2);
        assert_eq!(d.undirected(), Edge::new(2, 9));
        assert_eq!(d.reversed(), DirectedEdge::new(2, 9));
        assert_eq!(DirectedEdge::canonical(Edge::new(9, 2)), DirectedEdge::new(2, 9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn pack_unpack_roundtrip(a in any::<u32>(), b in any::<u32>()) {
            let e = Edge::new(a, b);
            prop_assert_eq!(Edge::unpack(e.pack()), e);
        }

        #[test]
        fn pack56_roundtrip_small(a in 0u32..(1 << 28), b in 0u32..(1 << 28)) {
            let e = Edge::new(a, b);
            prop_assert_eq!(Edge::unpack56(e.pack56()), e);
        }

        #[test]
        fn pack_order_independent(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(Edge::new(a, b).pack(), Edge::new(b, a).pack());
        }
    }
}
