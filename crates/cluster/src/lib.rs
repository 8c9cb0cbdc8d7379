//! `gesmc-cluster` — consistent-hash sharding for the sampling service.
//!
//! A single `gesmc serve` process is bounded by one machine.  This crate
//! holds the pieces that turn N serve processes into one sharded cluster,
//! shared by the server side (`gesmc-serve` forwarding) and the client side
//! (`gesmc-client` routing) so both always agree on who owns a key:
//!
//! * [`ring`] — the consistent-hash ring: FNV-1a over virtual nodes
//!   (64 per physical node by default), so adding or removing one node
//!   remaps only that node's share of the key space;
//! * [`key`] — the cluster key: the same `(graph fingerprint, chain slug,
//!   supersteps)` triple that keys the warm sample cache, hashed with the
//!   workspace's shared FNV-1a, plus the canonical generator-spec grammar
//!   both sides fingerprint;
//! * [`health`] — per-peer health: consecutive-failure ejection and timed
//!   probe re-admission, clock-injected so transitions are unit-testable
//!   without sleeping;
//! * [`wire`] — a minimal HTTP/1.1 client codec (request writer + response
//!   reader) over `std::net`, the peer-to-peer and SDK transport.
//!
//! The load-bearing invariant making all of this safe: sample seeds are
//! derived from the cache key, so **any** node computes bit-identical bytes
//! for a key.  Forwarding to the owner is purely a cache-locality
//! optimisation — when the owner is down, handling the key locally is
//! exactly as correct.
//!
//! ```
//! use gesmc_cluster::{HashRing, SampleKey};
//!
//! let ring = HashRing::new(["10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"]).unwrap();
//! let key = SampleKey::new(0xfeed_beef, "par-global-es", 20);
//! let owner = ring.owner(key.ring_hash());
//! assert!(ring.nodes().iter().any(|n| n == owner));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod key;
pub mod ring;
pub mod wire;

pub use health::{HealthPolicy, HealthTracker, PeerStatus};
pub use key::{canonical_graph_spec, check_service_gamma, GraphParams, SampleKey};
pub use ring::{HashRing, RingError, DEFAULT_VNODES};
pub use wire::{request, request_with_timeouts, WireError, WireResponse};
