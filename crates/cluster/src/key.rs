//! The cluster key: what the ring shards, and the canonical generator-spec
//! grammar both sides of the wire fingerprint.
//!
//! The warm sample cache is keyed by `(graph fingerprint, canonical chain
//! slug, supersteps)`; the cluster shards exactly that key space, so a
//! node's cache holds precisely the keys the ring assigns it.  [`SampleKey`]
//! carries the triple and [`SampleKey::ring_hash`] maps it onto the ring via
//! the workspace's shared FNV-1a — any two processes (a serve node deciding
//! whether to forward, a client picking an endpoint) compute the same owner.
//!
//! [`canonical_graph_spec`] is the single implementation of the compact
//! generator grammar `family[:key=value,…]` used by `GET /v1/sample?graph=…`.
//! Canonicalisation (defaults filled in, keys sorted) is what makes the
//! fingerprint stable across equivalent spellings; the server and the client
//! SDK both call this function, so they can never canonicalise differently.

use gesmc_randx::{fnv1a_64, Fnv1a64};

/// The `(graph fingerprint, chain slug, supersteps)` triple identifying one
/// cacheable sample — the unit of cluster sharding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SampleKey {
    /// FNV-1a fingerprint of the canonical graph spec (or of the graph
    /// bytes, for inline graphs).
    pub fingerprint: u64,
    /// Canonical chain slug (`ChainSpec::slug`).
    pub chain_slug: String,
    /// Superstep count the sample is taken after.
    pub supersteps: u64,
}

impl SampleKey {
    /// Assemble a key from its components.
    pub fn new(fingerprint: u64, chain_slug: impl Into<String>, supersteps: u64) -> Self {
        Self { fingerprint, chain_slug: chain_slug.into(), supersteps }
    }

    /// The key's position on the consistent-hash ring: FNV-1a over the
    /// fingerprint bytes, the slug, and the superstep bytes, in that order
    /// with `0xFF` separators (no valid UTF-8 slug contains `0xFF`, so
    /// distinct triples never collide by concatenation), diffused through
    /// the splitmix64 finalizer — related keys (same graph, consecutive
    /// superstep counts) must not land on adjacent ring positions.
    pub fn ring_hash(&self) -> u64 {
        let mut hasher = Fnv1a64::new();
        hasher.write(&self.fingerprint.to_le_bytes());
        hasher.write(&[0xFF]);
        hasher.write(self.chain_slug.as_bytes());
        hasher.write(&[0xFF]);
        hasher.write(&self.supersteps.to_le_bytes());
        gesmc_randx::mix64(hasher.finish())
    }
}

/// The parsed parameters of a canonical generator spec.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphParams {
    /// Generator family name (validated against the registry by the server,
    /// not here — the grammar is family-agnostic).
    pub family: String,
    /// Node count (`n`), `0` meaning the family default.
    pub nodes: usize,
    /// Edge count (`m`).
    pub edges: usize,
    /// Power-law exponent (`gamma`), used by the pld family.
    pub gamma: f64,
    /// Generator seed.
    pub seed: u64,
}

impl GraphParams {
    /// The canonical spelling: defaults filled in, keys in sorted order.
    /// Equal specs (under reordering and defaulting) canonicalise equally,
    /// which is what keys the fingerprint.
    pub fn canonical(&self) -> String {
        format!(
            "{}:gamma={},m={},n={},seed={}",
            self.family, self.gamma, self.edges, self.nodes, self.seed
        )
    }

    /// FNV-1a fingerprint of the canonical spelling.
    pub fn fingerprint(&self) -> u64 {
        fnv1a_64(self.canonical().as_bytes())
    }
}

/// The service's limit on a power-law exponent: above 1 (the pld generator
/// needs it) and at most 10.  Callers prefix the error with the field name.
pub fn check_service_gamma(gamma: f64) -> Result<(), String> {
    if gamma > 1.0 && gamma <= 10.0 {
        Ok(())
    } else {
        Err(format!("must lie in (1, 10], got {gamma}"))
    }
}

/// Parse the compact generator grammar `family[:key=value,…]` with keys
/// `n` (nodes), `m` (edges), `gamma`, `seed` — e.g. `pld:m=2000,gamma=2.5`.
/// Family names are not validated here (the server checks membership against
/// its registry); the grammar and defaults are.
pub fn canonical_graph_spec(raw: &str) -> Result<GraphParams, String> {
    let (family, params_raw) = match raw.split_once(':') {
        Some((f, p)) => (f, p),
        None => (raw, ""),
    };
    if family.is_empty() {
        return Err("graph spec needs a family name (e.g. pld:m=2000)".to_string());
    }
    let mut nodes = 0usize;
    let mut edges = 1_000usize;
    let mut gamma = 2.5f64;
    let mut seed = 1u64;
    for part in params_raw.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("malformed graph parameter {part:?} (expected key=value)"))?;
        let bad = |what: &str| format!("graph parameter {key}={value:?} is not a valid {what}");
        match key {
            "n" => nodes = value.parse().map_err(|_| bad("node count"))?,
            "m" => edges = value.parse().map_err(|_| bad("edge count"))?,
            "gamma" => {
                gamma = value.parse().map_err(|_| bad("exponent"))?;
                check_service_gamma(gamma).map_err(|e| format!("gamma {e}"))?;
            }
            "seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            other => {
                return Err(format!(
                    "unknown graph parameter {other:?} (expected n, m, gamma, or seed)"
                ))
            }
        }
    }
    if edges == 0 {
        return Err("graph parameter m must be positive".to_string());
    }
    Ok(GraphParams { family: family.to_string(), nodes, edges, gamma, seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalisation_is_order_and_default_insensitive() {
        let a = canonical_graph_spec("gnp:m=100,seed=2").unwrap();
        let b = canonical_graph_spec("gnp:seed=2,m=100").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            canonical_graph_spec("gnp").unwrap().canonical(),
            "gnp:gamma=2.5,m=1000,n=0,seed=1"
        );
        let c = canonical_graph_spec("gnp:m=100,seed=3").unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn grammar_errors_are_reported() {
        for (raw, needle) in [
            ("", "family name"),
            ("gnp:m", "malformed graph parameter"),
            ("gnp:m=zebra", "not a valid edge count"),
            ("gnp:weird=1", "unknown graph parameter"),
            ("gnp:m=0", "must be positive"),
            ("pld:gamma=0.5", "gamma must lie"),
        ] {
            let err = canonical_graph_spec(raw).unwrap_err();
            assert!(err.contains(needle), "{raw}: {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn ring_hash_separates_key_components() {
        let base = SampleKey::new(7, "seq-es", 10);
        assert_eq!(base.ring_hash(), base.clone().ring_hash());
        assert_ne!(base.ring_hash(), SampleKey::new(8, "seq-es", 10).ring_hash());
        assert_ne!(base.ring_hash(), SampleKey::new(7, "par-es", 10).ring_hash());
        assert_ne!(base.ring_hash(), SampleKey::new(7, "seq-es", 11).ring_hash());
    }
}
