//! `ChainRegistry` — an open, name-keyed registry of switching chains.
//!
//! Every layer that selects an algorithm by name (the engine's job specs and
//! checkpoints, study sweeps, the CLI) goes through a registry instead of a
//! closed enum: a [`ChainRegistry`] maps kebab-case names to [`ChainInfo`]
//! descriptors, each carrying the chain's factory, its accepted parameters,
//! and its capabilities (exact? parallel? snapshot-capable?).  Adding a chain
//! anywhere in the stack is therefore one [`ChainRegistry::register`] call —
//! no engine, manifest, or CLI change required.
//!
//! [`ChainRegistry::with_core_chains`] pre-populates the five chains of this
//! crate; `gesmc_baselines::register_baselines` adds the baselines, and
//! `gesmc_engine::default_registry()` exposes the combined default set.
//!
//! ```
//! use gesmc_core::{ChainRegistry, ChainSpec};
//! use gesmc_graph::gen::gnp;
//! use gesmc_randx::rng_from_seed;
//!
//! let registry = ChainRegistry::with_core_chains();
//! let spec = ChainSpec::parse("par-global-es?pl=0.001").unwrap();
//! let graph = gnp(&mut rng_from_seed(1), 100, 0.05);
//! let degrees = graph.degrees();
//!
//! let mut chain = registry.build(&spec, graph, 42).unwrap();
//! chain.run_supersteps(5);
//! assert_eq!(chain.graph().degrees(), degrees);
//! ```

use crate::chain::{EdgeSwitching, SwitchingConfig};
use crate::spec::{ChainError, ChainSpec, ParamValue, PARAM_LOOP_PROBABILITY, PARAM_PREFETCH};
use crate::{NaiveParES, ParES, ParGlobalES, SeqES, SeqGlobalES};
use gesmc_concurrent::ConcurrentEdgeSet;
use gesmc_graph::{EdgeListGraph, EdgeStore};
use std::collections::HashMap;

/// The factory signature of a registered chain: build a boxed chain
/// randomising `graph` under `config`.
///
/// The full [`ChainSpec`] is passed through so chains with parameters beyond
/// the common `pl`/`prefetch` pair (already folded into the
/// [`SwitchingConfig`]) can read them; the spec's parameters were validated
/// against the chain's [`ChainInfo::params`] before the factory runs.
pub type ChainFactory = fn(
    EdgeListGraph,
    SwitchingConfig,
    &ChainSpec,
) -> Result<Box<dyn EdgeSwitching + Send>, ChainError>;

/// The factory signature of a chain that can run over any
/// [`EdgeStore`] backend (in-memory or external) — the capability behind
/// `--mmap` out-of-core execution.  It builds the same [`EdgeSwitching`]
/// chain as a [`ChainFactory`], over `store` instead of a graph.
///
/// Registered *in addition to* a chain's ordinary [`ChainFactory`] via
/// [`ChainRegistry::register_store_factory`], so the engine's out-of-core jobs
/// resolve it through the registry like everything else — no chain-specific
/// engine code.
pub type StoreChainFactory = fn(
    Box<dyn EdgeStore + Send>,
    SwitchingConfig,
    &ChainSpec,
) -> Result<Box<dyn EdgeSwitching + Send>, ChainError>;

/// The type of a chain parameter (see [`ParamInfo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// `true` / `false` (also `on` / `off` in string specs).
    Bool,
    /// An integer.
    Int,
    /// A floating-point number (integer literals coerce).
    Float,
}

impl ParamKind {
    /// Human-readable name (`bool`, `int`, `float`).
    pub fn name(&self) -> &'static str {
        match self {
            ParamKind::Bool => "bool",
            ParamKind::Int => "int",
            ParamKind::Float => "float",
        }
    }

    /// Whether `value` is acceptable for this kind.
    fn accepts(&self, value: &ParamValue) -> bool {
        match self {
            ParamKind::Bool => matches!(value, ParamValue::Bool(_)),
            ParamKind::Int => matches!(value, ParamValue::Int(_)),
            ParamKind::Float => matches!(value, ParamValue::Int(_) | ParamValue::Float(_)),
        }
    }
}

/// One parameter a chain accepts: name, type, rendered default, and a short
/// description (surfaced by `gesmc algorithms`).
#[derive(Debug, Clone, Copy)]
pub struct ParamInfo {
    /// Parameter name as it appears in specs (e.g. `pl`).
    pub name: &'static str,
    /// Value type.
    pub kind: ParamKind,
    /// The default, rendered for display (e.g. `0.01`).
    pub default: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

/// The common parameters every chain accepts: they configure the
/// [`SwitchingConfig`] each factory receives.  Chains that ignore one of them
/// say so in their summary / the parameter doc.
pub const COMMON_PARAMS: &[ParamInfo] = &[
    ParamInfo {
        name: PARAM_LOOP_PROBABILITY,
        kind: ParamKind::Float,
        default: "0.01",
        doc: "per-switch rejection probability P_L in [0, 1) (G-ES-MC chains; \
              ES-MC-style chains accept and ignore it)",
    },
    ParamInfo {
        name: PARAM_PREFETCH,
        kind: ParamKind::Bool,
        default: "true",
        doc: "software-prefetch pipeline of the in-order kernel of seq-es, seq-global-es, \
              par-es and par-global-es (Sec. 5.4; same bytes either way; other chains accept \
              and ignore it)",
    },
];

/// Everything the registry knows about one chain.
#[derive(Debug, Clone)]
pub struct ChainInfo {
    /// Registry name (kebab-case, e.g. `par-global-es`) — the spelling of
    /// [`ChainSpec::name`], CLI flags, manifests, and study specs.
    pub name: &'static str,
    /// The [`EdgeSwitching::name`] of built chains (e.g. `ParGlobalES`) —
    /// the spelling `GESMCKP1` checkpoint headers record.
    pub chain_name: &'static str,
    /// Alternative registry names that resolve to this chain.
    pub aliases: &'static [&'static str],
    /// One-line description.
    pub summary: &'static str,
    /// Whether the chain has the correct (uniform) stationary distribution;
    /// `false` for deliberately inexact baselines such as `naive-par-es`.
    pub exact: bool,
    /// Whether a superstep runs on multiple rayon threads.
    pub parallel: bool,
    /// Whether the chain supports [`EdgeSwitching::snapshot`]/`restore`
    /// (i.e. can be checkpointed and resumed).
    pub snapshot: bool,
    /// The parameters the chain accepts.
    pub params: &'static [ParamInfo],
    /// The factory building the chain.
    pub factory: ChainFactory,
}

impl ChainInfo {
    /// Look an accepted parameter up by name.
    pub fn param(&self, name: &str) -> Option<&ParamInfo> {
        self.params.iter().find(|p| p.name == name)
    }
}

/// An open registry mapping chain names to factories.
///
/// Lookups resolve the primary [`ChainInfo::name`], any alias, and the
/// [`ChainInfo::chain_name`] (so checkpoint headers resolve too); listings
/// iterate in registration order.
#[derive(Debug, Clone, Default)]
pub struct ChainRegistry {
    infos: Vec<ChainInfo>,
    /// Every resolvable spelling → index into `infos`.
    index: HashMap<&'static str, usize>,
    /// Chains that can additionally run over any [`EdgeStore`] backend:
    /// index into `infos` → store-aware factory.
    store_factories: HashMap<usize, StoreChainFactory>,
}

impl ChainRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-populated with the five chains of this crate
    /// (`seq-es`, `seq-global-es`, `par-es`, `par-global-es`,
    /// `naive-par-es`).
    pub fn with_core_chains() -> Self {
        let mut registry = Self::new();
        for info in core_chain_infos() {
            registry.register(info);
        }
        registry
    }

    /// Register a chain.
    ///
    /// # Panics
    ///
    /// If any of the chain's spellings (name, aliases, chain name) is already
    /// taken — duplicate registration is a programming error, not an input
    /// error.
    pub fn register(&mut self, info: ChainInfo) {
        let index = self.infos.len();
        let mut spellings = vec![info.name, info.chain_name];
        spellings.extend_from_slice(info.aliases);
        for spelling in spellings {
            if let Some(&taken) = self.index.get(spelling) {
                if taken != index {
                    panic!(
                        "chain name {spelling:?} already registered by {:?}",
                        self.infos[taken].name
                    );
                }
            }
            self.index.insert(spelling, index);
        }
        self.infos.push(info);
    }

    /// The registered chains, in registration order.
    pub fn infos(&self) -> impl Iterator<Item = &ChainInfo> {
        self.infos.iter()
    }

    /// Number of registered chains.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether no chain is registered.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// The primary names of every registered chain, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.infos.iter().map(|i| i.name).collect()
    }

    /// Look a chain up by any spelling (primary name, alias, or chain name).
    pub fn get(&self, name: &str) -> Option<&ChainInfo> {
        self.index.get(name).map(|&i| &self.infos[i])
    }

    /// Like [`ChainRegistry::get`], with a [`ChainError::UnknownChain`]
    /// listing every known chain on failure.
    pub fn resolve(&self, name: &str) -> Result<&ChainInfo, ChainError> {
        self.get(name).ok_or_else(|| ChainError::UnknownChain {
            name: name.to_string(),
            known: self.names().iter().map(|n| n.to_string()).collect(),
        })
    }

    /// Resolve `spec` and validate its parameters against the chain's
    /// declared [`ChainInfo::params`] (existence, type, and the common
    /// parameters' value ranges).  Returns the resolved descriptor.
    pub fn validate(&self, spec: &ChainSpec) -> Result<&ChainInfo, ChainError> {
        let info = self.resolve(&spec.name)?;
        for (key, value) in &spec.params {
            let param = info.param(key).ok_or_else(|| ChainError::UnknownParam {
                chain: info.name.to_string(),
                param: key.clone(),
                accepted: info.params.iter().map(|p| p.name.to_string()).collect(),
            })?;
            if !param.kind.accepts(value) {
                return Err(ChainError::BadParam {
                    chain: info.name.to_string(),
                    param: key.clone(),
                    message: format!("expected a {}, got {value}", param.kind.name()),
                });
            }
        }
        // Range-check the common parameters (P_L ∈ [0, 1)) without building.
        spec.switching_config(0)?;
        Ok(info)
    }

    /// Validate `spec` and build the chain randomising `graph`, seeding its
    /// pseudo-random stream with `seed`.
    pub fn build(
        &self,
        spec: &ChainSpec,
        graph: EdgeListGraph,
        seed: u64,
    ) -> Result<Box<dyn EdgeSwitching + Send>, ChainError> {
        self.validate(spec)?;
        self.build_with_config(spec, graph, spec.switching_config(seed)?)
    }

    /// Build a chain from an explicit [`SwitchingConfig`], bypassing
    /// parameter validation — the resume path, where the configuration and
    /// the spec come from a trusted checkpoint rather than user input.
    /// `spec.name` may be any resolvable spelling (checkpoint headers use
    /// the chain name); the spec's parameters are passed through to the
    /// factory, so chain-specific parameters survive a resume.
    pub fn build_with_config(
        &self,
        spec: &ChainSpec,
        graph: EdgeListGraph,
        config: SwitchingConfig,
    ) -> Result<Box<dyn EdgeSwitching + Send>, ChainError> {
        let info = self.resolve(&spec.name)?;
        (info.factory)(graph, config, spec)
    }

    /// Additionally register a store-aware factory for an already-registered
    /// chain, making it selectable for out-of-core (`--mmap`) execution.
    ///
    /// # Panics
    ///
    /// If `name` does not resolve, or the chain already has a store factory —
    /// both are programming errors, like duplicate [`ChainRegistry::register`]
    /// calls.
    pub fn register_store_factory(&mut self, name: &str, factory: StoreChainFactory) {
        let index = *self
            .index
            .get(name)
            .unwrap_or_else(|| panic!("store factory for unregistered chain {name:?}"));
        if self.store_factories.insert(index, factory).is_some() {
            panic!("chain {:?} already has a store factory", self.infos[index].name);
        }
    }

    /// The store-aware factory of a chain, if it registered one (resolves
    /// every spelling, like [`ChainRegistry::get`]).
    pub fn store_factory(&self, name: &str) -> Option<StoreChainFactory> {
        let index = *self.index.get(name)?;
        self.store_factories.get(&index).copied()
    }

    /// Primary names of the chains that can run over an external
    /// [`EdgeStore`], in registration order (surfaced by `--mmap` error
    /// messages and `gesmc algorithms`).
    pub fn store_capable_names(&self) -> Vec<&'static str> {
        (0..self.infos.len())
            .filter(|i| self.store_factories.contains_key(i))
            .map(|i| self.infos[i].name)
            .collect()
    }

    /// Validate `spec` and build the store-aware chain over `store`, seeding
    /// its pseudo-random stream with `seed`.  Fails with
    /// [`ChainError::BadParam`] naming the store-capable chains when the
    /// chain has no store factory.
    pub fn build_store(
        &self,
        spec: &ChainSpec,
        store: Box<dyn EdgeStore + Send>,
        seed: u64,
    ) -> Result<Box<dyn EdgeSwitching + Send>, ChainError> {
        self.validate(spec)?;
        let config = spec.switching_config(seed)?;
        self.build_store_with_config(spec, store, config)
    }

    /// Build a store-aware chain from an explicit [`SwitchingConfig`],
    /// bypassing parameter validation (the resume path; see
    /// [`ChainRegistry::build_with_config`]).
    pub fn build_store_with_config(
        &self,
        spec: &ChainSpec,
        store: Box<dyn EdgeStore + Send>,
        config: SwitchingConfig,
    ) -> Result<Box<dyn EdgeSwitching + Send>, ChainError> {
        let info = self.resolve(&spec.name)?;
        let factory = self.store_factory(info.name).ok_or_else(|| ChainError::BadParam {
            chain: info.name.to_string(),
            param: "mmap".to_string(),
            message: format!(
                "chain does not support external-memory execution (store-capable chains: {})",
                self.store_capable_names().join(", ")
            ),
        })?;
        factory(store, config, spec)
    }
}

/// Fail with [`ChainError::UnsupportedGraph`] unless `graph`'s node ids fit
/// the keys of the [`ConcurrentEdgeSet`] that `chain` keeps its edges in.
/// `advice` ends the message.
fn check_edge_set_keys(chain: &str, graph: &EdgeListGraph, advice: &str) -> Result<(), ChainError> {
    if graph.num_nodes() <= ConcurrentEdgeSet::MAX_NODES {
        return Ok(());
    }
    Err(ChainError::UnsupportedGraph {
        chain: chain.to_string(),
        message: format!(
            "the graph has {} nodes, but the concurrent edge set holds node ids below 2^28{advice}",
            graph.num_nodes()
        ),
    })
}

/// Descriptors of the five core chains.
fn core_chain_infos() -> Vec<ChainInfo> {
    vec![
        ChainInfo {
            name: "seq-es",
            chain_name: "SeqES",
            aliases: &[],
            summary: "sequential ES-MC on an edge array + hash set (Def. 1, Sec. 5)",
            exact: true,
            parallel: false,
            snapshot: true,
            params: COMMON_PARAMS,
            factory: |graph, config, _| {
                check_edge_set_keys("seq-es", &graph, "; seq-es-ext runs the same chain on it")?;
                Ok(Box::new(SeqES::new(graph, config)))
            },
        },
        ChainInfo {
            name: "seq-global-es",
            chain_name: "SeqGlobalES",
            aliases: &[],
            summary: "sequential G-ES-MC: global switches over a permuted edge array (Def. 3)",
            exact: true,
            parallel: false,
            snapshot: true,
            params: COMMON_PARAMS,
            factory: |graph, config, _| {
                check_edge_set_keys("seq-global-es", &graph, "")?;
                Ok(Box::new(SeqGlobalES::new(graph, config)))
            },
        },
        ChainInfo {
            name: "par-es",
            chain_name: "ParES",
            aliases: &[],
            summary: "exact parallel ES-MC via dependency-resolving supersteps (Algorithm 2)",
            exact: true,
            parallel: true,
            snapshot: true,
            params: COMMON_PARAMS,
            factory: |graph, config, _| {
                check_edge_set_keys("par-es", &graph, "")?;
                Ok(Box::new(ParES::new(graph, config)))
            },
        },
        ChainInfo {
            name: "par-global-es",
            chain_name: "ParGlobalES",
            aliases: &[],
            summary: "exact parallel G-ES-MC, the paper's main contribution (Algorithm 3)",
            exact: true,
            parallel: true,
            snapshot: true,
            params: COMMON_PARAMS,
            factory: |graph, config, _| {
                check_edge_set_keys("par-global-es", &graph, "")?;
                Ok(Box::new(ParGlobalES::new(graph, config)))
            },
        },
        ChainInfo {
            name: "naive-par-es",
            chain_name: "NaiveParES",
            aliases: &[],
            summary: "inexact lock-per-edge parallel ES-MC baseline (Sec. 5.1); racy across \
                      threads",
            exact: false,
            parallel: true,
            snapshot: true,
            params: COMMON_PARAMS,
            factory: |graph, config, _| {
                check_edge_set_keys("naive-par-es", &graph, "")?;
                Ok(Box::new(NaiveParES::new(graph, config)))
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesmc_graph::gen::gnp;
    use gesmc_randx::rng_from_seed;

    fn test_graph() -> EdgeListGraph {
        gnp(&mut rng_from_seed(3), 80, 0.08)
    }

    #[test]
    fn core_registry_builds_every_chain() {
        let registry = ChainRegistry::with_core_chains();
        assert_eq!(registry.len(), 5);
        for info in registry.infos() {
            let graph = test_graph();
            let degrees = graph.degrees();
            let mut chain = registry.build(&ChainSpec::new(info.name), graph, 1).unwrap();
            assert_eq!(chain.name(), info.chain_name);
            chain.superstep();
            assert_eq!(chain.graph().degrees(), degrees, "{}", info.name);
            assert_eq!(chain.snapshot().is_some(), info.snapshot, "{}", info.name);
        }
    }

    #[test]
    fn edge_set_chains_refuse_node_ids_beyond_28_bits() {
        // {0, 2^28 + 5} and {1, 5} would share one 56-bit edge-set key.
        let far = (1 << 28) + 5;
        let pairs = [(0, far), (1, 5), (2, 3), (4, 6), (7, 8), (9, 10), (11, 12), (13, 14)];
        let edges = pairs.iter().map(|&(u, v)| gesmc_graph::Edge::new(u, v)).collect();
        let graph = EdgeListGraph::new(far as usize + 1, edges).unwrap();
        let registry = ChainRegistry::with_core_chains();
        assert_eq!(registry.len(), 5);
        for info in registry.infos() {
            match registry.build(&ChainSpec::new(info.name), graph.clone(), 1).map(|_| ()) {
                Err(ChainError::UnsupportedGraph { chain, message }) => {
                    assert_eq!(chain, info.name);
                    assert!(message.contains("2^28"), "{message}");
                    assert_eq!(message.contains("seq-es-ext"), info.name == "seq-es", "{message}");
                }
                other => panic!("{}: expected UnsupportedGraph, got {other:?}", info.name),
            }
        }
    }

    #[test]
    fn chain_names_resolve_like_primary_names() {
        let registry = ChainRegistry::with_core_chains();
        assert_eq!(registry.resolve("SeqGlobalES").unwrap().name, "seq-global-es");
        assert_eq!(registry.resolve("seq-global-es").unwrap().chain_name, "SeqGlobalES");
    }

    #[test]
    fn unknown_chains_list_the_known_ones() {
        let registry = ChainRegistry::with_core_chains();
        match registry.resolve("quantum-es") {
            Err(ChainError::UnknownChain { name, known }) => {
                assert_eq!(name, "quantum-es");
                assert_eq!(known.len(), 5);
                assert!(known.contains(&"par-global-es".to_string()));
            }
            other => panic!("expected UnknownChain, got {other:?}"),
        }
    }

    #[test]
    fn per_chain_param_validation() {
        let registry = ChainRegistry::with_core_chains();
        // Common params pass everywhere.
        let spec = ChainSpec::parse("par-global-es?pl=0.001&prefetch=off").unwrap();
        assert!(registry.validate(&spec).is_ok());
        // Unknown parameter names fail with the accepted list.
        let spec = ChainSpec::parse("seq-es?plx=1").unwrap();
        match registry.validate(&spec) {
            Err(ChainError::UnknownParam { chain, param, accepted }) => {
                assert_eq!(chain, "seq-es");
                assert_eq!(param, "plx");
                assert_eq!(accepted, vec!["pl", "prefetch"]);
            }
            other => panic!("expected UnknownParam, got {other:?}"),
        }
        // Wrong types and out-of-range values fail as errors, not panics.
        for bad in ["seq-es?prefetch=0.5", "seq-global-es?pl=1.5", "seq-global-es?pl=on"] {
            let spec = ChainSpec::parse(bad).unwrap();
            assert!(matches!(registry.validate(&spec), Err(ChainError::BadParam { .. })), "{bad}");
        }
    }

    #[test]
    fn built_chains_honour_spec_params() {
        let registry = ChainRegistry::with_core_chains();
        let graph = test_graph();
        // pl flows into the chain: a snapshot records it.
        let spec = ChainSpec::parse("seq-global-es?pl=0.25").unwrap();
        let chain = registry.build(&spec, graph.clone(), 9).unwrap();
        let snapshot = chain.snapshot().unwrap();
        assert!((snapshot.loop_probability - 0.25).abs() < 1e-12);
        assert_eq!(snapshot.seed, 9);
        // prefetch flows into the chain likewise.
        let spec = ChainSpec::parse("seq-es?prefetch=off").unwrap();
        let chain = registry.build(&spec, graph, 9).unwrap();
        assert!(!chain.snapshot().unwrap().prefetch);
    }

    #[test]
    fn custom_chains_register_with_their_own_params() {
        // The registry is open: a chain with its own parameter set validates
        // against exactly that set.
        fn noop_factory(
            graph: EdgeListGraph,
            config: SwitchingConfig,
            _spec: &ChainSpec,
        ) -> Result<Box<dyn EdgeSwitching + Send>, ChainError> {
            Ok(Box::new(SeqES::new(graph, config)))
        }
        let mut registry = ChainRegistry::new();
        registry.register(ChainInfo {
            name: "custom-es",
            chain_name: "CustomES",
            aliases: &["my-es"],
            summary: "test chain",
            exact: true,
            parallel: false,
            snapshot: true,
            params: &[ParamInfo {
                name: "depth",
                kind: ParamKind::Int,
                default: "4",
                doc: "pipeline depth",
            }],
            factory: noop_factory,
        });
        assert_eq!(registry.resolve("my-es").unwrap().name, "custom-es");
        assert!(registry.validate(&ChainSpec::parse("custom-es?depth=8").unwrap()).is_ok());
        assert!(matches!(
            registry.validate(&ChainSpec::parse("custom-es?depth=0.5").unwrap()),
            Err(ChainError::BadParam { .. })
        ));
        assert!(matches!(
            registry.validate(&ChainSpec::parse("custom-es?pl=0.1").unwrap()),
            Err(ChainError::UnknownParam { .. })
        ));
        let graph = test_graph();
        assert!(registry.build(&ChainSpec::parse("my-es?depth=2").unwrap(), graph, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let mut registry = ChainRegistry::with_core_chains();
        registry.register(core_chain_infos().remove(0));
    }

    /// Minimal store-aware chain used to exercise the registry surface; the
    /// real implementation lives in `gesmc-exmem`.
    struct StubStoreChain {
        store: std::sync::Mutex<Box<dyn EdgeStore + Send>>,
    }

    impl EdgeSwitching for StubStoreChain {
        fn name(&self) -> &'static str {
            "StubStore"
        }
        fn num_nodes(&self) -> usize {
            self.store.lock().unwrap().num_nodes()
        }
        fn num_edges(&self) -> usize {
            self.store.lock().unwrap().num_edges()
        }
        fn graph(&self) -> EdgeListGraph {
            self.store.lock().unwrap().materialize()
        }
        fn superstep(&mut self) -> crate::SuperstepStats {
            crate::SuperstepStats::default()
        }
    }

    fn stub_store_factory(
        store: Box<dyn EdgeStore + Send>,
        _config: SwitchingConfig,
        _spec: &ChainSpec,
    ) -> Result<Box<dyn EdgeSwitching + Send>, ChainError> {
        Ok(Box::new(StubStoreChain { store: std::sync::Mutex::new(store) }))
    }

    #[test]
    fn store_factories_register_and_resolve_through_every_spelling() {
        let mut registry = ChainRegistry::with_core_chains();
        assert!(registry.store_factory("seq-es").is_none());
        assert!(registry.store_capable_names().is_empty());

        registry.register_store_factory("seq-es", stub_store_factory);
        assert!(registry.store_factory("seq-es").is_some());
        // Chain-name spelling resolves too, like plain lookups.
        assert!(registry.store_factory("SeqES").is_some());
        assert_eq!(registry.store_capable_names(), vec!["seq-es"]);

        let graph = test_graph();
        let edges = graph.edges().to_vec();
        let chain = registry.build_store(&ChainSpec::new("seq-es"), Box::new(graph), 7).unwrap();
        let mut streamed = Vec::new();
        chain.for_each_edge(&mut |e| streamed.push(e));
        assert_eq!(streamed, edges);
        assert_eq!(chain.num_nodes(), test_graph().num_nodes());
    }

    #[test]
    fn chains_without_store_factories_fail_with_the_capable_list() {
        let mut registry = ChainRegistry::with_core_chains();
        registry.register_store_factory("seq-es", stub_store_factory);
        let err = registry
            .build_store(&ChainSpec::new("par-es"), Box::new(test_graph()), 1)
            .map(|_| ())
            .unwrap_err();
        match err {
            ChainError::BadParam { chain, param, message } => {
                assert_eq!(chain, "par-es");
                assert_eq!(param, "mmap");
                assert!(message.contains("seq-es"), "{message}");
            }
            other => panic!("expected BadParam, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already has a store factory")]
    fn duplicate_store_factory_registration_panics() {
        let mut registry = ChainRegistry::with_core_chains();
        registry.register_store_factory("seq-es", stub_store_factory);
        registry.register_store_factory("SeqES", stub_store_factory);
    }

    #[test]
    #[should_panic(expected = "unregistered chain")]
    fn store_factory_for_unknown_chain_panics() {
        let mut registry = ChainRegistry::new();
        registry.register_store_factory("ghost-es", stub_store_factory);
    }
}
