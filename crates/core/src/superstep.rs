//! The two superstep kernels of the exact chains: `ParallelSuperstep`
//! (Algorithm 1), which executes a batch of source-dependency free edge
//! switches in parallel while preserving the sequential outcome, and the
//! one in-order Def. 1 kernel.
//!
//! [`sequential_superstep`] applies a batch strictly in order and writes the
//! chain's edge set through exclusive access, with plain stores.  Its erases
//! move later entries of the probe cluster back into the gap instead of
//! leaving tombstones, so the set never needs a rebuild after it.  `SeqES`
//! and `SeqGlobalES` run every switch through it.  `ParES` and `ParGlobalES`
//! run a batch through `execute_superstep`, which picks one of the two
//! kernels from the ambient rayon thread count:
//!
//! * with two or more threads, [`parallel_superstep`] runs Algorithm 1 as
//!   described below;
//! * with one thread, [`sequential_superstep`] runs the batch in order.
//!   Algorithm 1 is exact, so this leaves the same edge array, legal count
//!   and edge-set contents, and at one thread its machinery (registration,
//!   decision rounds, two apply passes, compare-and-swap writes) buys
//!   nothing.
//!
//! [`parallel_superstep`] and [`run_superstep_on_graph`] always run
//! Algorithm 1, whatever the thread count.
//!
//! The batch is processed in three phases.  **Registration** enters every
//! switch into the caller's [`DependencyTable`], as the eraser of its two
//! source edges and an inserter of its two target edges, and keeps the four
//! bucket indices the table returns, so that no later phase hashes an edge
//! again.  The join that ends this parallel pass publishes the table's
//! inserter lists to the decision rounds.  **Decision rounds** then
//! repeatedly try to decide every still-undecided switch in parallel:
//!
//! * a switch is **illegal** if a target edge is a self-loop, is one of its
//!   own source edges (Def. 1 tests existence before removing the sources),
//!   is present in the graph and not erased by any switch of the batch, is
//!   erased only by a *later* switch, is erased by a switch that itself turned
//!   out illegal, or has already been inserted by an earlier *legal* switch;
//! * a switch is **delayed** if it depends on a switch (erasing or inserting
//!   one of its targets, with a smaller index) that is still undecided;
//! * otherwise it is **legal**: its slots in the shared edge array are rewired
//!   immediately.
//!
//! Other threads decide switches while a switch is being decided, so
//! `decide` answers both of its questions (is the switch illegal? must it
//! wait?) from **one reading** of each dependency's state: it returns
//! `Illegal` on the first definitive reason and otherwise remembers whether
//! any reading was still undecided.  Reading a state once to rule out
//! illegality and again to decide whether to wait could see two different
//! values and combine them into a wrong `Legal`.  A decided state never
//! changes, so a reading can only be out of date by still saying undecided,
//! which merely delays the switch.
//!
//! Dependencies always point towards smaller switch indices, so every round
//! decides at least the smallest undecided switch and the loop terminates.
//! **Apply:** the edge *set* is only updated after all switches are decided
//! (first all erases, then all inserts, both in parallel); during the rounds
//! it serves as the immutable snapshot of the graph at the start of the
//! superstep, which is exactly the semantics the decision rules above
//! require.  The insert pass also releases every switch from the table, so
//! the table is empty again for the next superstep.

use crate::stats::SuperstepStats;
use crate::switch::{switch_targets, SwitchRequest};
use gesmc_concurrent::{AtomicEdgeList, ConcurrentEdgeSet, DependencyTable, SwitchState};
use gesmc_graph::Edge;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Pre-resolved data of one switch within a superstep.
#[derive(Debug, Clone, Copy)]
struct SwitchWork {
    request: SwitchRequest,
    e1: Edge,
    e2: Edge,
    e3: Edge,
    e4: Edge,
    /// Table buckets of `[e1, e2, e3, e4]`.
    buckets: [usize; 4],
}

/// Execute a superstep of switches without source dependencies.
///
/// `table` is the caller's (empty) dependency table, reused from superstep to
/// superstep and left empty again; `edges` is the shared indexed edge array,
/// `edge_set` the authoritative set of edges of the current graph (updated in
/// place), and `switches` the batch to execute, ordered by their position in
/// the original (sequential) switch sequence.
///
/// # Panics
/// If the edge set does not hold as many edges after the superstep as before
/// it, which would mean a legal switch erased a missing edge or inserted an
/// existing one; if registration finds an edge erased twice, i.e. a batch
/// with source dependencies, which is a caller bug; and if a decision round
/// decides nothing, which would otherwise loop forever.
pub fn parallel_superstep(
    table: &mut DependencyTable,
    edges: &AtomicEdgeList,
    edge_set: &ConcurrentEdgeSet,
    switches: &[SwitchRequest],
) -> SuperstepStats {
    let start = Instant::now();
    let requested = switches.len();
    if requested == 0 {
        return SuperstepStats { duration: start.elapsed(), ..SuperstepStats::default() };
    }
    let edges_before = edge_set.len();

    // Phase 1: resolve sources/targets and register every switch.
    table.prepare(requested);
    let table = &*table;
    let work: Vec<SwitchWork> = switches
        .par_iter()
        .enumerate()
        .map(|(k, &request)| {
            let e1 = edges.get(request.i);
            let e2 = edges.get(request.j);
            let (e3, e4) = switch_targets(e1, e2, request.g);
            let buckets = table.register(k as u32, [e1.pack(), e2.pack()], [e3.pack(), e4.pack()]);
            SwitchWork { request, e1, e2, e3, e4, buckets }
        })
        .collect();

    // Phase 2: decision rounds.
    let legal_count = AtomicUsize::new(0);
    let mut undecided: Vec<u32> = (0..requested as u32).collect();
    let mut round_durations = Vec::new();

    while !undecided.is_empty() {
        let round_start = Instant::now();
        let delayed: Vec<u32> = undecided
            .par_iter()
            .copied()
            .filter_map(|k| {
                let w = &work[k as usize];
                let Some(state) = decide(table, edge_set, w, k) else {
                    return Some(k);
                };
                if state == SwitchState::Legal {
                    edges.set(w.request.i, w.e3);
                    edges.set(w.request.j, w.e4);
                    legal_count.fetch_add(1, Ordering::Relaxed);
                }
                table.set_state(k, state);
                None
            })
            .collect();
        assert!(
            delayed.len() < undecided.len(),
            "a decision round must decide at least one switch"
        );
        undecided = delayed;
        round_durations.push(round_start.elapsed());
    }

    // Phase 3: apply the decided switches to the edge set.  All erases first
    // (each edge is erased at most once per superstep), then all inserts (each
    // edge is inserted by at most one legal switch), so the two parallel
    // passes cannot conflict.  No pass looks anything up in the table's
    // buckets any more, so the insert pass can release them.
    work.par_iter().enumerate().for_each(|(k, w)| {
        if table.state(k as u32) == SwitchState::Legal {
            let erased1 = edge_set.erase(w.e1);
            let erased2 = edge_set.erase(w.e2);
            debug_assert!(erased1 && erased2, "legal switch must erase existing edges");
        }
    });
    work.par_iter().enumerate().for_each(|(k, w)| {
        if table.state(k as u32) == SwitchState::Legal {
            let inserted1 = edge_set.insert(w.e3);
            let inserted2 = edge_set.insert(w.e4);
            debug_assert!(inserted1 && inserted2, "legal switch must insert fresh edges");
        }
        table.release(k as u32, w.buckets);
    });
    assert_eq!(
        edge_set.len(),
        edges_before,
        "a superstep must keep the number of edges: a legal switch erased a missing edge \
         or inserted an existing one"
    );

    let legal = legal_count.load(Ordering::Relaxed);
    SuperstepStats {
        requested,
        legal,
        illegal: requested - legal,
        rounds: round_durations.len(),
        round_durations,
        duration: start.elapsed(),
    }
}

/// Switches whose target buckets the in-order kernel prefetches at once
/// (Sec. 5.4).
const PREFETCH_WINDOW: usize = 4;

/// Execute a superstep strictly in order: each switch is rejected if a target
/// is a self-loop or already present (a target equal to one of its own
/// sources counts as present, as Def. 1 tests existence before removing the
/// sources), and otherwise erases its sources, inserts its targets and
/// rewires its two slots.
///
/// This is the one in-order Def. 1 kernel: `SeqES` and `SeqGlobalES` run
/// every switch through it, and `ParES` and `ParGlobalES` run their batches
/// through it at one thread.  Any batch is allowed, source dependencies
/// included.  On a batch without them the result equals
/// [`parallel_superstep`]'s: the same edge array, legal count and edge-set
/// contents, though not the same bucket layout, since this path's erases
/// leave no tombstones.  It reports one round that lasts the whole superstep.
///
/// With `prefetch`, the kernel computes the targets of each window of four
/// switches and prefetches their buckets before it decides them (Sec. 5.4).
/// The switches are still decided in order, so the flag changes no byte; a
/// prefetch made stale by a slot the window rewires only wastes a hint.
/// Only `SeqES` passes its
/// [`SwitchingConfig::prefetch`](crate::SwitchingConfig::prefetch); the
/// other three chains pass `false`, as they ignored the flag before they
/// shared this kernel.  A prototype that let `ParES` and `ParGlobalES`
/// prefetch made their in-order supersteps 4–7% slower on a 20k-edge graph
/// and 9–22% slower on ~600-edge graphs, so whether prefetching pays in
/// those chains waits for a benchmark with a large-m workload.
///
/// # Panics
/// If the edge set does not hold as many edges after the superstep as before
/// it.  Debug builds also assert every erase and insert.
pub fn sequential_superstep(
    edges: &AtomicEdgeList,
    edge_set: &mut ConcurrentEdgeSet,
    switches: &[SwitchRequest],
    prefetch: bool,
) -> SuperstepStats {
    let start = Instant::now();
    let requested = switches.len();
    if requested == 0 {
        return SuperstepStats { duration: start.elapsed(), ..SuperstepStats::default() };
    }
    let edges_before = edge_set.len();
    let legal = if prefetch {
        switches
            .chunks(PREFETCH_WINDOW)
            .map(|window| {
                for request in window {
                    let (e3, e4) =
                        switch_targets(edges.get(request.i), edges.get(request.j), request.g);
                    edge_set.prefetch(e3);
                    edge_set.prefetch(e4);
                }
                switch_in_order(edges, edge_set, window)
            })
            .sum()
    } else {
        switch_in_order(edges, edge_set, switches)
    };
    assert_eq!(
        edge_set.len(),
        edges_before,
        "a superstep must keep the number of edges: a legal switch erased a missing edge \
         or inserted an existing one"
    );
    let duration = start.elapsed();
    SuperstepStats {
        requested,
        legal,
        illegal: requested - legal,
        rounds: 1,
        round_durations: vec![duration],
        duration,
    }
}

/// Decide and apply `switches` one after another with Def. 1; returns how
/// many were legal.
#[inline]
fn switch_in_order(
    edges: &AtomicEdgeList,
    edge_set: &mut ConcurrentEdgeSet,
    switches: &[SwitchRequest],
) -> usize {
    let mut legal = 0;
    for &request in switches {
        let e1 = edges.get(request.i);
        let e2 = edges.get(request.j);
        let (e3, e4) = switch_targets(e1, e2, request.g);
        if e3.is_loop() || e4.is_loop() || edge_set.contains(e3) || edge_set.contains(e4) {
            continue;
        }
        let erased = edge_set.erase_mut(e1) & edge_set.erase_mut(e2);
        debug_assert!(erased, "legal switch must erase existing edges");
        let inserted = edge_set.insert_mut(e3) & edge_set.insert_mut(e4);
        debug_assert!(inserted, "legal switch must insert fresh edges");
        edges.set(request.i, e3);
        edges.set(request.j, e4);
        legal += 1;
    }
    legal
}

/// Execute a superstep of switches without source dependencies on the
/// chain's state: in order at one rayon thread ([`sequential_superstep`],
/// without prefetching), else with Algorithm 1 ([`parallel_superstep`]).
/// Both leave the same bytes.
pub(crate) fn execute_superstep(
    table: &mut DependencyTable,
    edges: &AtomicEdgeList,
    edge_set: &mut ConcurrentEdgeSet,
    switches: &[SwitchRequest],
) -> SuperstepStats {
    if rayon::current_num_threads() <= 1 {
        sequential_superstep(edges, edge_set, switches, false)
    } else {
        parallel_superstep(table, edges, edge_set, switches)
    }
}

/// Apply the decision rules of Algorithm 1 to switch `k`; `None` delays it
/// to the next round.
///
/// Reads the state of every dependency once (see the module docs).
fn decide(
    table: &DependencyTable,
    edge_set: &ConcurrentEdgeSet,
    w: &SwitchWork,
    k: u32,
) -> Option<SwitchState> {
    let mut wait = false;
    for (target, bucket) in [(w.e3, w.buckets[2]), (w.e4, w.buckets[3])] {
        if target.is_loop() {
            return Some(SwitchState::Illegal);
        }
        match table.eraser(bucket) {
            // Nobody in this superstep erases the target; it is illegal to
            // insert it iff it already exists in the graph.
            None => {
                if edge_set.contains(target) {
                    return Some(SwitchState::Illegal);
                }
            }
            // `p == k` means the target equals one of this switch's own source
            // edges; Def. 1 tests existence *before* removing the sources, so
            // such a switch is rejected.  (Algorithm 1 as printed would label
            // it legal and rewire the two slots to the same pair of edges —
            // the graph is identical either way, but rejecting keeps the edge
            // array bitwise equal to a sequential Def. 1 execution, which is
            // what our exactness tests demand.)  A later eraser leaves the
            // target in the graph at the time of switch `k`.
            Some(p) if p >= k => return Some(SwitchState::Illegal),
            Some(p) => match table.state(p) {
                SwitchState::Illegal => return Some(SwitchState::Illegal),
                SwitchState::Undecided => wait = true,
                SwitchState::Legal => {}
            },
        }
        // An earlier legal insert of the same edge makes `k` illegal; an
        // earlier undecided one makes it wait; earlier illegal ones impose
        // nothing.
        for q in table.inserters(bucket).filter(|&q| q < k) {
            match table.state(q) {
                SwitchState::Legal => return Some(SwitchState::Illegal),
                SwitchState::Undecided => wait = true,
                SwitchState::Illegal => {}
            }
        }
    }
    (!wait).then_some(SwitchState::Legal)
}

/// Convenience wrapper: run a superstep on a plain graph and return the new
/// graph (used by tests and by callers that do not keep persistent state).
///
/// # Panics
/// As [`parallel_superstep`], and if `graph` has more nodes than
/// [`ConcurrentEdgeSet::MAX_NODES`].
pub fn run_superstep_on_graph(
    graph: &gesmc_graph::EdgeListGraph,
    switches: &[SwitchRequest],
) -> (gesmc_graph::EdgeListGraph, SuperstepStats) {
    let edges = AtomicEdgeList::from_graph(graph);
    let edge_set = ConcurrentEdgeSet::for_graph(graph);
    let stats = parallel_superstep(&mut DependencyTable::default(), &edges, &edge_set, switches);
    (edges.to_graph(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{EdgeSwitching, SwitchingConfig};
    use crate::seq_global::SeqGlobalES;
    use gesmc_graph::gen::gnp;
    use gesmc_graph::EdgeListGraph;
    use gesmc_randx::permutation::random_permutation;
    use gesmc_randx::rng_from_seed;

    /// Sequential oracle: apply the switches strictly in order with Def. 1.
    fn sequential_oracle(graph: &EdgeListGraph, switches: &[SwitchRequest]) -> EdgeListGraph {
        let mut chain = SeqGlobalES::new(graph.clone(), SwitchingConfig::with_seed(0));
        for &s in switches {
            chain.apply(s);
        }
        chain.graph()
    }

    /// Build a random global switch (source-dependency free by construction).
    fn random_global_switch(
        rng: &mut gesmc_randx::Rng,
        m: usize,
        ell: usize,
    ) -> Vec<SwitchRequest> {
        let perm = random_permutation(rng, m);
        SeqGlobalES::switches_from_permutation(&perm, ell.min(m / 2))
    }

    #[test]
    fn empty_superstep() {
        let graph = EdgeListGraph::new(3, vec![Edge::new(0, 1)]).unwrap();
        let (out, stats) = run_superstep_on_graph(&graph, &[]);
        assert_eq!(out.canonical_edges(), graph.canonical_edges());
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    #[should_panic(expected = "erased twice")]
    fn a_shared_source_index_panics_in_every_build() {
        // Switches 0 and 1 both erase E[1]: a source dependency, which the
        // caller must never put into one superstep.  One thread makes the
        // registration order, and so the panic message, deterministic.
        let graph =
            EdgeListGraph::new(6, vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)]).unwrap();
        let switches = vec![SwitchRequest::new(0, 1, false), SwitchRequest::new(1, 2, false)];
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| run_superstep_on_graph(&graph, &switches));
    }

    #[test]
    fn single_switch_matches_sequential() {
        let graph = EdgeListGraph::new(4, vec![Edge::new(0, 1), Edge::new(2, 3)]).unwrap();
        let switches = vec![SwitchRequest::new(0, 1, false)];
        let (out, stats) = run_superstep_on_graph(&graph, &switches);
        assert_eq!(out.canonical_edges(), sequential_oracle(&graph, &switches).canonical_edges());
        assert_eq!(stats.legal, 1);
    }

    #[test]
    fn rejects_loop_and_duplicate_targets() {
        // Triangle plus an extra edge; switching (0-1, 1-2) with g = 1 creates
        // a loop at 1, and with g = 0 the targets equal the sources (which by
        // Def. 1 "already exist in E").  Both must be rejected and leave the
        // graph untouched.
        let graph = EdgeListGraph::new(
            4,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2), Edge::new(2, 3)],
        )
        .unwrap();
        for g in [false, true] {
            let switches = vec![SwitchRequest::new(0, 1, g)];
            let (out, stats) = run_superstep_on_graph(&graph, &switches);
            assert_eq!(stats.legal, 0, "g = {g}");
            assert_eq!(out.canonical_edges(), graph.canonical_edges());
        }
    }

    #[test]
    fn erase_dependency_is_respected() {
        // Switch 0 frees the edge {0,1}; switch 1 wants to create {0,1} and is
        // only legal because switch 0 comes first.
        let graph = EdgeListGraph::new(
            6,
            vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(0, 4), Edge::new(1, 5)],
        )
        .unwrap();
        // Switch 0: indices (0, 1) with g=0: {0,1},{2,3} -> {0,2},{1,3}
        // Switch 1: indices (2, 3) with g=0: {0,4},{1,5} -> {0,1},{4,5}
        let switches = vec![SwitchRequest::new(0, 1, false), SwitchRequest::new(2, 3, false)];
        let (out, stats) = run_superstep_on_graph(&graph, &switches);
        let oracle = sequential_oracle(&graph, &switches);
        assert_eq!(out.canonical_edges(), oracle.canonical_edges());
        assert_eq!(stats.legal, 2);
        assert!(out.has_edge_slow(0, 1), "edge {{0,1}} re-created by switch 1");
        assert!(out.has_edge_slow(4, 5));
    }

    #[test]
    fn erase_dependency_in_wrong_order_is_illegal() {
        // Same as above but the creating switch comes first: it must be
        // rejected because {0,1} still exists at its (sequential) time.
        let graph = EdgeListGraph::new(
            6,
            vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(0, 4), Edge::new(1, 5)],
        )
        .unwrap();
        let switches = vec![SwitchRequest::new(2, 3, false), SwitchRequest::new(0, 1, false)];
        let (out, stats) = run_superstep_on_graph(&graph, &switches);
        let oracle = sequential_oracle(&graph, &switches);
        assert_eq!(out.canonical_edges(), oracle.canonical_edges());
        // The first (in sequence) switch is rejected, the second is fine.
        assert_eq!(stats.legal, 1);
    }

    #[test]
    fn insert_dependency_only_first_switch_wins() {
        // Two switches both want to create the edge {0,2}; only the one with
        // the smaller index may succeed.
        let graph = EdgeListGraph::new(
            8,
            vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(0, 4), Edge::new(2, 5)],
        )
        .unwrap();
        // Switch 0: ({0,1},{2,3}) g=0 -> {0,2},{1,3}
        // Switch 1: ({0,4},{2,5}) g=0 -> {0,2},{4,5}
        let switches = vec![SwitchRequest::new(0, 1, false), SwitchRequest::new(2, 3, false)];
        let (out, stats) = run_superstep_on_graph(&graph, &switches);
        let oracle = sequential_oracle(&graph, &switches);
        assert_eq!(out.canonical_edges(), oracle.canonical_edges());
        assert_eq!(stats.legal, 1);
        assert!(out.has_edge_slow(0, 2));
        assert!(out.has_edge_slow(1, 3));
        // Switch 1 was rejected: its sources remain.
        assert!(out.has_edge_slow(0, 4));
        assert!(out.has_edge_slow(2, 5));
    }

    #[test]
    fn matches_sequential_oracle_on_random_global_switches() {
        let mut rng = rng_from_seed(42);
        for trial in 0..30 {
            let graph = gnp(&mut rng, 60, 0.12);
            let m = graph.num_edges();
            if m < 4 {
                continue;
            }
            let switches = random_global_switch(&mut rng, m, m / 2);
            let (out, _) = run_superstep_on_graph(&graph, &switches);
            let oracle = sequential_oracle(&graph, &switches);
            assert_eq!(
                out.canonical_edges(),
                oracle.canonical_edges(),
                "mismatch on trial {trial}"
            );
            assert_eq!(out.degrees(), graph.degrees());
            assert!(out.validate().is_ok());
        }
    }

    #[test]
    fn rounds_stay_small_on_random_graphs() {
        let mut rng = rng_from_seed(7);
        let graph = gnp(&mut rng, 300, 0.05);
        let m = graph.num_edges();
        let switches = random_global_switch(&mut rng, m, m / 2);
        let (_, stats) = run_superstep_on_graph(&graph, &switches);
        // Theorem 2: for nearly-regular graphs the expected number of rounds
        // is below 4; allow generous slack for this single sample.
        assert!(stats.rounds <= 8, "unexpectedly many rounds: {}", stats.rounds);
        assert!(stats.requested == m / 2);
    }
}
