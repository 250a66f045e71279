//! Shared frontier traversal: one DITS-L walk for a whole batch of queries.
//!
//! A batch of `N` queries against the same local index does not need `N`
//! independent root-to-leaf walks — the tree is the same for all of them.
//! The batch algorithms here descend the arena once per batch (overlap) or
//! once per greedy iteration (coverage), carrying a per-node *frontier*: the
//! list of query indices still alive at that node.  At every node each query
//! in the frontier is tested against the exact same pruning rules its
//! per-query counterpart would apply — MBR intersection plus the Lemma 2/3
//! leaf bounds for OJSP ([`crate::overlap`]), the Lemma 4 distance bounds
//! for CJSP ([`crate::coverage`]) — and queries drop out of the frontier
//! individually.  A node is therefore visited at most once per batch while
//! every query's answer, and every counter of its [`SearchStats`], is
//! **identical** to the per-query run: the walk shares the traversal, never
//! the pruning decisions.  The descent runs over the cache-conscious
//! structure-of-arrays [`TraversalLayout`](crate::local::TraversalLayout)
//! snapshot, and verification (the expensive exact phase) reuses the same
//! code as the per-query algorithms.
//!
//! The multi-source engine's per-(source, batch) shard mode is built on
//! these entry points; the per-(query, source) mode remains the parity
//! oracle.  See the repository README's "Performance" section.

use crate::bounds::{leaf_overlap_bounds, node_distance_bounds};
use crate::coverage::{collect_all, greedy_pick, CoverageConfig, CoverageResult};
use crate::local::{DitsLocal, NodeIdx, NodeKind};
use crate::node::{DatasetNode, NodeGeometry};
use crate::overlap::{verify_candidates, LeafCandidate, OverlapResult};
use crate::stats::SearchStats;
use spatial::distance::NeighborProbe;
use spatial::{CellSet, DatasetId, Mbr};
use std::collections::HashSet;

/// Batch OverlapSearch: answers every query of the batch with one shared
/// walk of the index.
///
/// Returns one `(results, stats)` pair per query, in query order, each
/// identical to what [`overlap_search`](crate::overlap::overlap_search)
/// returns for that query alone.
pub fn overlap_search_batch(
    index: &DitsLocal,
    queries: &[CellSet],
    k: usize,
) -> Vec<(Vec<OverlapResult>, SearchStats)> {
    overlap_search_batch_with_options(index, queries, k, true)
}

/// Per-query state of the batch overlap search: the pruning rect, the stats
/// the shared walk accumulates, and the leaf candidates it collects.  One
/// struct per query keeps the walk to a single checked lookup per frontier
/// entry instead of indexing three parallel vectors.
struct OverlapState {
    /// `None` for queries that never enter the walk (empty query, or
    /// `k = 0` for the whole batch): the per-query fast path — empty
    /// results, zero stats.
    rect: Option<Mbr>,
    stats: SearchStats,
    candidates: Vec<LeafCandidate>,
}

/// Batch OverlapSearch with the leaf-bound pruning optionally disabled
/// (mirrors [`overlap_search_with_options`](crate::overlap::overlap_search_with_options)).
pub fn overlap_search_batch_with_options(
    index: &DitsLocal,
    queries: &[CellSet],
    k: usize,
    use_bounds: bool,
) -> Vec<(Vec<OverlapResult>, SearchStats)> {
    let mut states: Vec<OverlapState> = queries
        .iter()
        .map(|q| OverlapState {
            rect: if k == 0 { None } else { q.mbr_cell_space() },
            stats: SearchStats::new(),
            candidates: Vec::new(),
        })
        .collect();
    let root_frontier: Vec<u32> = states
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.rect.as_ref().map(|_| i as u32))
        .collect();

    let walk_started = std::time::Instant::now();
    if !root_frontier.is_empty() {
        let layout = index.traversal_layout();
        let mut stack: Vec<(NodeIdx, Vec<u32>)> = vec![(layout.root(), root_frontier)];
        while let Some((node_idx, frontier)) = stack.pop() {
            let rect = layout.rect(node_idx);
            let mut survivors: Vec<u32> = Vec::with_capacity(frontier.len());
            for &q in &frontier {
                // Frontier indices come from the enumeration above, so a
                // miss here (or a rect-less query below) would mean the
                // frontier was built wrong; dropping the query is the
                // panic-free containment of that bug.
                let Some(qs) = states.get_mut(q as usize) else {
                    continue;
                };
                qs.stats.nodes_visited += 1;
                let Some(qrect) = qs.rect.as_ref() else {
                    continue;
                };
                if rect.intersects(qrect) {
                    survivors.push(q);
                } else {
                    qs.stats.nodes_pruned += 1;
                }
            }
            if survivors.is_empty() {
                continue;
            }
            match layout.children(node_idx) {
                Some((left, right)) => {
                    // Left before right, exactly like the per-query
                    // recursion, so each query's candidate list accumulates
                    // in the same order (ties in the later upper-bound sort
                    // then resolve identically).
                    stack.push((right, survivors.clone()));
                    stack.push((left, survivors));
                }
                None => {
                    let arena_idx = layout.arena_index(node_idx);
                    if let NodeKind::Leaf { entries, inverted } = &index.node(arena_idx).kind {
                        if entries.is_empty() {
                            continue;
                        }
                        for &q in &survivors {
                            let qi = q as usize;
                            let (Some(qs), Some(query)) = (states.get_mut(qi), queries.get(qi))
                            else {
                                continue;
                            };
                            let (lb, ub) = if use_bounds {
                                leaf_overlap_bounds(inverted, query, entries.len())
                            } else {
                                (0, usize::MAX)
                            };
                            if use_bounds && ub == 0 {
                                qs.stats.leaves_pruned_by_bounds += 1;
                                continue;
                            }
                            qs.candidates.push((ub, lb, arena_idx));
                        }
                    }
                }
            }
        }
    }

    crate::phase::add_traversal(walk_started.elapsed());

    let verify_started = std::time::Instant::now();
    let out = queries
        .iter()
        .zip(states)
        .map(|(query, mut qs)| {
            let results = if qs.rect.is_some() {
                verify_candidates(
                    index,
                    query,
                    k,
                    use_bounds,
                    std::mem::take(&mut qs.candidates),
                    &mut qs.stats,
                )
            } else {
                Vec::new()
            };
            (results, qs.stats)
        })
        .collect();
    crate::phase::add_verify(verify_started.elapsed());
    out
}

/// Per-query state of the batch coverage search.  The connect set
/// (`connected`/`seen`) only grows across greedy iterations, exactly as in
/// [`coverage_search`](crate::coverage::coverage_search): each walk extends
/// it with the datasets within δ of `newest`.  Keeping the state in one
/// struct means the shared walk performs one checked lookup per frontier
/// entry.
struct CoverageState<'a> {
    merged_cells: CellSet,
    selected: HashSet<DatasetId>,
    result: CoverageResult,
    stats: SearchStats,
    /// The result member the next walk searches from — the query in the
    /// first iteration, then the dataset picked last — with a probe
    /// borrowing its cached sorted cells.  `None` once the query has
    /// finished selecting.
    newest: Option<(NodeGeometry, NeighborProbe<'a>)>,
    /// Connect set of the merged result, in discovery order.
    connected: Vec<&'a DatasetNode>,
    /// Dataset ids in `connected`.
    seen: HashSet<DatasetId>,
}

/// Batch CoverageSearch: runs the greedy algorithm for every query of the
/// batch, sharing one index walk per greedy iteration across all queries
/// that are still selecting.
///
/// Returns one `(result, stats)` pair per query, in query order, each
/// identical to what [`coverage_search`](crate::coverage::coverage_search)
/// returns for that query alone.  The shared walk requires the merged-result
/// strategy; with `merge_results = false` (the SG+DITS ablation mode, whose
/// per-member searches have nothing to share) the batch simply runs the
/// per-query algorithm.
pub fn coverage_search_batch<'a>(
    index: &'a DitsLocal,
    queries: &'a [CellSet],
    config: CoverageConfig,
) -> Vec<(CoverageResult, SearchStats)> {
    if !config.merge_results {
        return queries
            .iter()
            .map(|q| crate::coverage::coverage_search(index, q, config))
            .collect();
    }

    let mut states: Vec<CoverageState<'a>> = queries
        .iter()
        .map(|q| CoverageState {
            merged_cells: q.clone(),
            selected: HashSet::new(),
            result: CoverageResult {
                datasets: Vec::new(),
                coverage: q.len(),
                query_coverage: q.len(),
                gains: Vec::new(),
            },
            stats: SearchStats::new(),
            newest: q
                .mbr_cell_space()
                .filter(|_| config.k > 0 && index.dataset_count() > 0)
                .map(|m| (NodeGeometry::from_mbr(m), NeighborProbe::new(q))),
            connected: Vec::new(),
            seen: HashSet::new(),
        })
        .collect();

    let layout = index.traversal_layout();
    loop {
        let active: Vec<u32> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.newest.is_some())
            .map(|(i, _)| i as u32)
            .collect();
        if active.is_empty() {
            break;
        }

        // FindConnectSet from each active query's newest member, for all of
        // them in one walk.
        let walk_started = std::time::Instant::now();
        let mut stack: Vec<(NodeIdx, Vec<u32>)> = vec![(layout.root(), active)];
        while let Some((node_idx, frontier)) = stack.pop() {
            let geometry = layout.geometry(node_idx);
            let mut kept: Vec<u32> = Vec::with_capacity(frontier.len());
            for &q in &frontier {
                // Frontier indices come from the active-query enumeration,
                // so a miss (or a finished query) is a frontier-construction
                // bug; skipping the query contains it without a panic.
                let Some(state) = states.get_mut(q as usize) else {
                    continue;
                };
                let Some((newest, _)) = state.newest else {
                    continue;
                };
                state.stats.nodes_visited += 1;
                let (lb, ub) = node_distance_bounds(geometry, &newest);
                if ub <= config.delta {
                    // Everything below is connected for this query: collect
                    // the subtree and drop the query from the frontier.
                    collect_all(
                        index,
                        layout.arena_index(node_idx),
                        &mut state.connected,
                        &mut state.seen,
                    );
                } else if lb > config.delta {
                    state.stats.nodes_pruned += 1;
                } else {
                    kept.push(q);
                }
            }
            if kept.is_empty() {
                continue;
            }
            match layout.children(node_idx) {
                Some((left, right)) => {
                    stack.push((right, kept.clone()));
                    stack.push((left, kept));
                }
                None => {
                    let arena_idx = layout.arena_index(node_idx);
                    if let NodeKind::Leaf { entries, .. } = &index.node(arena_idx).kind {
                        let base = layout.entry_range(node_idx).start;
                        for &q in &kept {
                            let Some(state) = states.get_mut(q as usize) else {
                                continue;
                            };
                            let Some((newest, probe)) = state.newest else {
                                continue;
                            };
                            for (offset, entry) in entries.iter().enumerate() {
                                if state.seen.contains(&layout.entry_id(base + offset)) {
                                    continue;
                                }
                                let (elb, eub) = node_distance_bounds(
                                    layout.entry_geometry(base + offset),
                                    &newest,
                                );
                                let is_connected = if eub <= config.delta {
                                    true
                                } else if elb > config.delta {
                                    false
                                } else {
                                    state.stats.exact_computations += 1;
                                    probe.within(&entry.cells, config.delta)
                                };
                                if is_connected && state.seen.insert(entry.id) {
                                    state.connected.push(entry);
                                    state.stats.candidates += 1;
                                }
                            }
                        }
                    }
                }
            }
        }

        crate::phase::add_traversal(walk_started.elapsed());

        // Greedy selection per query, identical to the per-query algorithm.
        let verify_started = std::time::Instant::now();
        for state in states.iter_mut().filter(|s| s.newest.is_some()) {
            state.newest = match greedy_pick(
                &state.connected,
                &state.selected,
                &state.merged_cells,
                &mut state.stats,
            ) {
                Some((best, tau)) if tau > 0 => {
                    state.selected.insert(best.id);
                    state.result.datasets.push(best.id);
                    state.result.gains.push(tau as usize);
                    state.merged_cells.union_in_place(&best.cells);
                    state.result.coverage = state.merged_cells.len();
                    (state.result.datasets.len() < config.k)
                        .then(|| (best.geometry, NeighborProbe::new(&best.cells)))
                }
                _ => None,
            };
        }
        crate::phase::add_verify(verify_started.elapsed());
    }

    states.into_iter().map(|s| (s.result, s.stats)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage_search;
    use crate::local::DitsLocalConfig;
    use crate::overlap::{overlap_search, overlap_search_with_options};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use spatial::zorder::cell_id;

    fn node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(
            id,
            CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y))),
        )
        .unwrap()
    }

    fn cs(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    fn random_nodes(n: usize, seed: u64) -> Vec<DatasetNode> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cx = rng.random_range(0..200u32);
                let cy = rng.random_range(0..200u32);
                let len = rng.random_range(1..20usize);
                let coords: Vec<(u32, u32)> = (0..len)
                    .map(|_| {
                        (
                            (cx + rng.random_range(0..8)).min(255),
                            (cy + rng.random_range(0..8)).min(255),
                        )
                    })
                    .collect();
                node(i as DatasetId, &coords)
            })
            .collect()
    }

    fn random_queries(n: usize, seed: u64) -> Vec<CellSet> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let cx = rng.random_range(0..200u32);
                let cy = rng.random_range(0..200u32);
                let len = rng.random_range(1..12usize);
                cs(&(0..len)
                    .map(|_| {
                        (
                            (cx + rng.random_range(0..10)).min(255),
                            (cy + rng.random_range(0..10)).min(255),
                        )
                    })
                    .collect::<Vec<_>>())
            })
            .collect()
    }

    #[test]
    fn batch_overlap_matches_per_query_exactly() {
        let nodes = random_nodes(300, 42);
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 10 });
        let queries = random_queries(20, 7);
        for k in [1usize, 5, 20] {
            let batch = overlap_search_batch(&idx, &queries, k);
            for (q, (batch_results, batch_stats)) in queries.iter().zip(&batch) {
                let (solo_results, solo_stats) = overlap_search(&idx, q, k);
                assert_eq!(batch_results, &solo_results, "results diverge at k={k}");
                assert_eq!(batch_stats, &solo_stats, "stats diverge at k={k}");
            }
        }
    }

    #[test]
    fn batch_overlap_without_bounds_matches_per_query() {
        let nodes = random_nodes(150, 9);
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 5 });
        let queries = random_queries(8, 11);
        let batch = overlap_search_batch_with_options(&idx, &queries, 10, false);
        for (q, (batch_results, batch_stats)) in queries.iter().zip(&batch) {
            let (solo_results, solo_stats) = overlap_search_with_options(&idx, q, 10, false);
            assert_eq!(batch_results, &solo_results);
            assert_eq!(batch_stats, &solo_stats);
        }
    }

    #[test]
    fn batch_overlap_handles_degenerate_queries() {
        let nodes = random_nodes(50, 3);
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        // An empty query mixed into the batch, and an empty batch.
        let queries = vec![cs(&[(10, 10)]), CellSet::new(), cs(&[(250, 250)])];
        let batch = overlap_search_batch(&idx, &queries, 5);
        assert_eq!(batch.len(), 3);
        assert!(batch[1].0.is_empty());
        assert_eq!(batch[1].1, SearchStats::new());
        assert!(overlap_search_batch(&idx, &[], 5).is_empty());
        // k = 0 short-circuits every query.
        for (results, stats) in overlap_search_batch(&idx, &queries, 0) {
            assert!(results.is_empty());
            assert_eq!(stats, SearchStats::new());
        }
    }

    #[test]
    fn batch_overlap_on_empty_index() {
        let idx = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        let queries = vec![cs(&[(0, 0)])];
        let batch = overlap_search_batch(&idx, &queries, 3);
        let (solo_results, solo_stats) = overlap_search(&idx, &queries[0], 3);
        assert_eq!(batch[0].0, solo_results);
        assert_eq!(batch[0].1, solo_stats);
    }

    #[test]
    fn batch_coverage_matches_per_query_exactly() {
        let nodes = random_nodes(200, 21);
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 6 });
        let queries = random_queries(12, 22);
        for delta in [2.0, 8.0] {
            let config = CoverageConfig::new(4, delta);
            let batch = coverage_search_batch(&idx, &queries, config);
            for (q, (batch_result, batch_stats)) in queries.iter().zip(&batch) {
                let (solo_result, solo_stats) = coverage_search(&idx, q, config);
                assert_eq!(batch_result, &solo_result, "results diverge at δ={delta}");
                assert_eq!(batch_stats, &solo_stats, "stats diverge at δ={delta}");
            }
        }
    }

    #[test]
    fn batch_coverage_without_merge_falls_back_to_per_query() {
        let nodes = random_nodes(60, 5);
        let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 4 });
        let queries = random_queries(4, 6);
        let config = CoverageConfig {
            k: 3,
            delta: 4.0,
            merge_results: false,
        };
        let batch = coverage_search_batch(&idx, &queries, config);
        for (q, (batch_result, batch_stats)) in queries.iter().zip(&batch) {
            let (solo_result, solo_stats) = coverage_search(&idx, q, config);
            assert_eq!(batch_result, &solo_result);
            assert_eq!(batch_stats, &solo_stats);
        }
    }

    #[test]
    fn batch_coverage_handles_degenerate_queries() {
        let nodes = random_nodes(40, 13);
        let idx = DitsLocal::build(nodes, DitsLocalConfig::default());
        let queries = vec![CellSet::new(), cs(&[(5, 5), (6, 6)])];
        let config = CoverageConfig::new(3, 4.0);
        let batch = coverage_search_batch(&idx, &queries, config);
        assert_eq!(batch.len(), 2);
        assert!(batch[0].0.datasets.is_empty());
        assert_eq!(batch[0].1, SearchStats::new());
        let (solo, solo_stats) = coverage_search(&idx, &queries[1], config);
        assert_eq!(batch[1].0, solo);
        assert_eq!(batch[1].1, solo_stats);
        assert!(coverage_search_batch(&idx, &[], config).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_batch_overlap_parity(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..64, 0u32..64), 1..10), 1..50),
            queries in proptest::collection::vec(
                proptest::collection::vec((0u32..64, 0u32..64), 0..12), 1..8),
            k in 1usize..10,
            capacity in 1usize..8,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: capacity });
            let qs: Vec<CellSet> = queries.iter().map(|q| cs(q)).collect();
            let batch = overlap_search_batch(&idx, &qs, k);
            for (q, (batch_results, batch_stats)) in qs.iter().zip(&batch) {
                let (solo_results, solo_stats) = overlap_search(&idx, q, k);
                prop_assert_eq!(batch_results, &solo_results);
                prop_assert_eq!(batch_stats, &solo_stats);
            }
        }

        #[test]
        fn prop_batch_coverage_parity(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u32..24), 1..6), 1..25),
            queries in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u32..24), 0..5), 1..6),
            k in 1usize..5,
            delta in 1.0f64..6.0,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let idx = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: 3 });
            let qs: Vec<CellSet> = queries.iter().map(|q| cs(q)).collect();
            let config = CoverageConfig::new(k, delta);
            let batch = coverage_search_batch(&idx, &qs, config);
            for (q, (batch_result, batch_stats)) in qs.iter().zip(&batch) {
                let (solo_result, solo_stats) = coverage_search(&idx, q, config);
                prop_assert_eq!(batch_result, &solo_result);
                prop_assert_eq!(batch_stats, &solo_stats);
            }
        }
    }
}
