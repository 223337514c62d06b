//! Property tests for graph invariants.

use proptest::prelude::*;
use trix_topology::{chunk_partition, distance_ancestors, families, BaseGraph, LayeredGraph};

proptest! {
    /// Line-with-replicated-ends: size, degree, and diameter invariants
    /// for every width.
    #[test]
    fn line_invariants(width in 2usize..80) {
        let g = BaseGraph::line_with_replicated_ends(width);
        prop_assert_eq!(g.node_count(), width + 2);
        prop_assert!(g.min_degree() >= 2);
        prop_assert_eq!(g.diameter() as usize, width - 1);
        prop_assert!(g.validate_for_gcs().is_ok());
    }

    /// Cycle powers: regular of degree 2k, diameter ⌈(n/2)/k⌉.
    #[test]
    fn cycle_power_invariants(n in 5usize..60, k in 1usize..3) {
        prop_assume!(n > 2 * k);
        let g = BaseGraph::cycle_power(n, k);
        prop_assert_eq!(g.min_degree(), 2 * k);
        prop_assert_eq!(g.max_degree(), 2 * k);
        prop_assert_eq!(g.diameter() as usize, (n / 2).div_ceil(k));
    }

    /// Distances form a metric on every generated graph.
    #[test]
    fn distances_are_a_metric(width in 2usize..30) {
        let g = BaseGraph::line_with_replicated_ends(width);
        let n = g.node_count();
        for a in 0..n {
            prop_assert_eq!(g.distance(a, a), 0);
            for b in (a + 1)..n {
                let d = g.distance(a, b);
                prop_assert!(d >= 1);
                prop_assert_eq!(d, g.distance(b, a));
                for c in 0..n {
                    prop_assert!(g.distance(a, c) <= d + g.distance(b, c));
                }
            }
        }
    }

    /// Layered-graph edge ids are a bijection onto 0..edge_count, and
    /// successors mirror predecessors.
    #[test]
    fn layered_edge_ids_bijective(width in 2usize..20, layers in 2usize..8) {
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
        let mut seen = vec![false; g.edge_count()];
        for node in g.nodes().filter(|n| n.layer > 0) {
            for (pred, e) in g.predecessors(node) {
                prop_assert!(!seen[e.0]);
                seen[e.0] = true;
                let back = g
                    .successors(pred)
                    .find(|&(s, e2)| s == node && e2 == e);
                prop_assert!(back.is_some());
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Generator determinism (clause 1 of the topology contract): the
    /// same arguments produce a byte-identical CSR — equal rows, equal
    /// descriptor — and the result satisfies the §2 validity clause.
    #[test]
    fn generators_are_deterministic_and_valid(
        rows in 3usize..8,
        cols in 3usize..8,
        dim in 2u32..6,
        n in 8usize..24,
        k in 2usize..4,
        seed in any::<u64>(),
        pods in 3usize..7,
        pod_size in 2usize..5,
        supernodes in 3usize..7,
        leaves in 1usize..4,
    ) {
        let make = |which: usize| match which {
            0 => families::torus(rows, cols),
            1 => families::hypercube(dim),
            2 => families::random_geometric(n, k, seed),
            3 => families::octopus_pods(pods, pod_size),
            _ => families::supernode_overlay(supernodes, leaves),
        };
        for which in 0..5 {
            let (a, b) = (make(which), make(which));
            prop_assert_eq!(&a, &b, "family {} must be reproducible", which);
            let g = a.graph();
            prop_assert_eq!(g.csr(), b.graph().csr());
            prop_assert!(g.validate_for_gcs().is_ok(), "family {}", which);
            prop_assert!(g.diameter() >= 1);
            for v in 0..g.node_count() {
                let ns = g.neighbors(v);
                prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted rows");
            }
        }
    }

    /// Chunk partitions stay valid on *non-uniform* layer widths: the
    /// partition is cut from the maximum width, and clamping each chunk
    /// to a narrower layer still tiles that layer exactly with no
    /// overlaps (trailing chunks simply become empty).
    #[test]
    fn chunk_partition_valid_on_nonuniform_widths(
        widths in proptest::collection::vec(1usize..40, 1..8),
        workers in 1usize..9,
    ) {
        let max_width = *widths.iter().max().unwrap();
        let parts = chunk_partition(max_width, workers);
        prop_assert!(parts.len() <= workers);
        for &layer_width in &widths {
            let clamped: Vec<(usize, usize)> = parts
                .iter()
                .map(|&(lo, hi)| (lo.min(layer_width), hi.min(layer_width)))
                .filter(|&(lo, hi)| lo < hi)
                .collect();
            prop_assert_eq!(clamped.first().map(|c| c.0), Some(0));
            prop_assert_eq!(clamped.last().map(|c| c.1), Some(layer_width));
            for pair in clamped.windows(2) {
                prop_assert_eq!(pair[0].1, pair[1].0, "contiguous tiling");
            }
        }
    }

    /// Ancestor cones: every claimed ancestor is reachable (distance
    /// bound) and no closer node is omitted.
    #[test]
    fn ancestor_cone_is_exact(width in 3usize..15, layers in 2usize..8, delta in 1usize..5) {
        let g = LayeredGraph::new(BaseGraph::cycle(width), layers);
        let node = g.node(width / 2, layers - 1);
        let anc = distance_ancestors(&g, node, delta);
        let set: std::collections::HashSet<_> = anc.iter().copied().collect();
        prop_assert_eq!(set.len(), anc.len(), "no duplicates");
        for j in 1..=delta.min(node.layer as usize) {
            let layer = node.layer as usize - j;
            for w in 0..g.width() {
                let in_cone = g.base().distance(w, node.v as usize) as usize <= j;
                let claimed = set.contains(&g.node(w, layer));
                prop_assert_eq!(in_cone, claimed, "w={} layer={}", w, layer);
            }
        }
    }
}
