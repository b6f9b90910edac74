//! Property-based tests for the spectral-graph layer: normalized-Laplacian
//! spectral bounds and the component-counting identity the eigengap logic
//! rests on.

use fedsc_graph::laplacian::{
    eigengap_cluster_count, laplacian_spectrum, normalized_laplacian,
    relative_eigengap_cluster_count, unnormalized_laplacian,
};
use fedsc_graph::AffinityGraph;
use fedsc_linalg::eigh::eigh;
use fedsc_linalg::Matrix;
use proptest::prelude::*;

/// Random symmetric non-negative affinity on `n` nodes with edge
/// probability ~ density.
fn graph(n: usize, edges: Vec<(usize, usize, f64)>) -> AffinityGraph {
    let mut m = Matrix::zeros(n, n);
    for (i, j, w) in edges {
        let (i, j) = (i % n, j % n);
        if i != j {
            m[(i, j)] = w.abs();
            m[(j, i)] = w.abs();
        }
    }
    AffinityGraph::from_symmetric(&m)
}

fn graph_strategy() -> impl Strategy<Value = AffinityGraph> {
    (3usize..10).prop_flat_map(|n| {
        proptest::collection::vec(((0usize..n), (0usize..n), 0.1f64..5.0), 0..(n * 2))
            .prop_map(move |edges| graph(n, edges))
    })
}

/// Graphs of 1..6 components of 1..7 nodes each (size-1 components are
/// isolated nodes), each component a random connected graph — a random
/// spanning tree plus random extra edges — with its nodes scattered over
/// the index range by a random permutation, so blocks interleave.
fn multi_component_strategy() -> impl Strategy<Value = AffinityGraph> {
    proptest::collection::vec(1usize..8, 1..7).prop_flat_map(|sizes| {
        let n: usize = sizes.iter().sum();
        (
            Just(sizes),
            proptest::collection::vec(0usize..1000, n),
            proptest::collection::vec((0usize..1000, 0.1f64..5.0), n),
            proptest::collection::vec((0usize..1000, 0usize..1000, 0.1f64..5.0), 0..(2 * n)),
        )
            .prop_map(move |(sizes, keys, tree, extra)| {
                // Node `perm[p]` takes the `p`-th position of the blocks.
                let mut perm: Vec<usize> = (0..n).collect();
                perm.sort_by_key(|&i| (keys[i], i));
                let mut m = Matrix::zeros(n, n);
                let mut put = |a: usize, b: usize, w: f64| {
                    if a != b {
                        m[(perm[a], perm[b])] = w;
                        m[(perm[b], perm[a])] = w;
                    }
                };
                let mut start = 0;
                for &s in &sizes {
                    // Tree edge from position `start + t` to an earlier one.
                    for t in 1..s {
                        let (r, w) = tree[start + t];
                        put(start + t, start + r % t, w);
                    }
                    start += s;
                }
                // Extra edges stay inside the block of their first end.
                let mut block_of = Vec::with_capacity(n);
                let mut start = 0;
                for &s in &sizes {
                    block_of.extend(std::iter::repeat_n((start, s), s));
                    start += s;
                }
                for (a, b, w) in extra {
                    let (bs, bl) = block_of[a % n];
                    put(bs + a % bl, bs + b % bl, w);
                }
                AffinityGraph::from_symmetric(&m)
            })
    })
}

/// Gap at every position `i` in `1..n`, as the two eigengap rules score it.
fn gaps(ev: &[f64], relative: bool) -> Vec<f64> {
    let eps = 1e-2 * ev.last().copied().unwrap_or(0.0).abs().max(f64::EPSILON);
    (1..ev.len())
        .map(|i| {
            let gap = ev[i] - ev[i - 1];
            if relative {
                gap / (ev[i].abs() + eps)
            } else {
                gap
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blockwise_spectrum_matches_full_eigh(g in multi_component_strategy()) {
        let full = eigh(&normalized_laplacian(&g)).unwrap().eigenvalues;
        let spec = laplacian_spectrum(&g).unwrap().eigenvalues;
        prop_assert_eq!(spec.len(), full.len());
        for (a, b) in spec.iter().zip(&full) {
            prop_assert!((a - b).abs() <= 1e-12, "{:?} vs {:?}", spec, full);
        }
    }

    #[test]
    fn eigengap_counts_match_full_eigh_for_every_cap(g in multi_component_strategy()) {
        // Same count from both spectra at every cap, except where two
        // positions tie to rounding in the full spectrum (e.g. the gaps
        // between the several zeros of a multi-component graph, all
        // roundoff): the choice among tied positions is itself roundoff,
        // so there the count must be one of the tied positions.
        let full = eigh(&normalized_laplacian(&g)).unwrap().eigenvalues;
        let spec = laplacian_spectrum(&g).unwrap().eigenvalues;
        let n = full.len();
        for relative in [false, true] {
            let count = |ev: &[f64], cap: usize| {
                if relative {
                    relative_eigengap_cluster_count(ev, Some(cap))
                } else {
                    eigengap_cluster_count(ev, Some(cap))
                }
            };
            let g_full = gaps(&full, relative);
            for cap in 1..n {
                let (want, got) = (count(&full, cap), count(&spec, cap));
                prop_assert!(
                    want == got || (g_full[want - 1] - g_full[got - 1]).abs() <= 1e-9,
                    "relative {} cap {}: full-eigh count {} vs blockwise {} ({:?} vs {:?})",
                    relative, cap, want, got, full, spec
                );
            }
        }
    }

    #[test]
    fn normalized_spectrum_is_in_zero_two(g in graph_strategy()) {
        let spec = laplacian_spectrum(&g).unwrap();
        for &ev in &spec.eigenvalues {
            prop_assert!(ev > -1e-9, "negative eigenvalue {ev}");
            prop_assert!(ev < 2.0 + 1e-9, "eigenvalue above 2: {ev}");
        }
    }

    #[test]
    fn zero_eigenvalue_multiplicity_counts_nontrivial_components(g in graph_strategy()) {
        // Isolated (degree-zero) nodes contribute eigenvalue 1 under our
        // documented normalized-Laplacian convention, so the classical
        // "zero multiplicity = component count" identity holds for the
        // components that actually contain edges.
        let comp = g.connected_components(0.0);
        let max = comp.iter().copied().max().unwrap_or(0);
        let nontrivial = (0..=max)
            .filter(|&c| (0..g.len()).filter(|&i| comp[i] == c).count() >= 2)
            .count();
        let spec = laplacian_spectrum(&g).unwrap();
        let zeros = spec.eigenvalues.iter().filter(|&&e| e.abs() < 1e-8).count();
        prop_assert_eq!(
            zeros, nontrivial,
            "{} zero eigenvalues vs {} non-trivial components", zeros, nontrivial
        );
    }

    #[test]
    fn unnormalized_laplacian_is_psd_with_zero_row_sums(g in graph_strategy()) {
        let l = unnormalized_laplacian(&g);
        let n = l.rows();
        for i in 0..n {
            let s: f64 = l.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-9, "row {i} sums to {s}");
        }
        // x^T L x = sum_{ij} w_ij (x_i - x_j)^2 / 2 >= 0 for a probe vector.
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let lx = l.matvec(&x).unwrap();
        let quad: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        prop_assert!(quad > -1e-9, "quadratic form {quad}");
    }

    #[test]
    fn laplacian_is_symmetric(g in graph_strategy()) {
        let l = normalized_laplacian(&g);
        for i in 0..l.rows() {
            for j in 0..i {
                prop_assert!((l[(i, j)] - l[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn subgraph_of_component_is_connected(g in graph_strategy()) {
        let comp = g.connected_components(0.0);
        let max = comp.iter().copied().max().unwrap_or(0);
        for c in 0..=max {
            let nodes: Vec<usize> =
                (0..g.len()).filter(|&i| comp[i] == c).collect();
            let sub = g.subgraph(&nodes);
            prop_assert_eq!(sub.num_components(0.0), 1);
        }
    }
}
