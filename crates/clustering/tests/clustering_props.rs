//! Property-based tests for the clustering layer: k-means objective
//! monotonicity, Hungarian optimality bounds, and metric consistency.

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fedsc_clustering::hungarian::{max_weight_assignment, min_cost_assignment};
use fedsc_clustering::kmeans::{kmeans, KMeansOptions};
use fedsc_clustering::spectral::kernel_seeds;
use fedsc_clustering::{adjusted_rand_index, clustering_accuracy};
use fedsc_graph::sparse::sparse_normalized_laplacian;
use fedsc_graph::SparseAffinity;
use fedsc_linalg::thick_restart::{thick_restart_smallest, ThickRestartOptions};
use fedsc_linalg::Matrix;
use fedsc_sparse::SparseVec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Disjoint union of complete graphs with uniform coefficient 0.5 — the
/// normalized Laplacian has an exact zero eigenvalue per block and the rest
/// of the spectrum clustered near `s / (s - 1)`.
fn block_affinity(sizes: &[usize]) -> SparseAffinity {
    let n: usize = sizes.iter().sum();
    let mut block = vec![0usize; n];
    let mut idx = 0;
    for (b, &s) in sizes.iter().enumerate() {
        for _ in 0..s {
            block[idx] = b;
            idx += 1;
        }
    }
    let mut codes = Vec::with_capacity(n);
    for i in 0..n {
        let mut ind = Vec::new();
        let mut val = Vec::new();
        for j in 0..n {
            if j != i && block[j] == block[i] {
                ind.push(j);
                val.push(0.5);
            }
        }
        codes.push(SparseVec::from_parts(n, ind, val));
    }
    SparseAffinity::from_codes(&codes)
}

fn points(n: usize, dim: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, n * dim)
        .prop_map(move |data| Matrix::from_col_major(dim, n, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_labels_in_range_and_inertia_nonincreasing_in_k(
        data in (4usize..12).prop_flat_map(|n| points(n, 3)),
        seed in 0u64..100,
    ) {
        let n = data.cols();
        let mut prev = f64::INFINITY;
        for k in 1..=n.min(4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let res = kmeans(&data, &KMeansOptions { k, restarts: 4, ..Default::default() }, &mut rng);
            prop_assert_eq!(res.labels.len(), n);
            prop_assert!(res.labels.iter().all(|&l| l < k));
            prop_assert!(res.inertia >= -1e-9);
            // More clusters never needs to cost more (up to solver noise).
            prop_assert!(res.inertia <= prev + 1e-6, "k={k}: {} > {prev}", res.inertia);
            prev = res.inertia.min(prev);
        }
    }

    #[test]
    fn hungarian_is_a_permutation_no_worse_than_identity(
        n in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / 1e9
        };
        let cost: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let (assign, total) = min_cost_assignment(n, &cost);
        // Permutation.
        let mut seen = vec![false; n];
        for &c in &assign {
            prop_assert!(!seen[c]);
            seen[c] = true;
        }
        // Optimal <= identity and <= reversed diagonal.
        let identity: f64 = (0..n).map(|i| cost[i * n + i]).sum();
        let reversed: f64 = (0..n).map(|i| cost[i * n + (n - 1 - i)]).sum();
        prop_assert!(total <= identity + 1e-9);
        prop_assert!(total <= reversed + 1e-9);
        // Max-weight is consistent with min-cost under negation.
        let (_, best) = max_weight_assignment(n, &cost);
        let neg: Vec<f64> = cost.iter().map(|c| -c).collect();
        let (_, worst_neg) = min_cost_assignment(n, &neg);
        prop_assert!((best + worst_neg).abs() < 1e-9);
    }

    #[test]
    fn random_block_graphs_above_cutover_recover_exact_zero_multiplicity(
        sizes in proptest::collection::vec(101usize..135, 4..7),
    ) {
        // 4..7 blocks of 101..135 nodes: n in [404, 810], always past the
        // dense cutover (n > 400, k small), without needing a filter.
        // Satellite (PR 10): a q-component block graph past the dense
        // cutover must yield exactly q zero eigenvalues from the seeded
        // thick-restart solver — no copy of the degenerate kernel missed
        // (the legacy lock-and-restart failure mode) and no spurious
        // extras. Asking for q + 2 pairs checks both sides of the gap.
        let q = sizes.len();
        let w = block_affinity(&sizes);
        let seeds = kernel_seeds(&w.component_labels(0.0), &w.degrees());
        prop_assert_eq!(seeds.len(), q);
        let lap = sparse_normalized_laplacian(&w);
        let opts = ThickRestartOptions { seeds, ..ThickRestartOptions::default() };
        let eig = thick_restart_smallest(&lap, q + 2, &opts).unwrap();
        let zeros = eig.eigenvalues.iter().filter(|&&v| v.abs() <= 1e-8).count();
        prop_assert_eq!(zeros, q, "eigenvalues: {:?}", eig.eigenvalues);
        // The first nonzero of a complete block K_s sits at s / (s - 1).
        prop_assert!(eig.eigenvalues[q] > 0.9, "gap collapsed: {:?}", eig.eigenvalues);
    }

    #[test]
    fn accuracy_dominates_random_and_ari_agrees_on_perfection(
        truth in proptest::collection::vec(0usize..3, 6..24),
    ) {
        // ACC of the truth against itself is 100 and ARI 1.
        prop_assert_eq!(clustering_accuracy(&truth, &truth), 100.0);
        prop_assert!((adjusted_rand_index(&truth, &truth) - 1.0).abs() < 1e-12);
        // ACC can never fall below the share of the largest cluster when
        // predicting a single constant label.
        let constant = vec![0usize; truth.len()];
        let acc = clustering_accuracy(&truth, &constant);
        let mut counts = [0usize; 3];
        for &t in &truth {
            counts[t] += 1;
        }
        let largest = *counts.iter().max().unwrap() as f64;
        let expect = 100.0 * largest / truth.len() as f64;
        prop_assert!((acc - expect).abs() < 1e-9, "{acc} vs {expect}");
    }
}
