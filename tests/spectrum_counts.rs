//! The cluster counts Fed-SC reads off the normalized-Laplacian spectrum —
//! each device's `r^(z)` (Algorithm 2, Eq. (3)) and the merged count `l` of
//! `central_cluster_auto` — must be the counts the full dense
//! eigendecomposition gives. `laplacian_spectrum` assembles the spectrum
//! per connected component with a values-only solver; this pins that the
//! assembly never changes a count, on noiseless instances (many components,
//! including a paper-sized 480-point device) and noisy ones (few or one).

// Test code: a panic is a test failure, so unwrap is the idiom here
// (clippy's allow-unwrap-in-tests does not reach integration-test helpers).
#![allow(clippy::unwrap_used)]

use fed_sc::central::central_cluster_auto;
use fed_sc::data::synthetic::{generate, SyntheticConfig};
use fed_sc::federated::partition::{partition_dataset, Partition};
use fed_sc::graph::laplacian::{
    eigengap_cluster_count, normalized_laplacian, relative_eigengap_cluster_count,
};
use fed_sc::graph::AffinityGraph;
use fed_sc::linalg::eigh::eigh;
use fed_sc::linalg::Matrix;
use fed_sc::local::local_cluster_and_sample;
use fed_sc::subspace::{CandidateOptions, Ssc, SubspaceClusterer};
use fed_sc::{CentralBackend, ClusterCountPolicy, FedScConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ascending eigenvalues of the normalized Laplacian from the full dense
/// eigendecomposition (eigenvectors and all).
fn full_eigh_spectrum(g: &AffinityGraph) -> Vec<f64> {
    eigh(&normalized_laplacian(g)).unwrap().eigenvalues
}

/// `r^(z)` as Algorithm 2 computes it, from the full-`eigh` spectrum of
/// the device's SSC graph (built with the same settings as the device).
fn reference_local_count(data: &Matrix, cfg: &FedScConfig) -> usize {
    let ssc = Ssc {
        alpha: cfg.ssc_alpha,
        lasso: cfg.lasso.clone(),
        normalize: true,
        candidates: Some(CandidateOptions {
            min_points: cfg.candidate_threshold,
            ..CandidateOptions::default()
        }),
    };
    let g = ssc.affinity(data).unwrap();
    let ev = full_eigh_spectrum(&g);
    let r = match cfg.cluster_count {
        ClusterCountPolicy::Eigengap { max, relative } if relative => {
            relative_eigengap_cluster_count(&ev, max)
        }
        ClusterCountPolicy::Eigengap { max, .. } => eigengap_cluster_count(&ev, max),
        ClusterCountPolicy::Fixed(r) => r,
    };
    r.clamp(1, data.cols())
}

/// `central_cluster_auto`'s `l` from the full-`eigh` spectrum of the same
/// central SSC graph: the relative eigengap under `l_max`, floored at the
/// component count, clamped.
fn reference_central_count(samples: &Matrix, l_max: usize) -> usize {
    let g = Ssc::default().affinity(samples).unwrap();
    let gap = relative_eigengap_cluster_count(&full_eigh_spectrum(&g), Some(l_max));
    let comps = g.num_components(1e-9).max(1);
    gap.max(comps).clamp(1, l_max.min(samples.cols()).max(1))
}

/// Runs every device of one instance, checks each `r^(z)`, then checks
/// `central_cluster_auto` on the pooled samples and on each half of the
/// devices' samples (the aggregator shape). Returns the per-device counts.
fn check_instance(
    synth: SyntheticConfig,
    devices: usize,
    scheme: Partition,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = generate(&synth, &mut rng);
    let fed = partition_dataset(&ds.data, devices, scheme, &mut rng);
    let l = synth.num_subspaces;
    let cfg = FedScConfig::new(l, CentralBackend::Ssc);
    let mut counts = Vec::new();
    let mut samples = Vec::new();
    for (z, dev) in fed.devices.iter().enumerate() {
        let mut dev_rng = StdRng::seed_from_u64(seed.wrapping_add(z as u64));
        let out = local_cluster_and_sample(&dev.data, &cfg, &mut dev_rng).unwrap();
        let expect = reference_local_count(&dev.data, &cfg);
        assert_eq!(
            out.num_local_clusters, expect,
            "seed {seed} device {z}: r^(z) differs from the full-eigh count"
        );
        counts.push(out.num_local_clusters);
        samples.push(out.samples);
    }
    let half = samples.len().div_ceil(2);
    for group in [&samples[..], &samples[..half], &samples[half..]] {
        if group.is_empty() {
            continue;
        }
        let pooled = Matrix::hcat(&group.iter().collect::<Vec<_>>()).unwrap();
        let l_max = l.min(pooled.cols());
        let mut c_rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        let (_, got) = central_cluster_auto(
            &pooled,
            l_max,
            group.len(),
            CentralBackend::Ssc,
            cfg.candidate_threshold,
            &mut c_rng,
        )
        .unwrap();
        assert_eq!(
            got,
            reference_central_count(&pooled, l_max),
            "seed {seed}: central l differs from the full-eigh count ({} samples)",
            pooled.cols()
        );
    }
    counts
}

#[test]
fn paper_sized_noiseless_device_counts_match_full_eigh() {
    // One 480-point device in R^40 over four rank-3 subspaces: the SSC
    // graph splits into (at least) four components.
    let synth = SyntheticConfig {
        ambient_dim: 40,
        subspace_dim: 3,
        num_subspaces: 4,
        points_per_subspace: 120,
        noise_std: 0.0,
    };
    let counts = check_instance(synth, 1, Partition::Iid, 1);
    assert_eq!(counts, vec![4]);
}

#[test]
fn noiseless_fleet_counts_match_full_eigh() {
    for seed in [2u64, 3] {
        check_instance(
            SyntheticConfig::paper(6, 40),
            8,
            Partition::NonIid { l_prime: 2 },
            seed,
        );
    }
}

#[test]
fn noisy_fleet_counts_match_full_eigh() {
    for (seed, noise) in [(4u64, 0.05), (5, 0.2)] {
        let synth = SyntheticConfig {
            noise_std: noise,
            ..SyntheticConfig::paper(5, 40)
        };
        check_instance(synth, 6, Partition::Iid, seed);
    }
}
