//! End-to-end tests for the hierarchical aggregation tree: the degenerate
//! single-tier topology must be bit-identical to the flat wire round, the
//! multi-tier tree must cluster correctly over all three transports with
//! byte-exact per-tier accounting, and per-tier quorum failures must fail
//! whole subtrees without failing the round.

use fedsc::{device_uplink, run_over_wire, CentralBackend, FedSc, FedScConfig, RoundPolicy};
use fedsc_clustering::clustering_accuracy;
use fedsc_federated::channel::UplinkMessage;
use fedsc_federated::partition::{partition_dataset, FederatedDataset, Partition};
use fedsc_federated::privacy::DpConfig;
use fedsc_hier::{run_hier_round, run_hier_round_with_dead, HierPolicy, HierTopology, TierTraffic};
use fedsc_subspace::SubspaceModel;
use fedsc_transport::{FaultConfig, FaultyInMemoryTransport, InMemoryTransport, TcpTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The wire-round fixture: 3 rank-3 subspaces in R^20, 48 points each,
/// spread non-iid over `devices` devices.
fn fixture(seed: u64, devices: usize) -> (FederatedDataset, FedScConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SubspaceModel::random(&mut rng, 20, 3, 3);
    let ds = model.sample_dataset(&mut rng, &[48, 48, 48], 0.0);
    let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime: 2 }, &mut rng);
    let cfg = FedScConfig::new(3, CentralBackend::Ssc);
    (fed, cfg)
}

/// The deep-tree fixture: 3 rank-1 subspaces (lines) in R^20 with four
/// uploaded samples per local cluster. Middle tiers pool only a handful
/// of children, so the per-tier SSC needs every subspace represented by
/// several samples — rank-1 subspaces keep self-expressiveness intact all
/// the way up the tree (two samples on a line already express each
/// other), which is the regime hierarchical aggregation is honest in.
fn deep_fixture(seed: u64, devices: usize) -> (FederatedDataset, FedScConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SubspaceModel::random(&mut rng, 20, 1, 3);
    let ds = model.sample_dataset(&mut rng, &[48, 48, 48], 0.0);
    let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime: 2 }, &mut rng);
    let mut cfg = FedScConfig::new(3, CentralBackend::Ssc);
    cfg.samples_per_cluster = 4;
    (fed, cfg)
}

#[test]
fn flat_topology_is_bit_identical_to_run_over_wire() {
    let (fed, plain) = fixture(1, 12);
    // The same fixture with differential privacy on every uplink.
    let mut private = plain.clone();
    private.dp = Some(DpConfig::new(2.0, 1e-5));
    for cfg in [plain, private] {
        let flat = run_over_wire(&fed, &cfg).expect("flat reference round (seed-1 fixture)");
        let topo = HierTopology::flat(12);
        let hier = run_hier_round(
            &fed,
            &cfg,
            &topo,
            &InMemoryTransport,
            &HierPolicy::default(),
        )
        .expect("degenerate single-tier round (seed-1 fixture)");
        // Same roles, same seeds, same rng salt: the degenerate tree cannot
        // drift from the flat round — bit for bit, bytes included.
        assert_eq!(hier.wire.predictions, flat.predictions);
        assert_eq!(hier.wire.uplink_bytes, flat.uplink_bytes);
        assert_eq!(hier.wire.downlink_bytes, flat.downlink_bytes);
        assert_eq!(hier.wire.excluded, flat.excluded);
        assert_eq!(hier.tiers.len(), 1);
        assert_eq!(hier.tiers[0].uplink_bytes, flat.uplink_bytes);
        assert_eq!(hier.tiers[0].uplink_messages, 12);
        assert_eq!(hier.tiers[0].downlink_messages, 12);
        // Both shapes also match the in-process reference, which is what
        // shows the tree privatizes: a tree and a flat round that both
        // skipped DP would still agree with each other.
        let in_process = FedSc::new(cfg.clone())
            .run(&fed)
            .expect("in-process reference run (seed-1 fixture)");
        assert_eq!(hier.wire.predictions, in_process.predictions);
    }
}

#[test]
fn flat_topology_over_clean_faulty_link_matches_predictions() {
    let (fed, cfg) = fixture(1, 12);
    let flat = run_over_wire(&fed, &cfg).expect("flat reference round (seed-1 fixture)");
    // A clean fault plan still frames and checksums every message, so the
    // byte counts differ but the decoded round must not.
    let transport = FaultyInMemoryTransport::new(FaultConfig {
        seed: 5,
        ..FaultConfig::default()
    });
    let hier = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::flat(12),
        &transport,
        &HierPolicy::default(),
    )
    .expect("single-tier round over the clean framed link");
    assert_eq!(hier.wire.predictions, flat.predictions);
    assert!(hier.wire.excluded.is_empty());
    assert!(
        hier.wire.uplink_bytes > flat.uplink_bytes,
        "framed accounting must exceed payload accounting"
    );
}

#[test]
fn two_tier_tree_clusters_correctly() {
    let (fed, cfg) = deep_fixture(3, 12);
    let topo = HierTopology::new(12, vec![4]).expect("12→4→root tree");
    let hier = run_hier_round(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("two-tier round (seed-3 fixture)");
    let acc = clustering_accuracy(&fed.global_truth(), &hier.wire.predictions);
    assert!(acc > 90.0, "accuracy {acc}");
    assert!(hier.wire.excluded.is_empty());
    assert_eq!(hier.tiers.len(), 2);
    // Determinism: the staged driver is single-threaded and fully seeded.
    let again = run_hier_round(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("repeat two-tier round (seed-3 fixture)");
    assert_eq!(again.wire.predictions, hier.wire.predictions);
    // Every tier spent real (but run-specific) wall time; the rest of the
    // accounting is deterministic.
    let normalize = |tiers: &[TierTraffic]| -> Vec<TierTraffic> {
        tiers
            .iter()
            .map(|t| {
                assert!(t.wall_ns > 0, "tier reported zero wall time");
                TierTraffic {
                    wall_ns: 0,
                    ..t.clone()
                }
            })
            .collect()
    };
    assert_eq!(normalize(&again.tiers), normalize(&hier.tiers));
}

#[test]
fn three_tier_tree_clusters_correctly_over_tcp() {
    let (fed, cfg) = deep_fixture(4, 12);
    let reference = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::new(12, vec![6, 2]).expect("12→6→2→root tree"),
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("three-tier in-memory round (seed-4 fixture)");
    let acc = clustering_accuracy(&fed.global_truth(), &reference.wire.predictions);
    assert!(acc > 90.0, "accuracy {acc}");
    let tcp = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::new(12, vec![6, 2]).expect("12→6→2→root tree"),
        &TcpTransport::loopback(),
        &HierPolicy::default(),
    )
    .expect("three-tier TCP loopback round (seed-4 fixture)");
    // The transport carries opaque bytes: real sockets cannot perturb the
    // clustering, only the (framed) byte accounting.
    assert_eq!(tcp.wire.predictions, reference.wire.predictions);
    for (t, (mem_tier, tcp_tier)) in reference.tiers.iter().zip(tcp.tiers.iter()).enumerate() {
        assert!(
            tcp_tier.uplink_bytes > mem_tier.uplink_bytes,
            "tier {t}: TCP framing must exceed payload accounting"
        );
    }
}

#[test]
fn tier_zero_accounting_is_byte_exact() {
    let (fed, cfg) = fixture(2, 12);
    let topo = HierTopology::new(12, vec![3]).expect("12→3→root tree");
    let hier = run_hier_round(
        &fed,
        &cfg,
        &topo,
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("two-tier round (seed-2 fixture)");
    // The in-memory link counts payload bytes only, and every device's
    // payload is deterministic — recompute the exact tier-0 ingress.
    let expected_up: usize = (0..12)
        .map(|z| {
            let up = device_uplink(&fed.devices[z].data, z, &cfg)
                .expect("device uplink is deterministic");
            UplinkMessage {
                dim: up.samples.rows(),
                samples: up.samples,
            }
            .encode()
            .len()
        })
        .sum();
    assert_eq!(hier.tiers[0].uplink_bytes, expected_up);
    assert_eq!(hier.tiers[0].uplink_messages, 12);
    // Root ingress carries at most one representative per merged cluster
    // per aggregator: 3 aggregators × (16-byte header + 3 reps × 20 f64s).
    let root_cap = 3 * (16 + 8 * 20 * 3);
    assert!(
        hier.root_uplink_bytes() <= root_cap,
        "root uplink {} exceeds the cluster-count cap {root_cap}",
        hier.root_uplink_bytes()
    );
    assert_eq!(hier.wire.uplink_bytes, hier.root_uplink_bytes());
    assert_eq!(
        hier.total_uplink_bytes(),
        hier.tiers.iter().map(|t| t.uplink_bytes).sum::<usize>()
    );
}

#[test]
fn failed_subtree_falls_back_without_failing_the_round() {
    let (fed, cfg) = deep_fixture(3, 12);
    // 12 devices → 4 aggregators of 3 children each. Kill all of
    // aggregator 0's children: it misses quorum and fails its subtree;
    // the root proceeds on 3 of 4 aggregators.
    let topo = HierTopology::new(12, vec![4]).expect("12→4→root tree");
    let policy = HierPolicy {
        tiers: vec![
            RoundPolicy {
                quorum: Some(1),
                deadline: Duration::from_millis(300),
                ..RoundPolicy::default()
            },
            RoundPolicy {
                quorum: Some(3),
                deadline: Duration::from_millis(300),
                ..RoundPolicy::default()
            },
        ],
    };
    let dead = [0usize, 1, 2];
    let hier = run_hier_round_with_dead(&fed, &cfg, &topo, &InMemoryTransport, &policy, &dead)
        .expect("round should survive one failed subtree");
    assert_eq!(hier.wire.excluded, dead.to_vec());
    assert_eq!(hier.tiers[0].excluded_children, dead.to_vec());
    // The failed aggregator surfaces as a straggler at the root tier.
    assert_eq!(hier.tiers[1].excluded_children, vec![0]);
    for &z in &dead {
        for i in 0..fed.devices[z].data.cols() {
            // Fallback labels for the points the round never clustered.
            let g = fed.global_index[z][i];
            assert_eq!(hier.wire.predictions[g], 0, "device {z} point {i}");
        }
    }
    // The healthy devices still cluster correctly.
    let truth = fed.global_truth();
    let healthy: Vec<usize> = (3..12).flat_map(|z| fed.global_index[z].clone()).collect();
    let t: Vec<usize> = healthy.iter().map(|&g| truth[g]).collect();
    let p: Vec<usize> = healthy.iter().map(|&g| hier.wire.predictions[g]).collect();
    let acc = clustering_accuracy(&t, &p);
    assert!(acc > 90.0, "healthy-device accuracy {acc}");
}

#[test]
fn root_quorum_miss_fails_the_round() {
    let (fed, cfg) = deep_fixture(7, 12);
    let topo = HierTopology::new(12, vec![4]).expect("12→4→root tree");
    let policy = HierPolicy {
        tiers: vec![
            RoundPolicy {
                quorum: Some(1),
                deadline: Duration::from_millis(200),
                ..RoundPolicy::default()
            },
            // The root insists on all 4 aggregators; killing one subtree
            // entirely starves it.
            RoundPolicy {
                quorum: Some(4),
                deadline: Duration::from_millis(200),
                ..RoundPolicy::default()
            },
        ],
    };
    let err = run_hier_round_with_dead(&fed, &cfg, &topo, &InMemoryTransport, &policy, &[0, 1, 2]);
    assert!(
        err.is_err(),
        "root quorum 4/4 with a dead subtree must fail"
    );
}

#[test]
fn single_aggregator_chain_and_single_device_degenerate_trees_run() {
    // Z devices → 1 aggregator → root: the aggregator pools everything.
    let (fed, cfg) = deep_fixture(8, 12);
    let chain = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::new(12, vec![1]).expect("12→1→root chain"),
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("single-aggregator chain round");
    let acc = clustering_accuracy(&fed.global_truth(), &chain.wire.predictions);
    assert!(acc > 90.0, "chain accuracy {acc}");

    // One device straight to the root.
    let mut rng = StdRng::seed_from_u64(9);
    let model = SubspaceModel::random(&mut rng, 20, 3, 2);
    let ds = model.sample_dataset(&mut rng, &[40, 40], 0.0);
    let fed1 = partition_dataset(&ds, 1, Partition::Iid, &mut rng);
    let cfg1 = FedScConfig::new(2, CentralBackend::Ssc);
    let solo = run_hier_round(
        &fed1,
        &cfg1,
        &HierTopology::flat(1),
        &InMemoryTransport,
        &HierPolicy::default(),
    )
    .expect("single-device degenerate round");
    assert_eq!(solo.wire.predictions.len(), 80);
    assert!(solo.wire.excluded.is_empty());
}

#[test]
fn topology_mismatch_is_rejected() {
    let (fed, cfg) = fixture(1, 12);
    let err = run_hier_round(
        &fed,
        &cfg,
        &HierTopology::flat(8), // dataset has 12 devices
        &InMemoryTransport,
        &HierPolicy::default(),
    );
    assert!(err.is_err(), "device-count mismatch must be rejected");
}
