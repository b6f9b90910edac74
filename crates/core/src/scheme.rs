//! Algorithm 1: the full three-phase Fed-SC scheme, in one process.
//!
//! * **Phase 1** — every device runs its uplink role
//!   ([`crate::role::device_uplink`]: Algorithm 2, optional differential
//!   privacy, the modelled channel) in parallel.
//! * **Phase 2** — the server pools `[Theta^(z)]_z` and runs the root role
//!   ([`crate::role::root_assign`]), clustering the samples into `L`
//!   groups.
//! * **Phase 3** — every device runs its finish role
//!   ([`crate::role::device_finish`]):
//!   `T-hat_l^(z) = { i : i in T_t^(z), tau_t^(z) = l }`.

use crate::config::FedScConfig;
use crate::role::{device_finish, device_uplink, root_assign};
use fedsc_federated::channel::{account_downlink, CommStats};
use fedsc_federated::parallel::{par_map_timed, time_phase, PhaseTiming};
use fedsc_federated::partition::FederatedDataset;
use fedsc_federated::privacy::PrivacyLedger;
use fedsc_graph::AffinityGraph;
use fedsc_linalg::{Matrix, Result};
use std::time::Duration;

/// Everything a Fed-SC run produces.
#[derive(Debug, Clone)]
pub struct FedScOutput {
    /// Predicted global cluster per point, in global-point order.
    pub predictions: Vec<usize>,
    /// Predicted labels per device (local order).
    pub per_device: Vec<Vec<usize>>,
    /// Communication cost of the one-shot round.
    pub comm: CommStats,
    /// Device-phase timing (sequential = `sum_z T^(z)`, parallel = max).
    pub local_timing: PhaseTiming,
    /// Server wall time `T_c`.
    pub server_time: Duration,
    /// `r^(z)` per device.
    pub local_cluster_counts: Vec<usize>,
    /// Pooled samples `Theta` (as received by the server).
    pub samples: Matrix,
    /// Device index of each pooled sample.
    pub sample_device: Vec<usize>,
    /// Global assignment `tau` of each pooled sample.
    pub sample_assignment: Vec<usize>,
    /// Server-side affinity graph over the samples.
    pub central_graph: AffinityGraph,
    /// For every global point, the pooled-sample index representing its
    /// local cluster (`usize::MAX` for the rare cluster that produced no
    /// sample).
    pub point_sample: Vec<usize>,
    /// For every global point, its `(device, local cluster)` identity.
    pub point_cluster: Vec<(usize, usize)>,
    /// Differential-privacy ledger (empty default when DP is disabled).
    pub privacy: PrivacyLedger,
}

impl FedScOutput {
    /// The paper's running-time metric `T = sum_z T^(z) + T_c`.
    pub fn sequential_time(&self) -> Duration {
        self.local_timing.sequential + self.server_time
    }

    /// Parallel wall-clock `max_z T^(z) + T_c`.
    pub fn parallel_time(&self) -> Duration {
        self.local_timing.parallel + self.server_time
    }

    /// Induces the global affinity graph on the original points that the
    /// sample-level graph implies: points in the same local cluster are
    /// fully connected (weight 1); points represented by different samples
    /// inherit the sample-to-sample affinity. This is the graph the paper's
    /// connectivity argument (Section IV-E) and CONN comparisons use.
    pub fn induced_global_affinity(&self) -> AffinityGraph {
        let n = self.point_sample.len();
        let mut w = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                let v = if self.point_cluster[i] == self.point_cluster[j] {
                    1.0
                } else {
                    let (si, sj) = (self.point_sample[i], self.point_sample[j]);
                    if si == usize::MAX || sj == usize::MAX {
                        0.0
                    } else {
                        self.central_graph.weight(si, sj)
                    }
                };
                w[(i, j)] = v;
                w[(j, i)] = v;
            }
        }
        AffinityGraph::from_symmetric(&w)
    }
}

/// The Fed-SC scheme.
#[derive(Debug, Clone)]
pub struct FedSc {
    /// Configuration.
    pub config: FedScConfig,
}

impl FedSc {
    /// Creates the scheme with the given configuration.
    pub fn new(config: FedScConfig) -> Self {
        Self { config }
    }

    /// Runs Algorithm 1 over a partitioned dataset.
    pub fn run(&self, fed: &FederatedDataset) -> Result<FedScOutput> {
        let cfg = &self.config;
        let z_count = fed.devices.len();
        let _run_span = fedsc_obs::span("fedsc", "run").field("devices", z_count);

        // Phase 1: every device's uplink role, in parallel. Each device
        // seeds its own RNG so results are independent of thread schedule.
        let phase1_span = fedsc_obs::span("fedsc", "phase1.local").field("devices", z_count);
        let uplinks = par_map_timed(z_count, cfg.threads, |z| {
            let _device_span = fedsc_obs::span("fedsc", "phase1.device").field("device", z);
            device_uplink(&fed.devices[z].data, z, cfg)
        });
        drop(phase1_span);
        let local_timing = PhaseTiming::from_durations(uplinks.iter().map(|(_, d)| *d));

        let mut comm = CommStats::default();
        let mut privacy = PrivacyLedger::default();
        let mut outputs = Vec::with_capacity(z_count);
        let mut received = Vec::with_capacity(z_count);
        for (res, _) in uplinks {
            let up = res?;
            comm.merge(&up.comm);
            privacy.merge(&up.privacy);
            outputs.push(up.local);
            received.push(up.samples);
        }

        // Pool samples with device bookkeeping.
        let counts: Vec<usize> = received.iter().map(Matrix::cols).collect();
        let sample_device: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(z, &r)| std::iter::repeat_n(z, r))
            .collect();
        let refs: Vec<&Matrix> = received.iter().collect();
        let samples = Matrix::hcat(&refs)?;

        // Phase 2: the root role.
        let (central, server_time) = time_phase(|| root_assign(&samples, &counts, cfg));
        let (central, labels) = central?;

        // Phase 3: every device's finish role. Each point also records the
        // pooled sample representing its local cluster (the first one;
        // clusters that produced no sample have none).
        let phase3_span = fedsc_obs::span("fedsc", "phase3.update").field("devices", z_count);
        let mut per_device: Vec<Vec<usize>> = Vec::with_capacity(z_count);
        let mut point_sample = vec![usize::MAX; fed.total_points];
        let mut point_cluster = vec![(0usize, 0usize); fed.total_points];
        let mut base = 0usize;
        for (z, (out, labels)) in outputs.iter().zip(&labels).enumerate() {
            let mut first = vec![usize::MAX; out.num_local_clusters.max(1)];
            for (s, &t) in out.sample_cluster.iter().enumerate() {
                if first[t] == usize::MAX {
                    first[t] = base + s;
                }
            }
            base += counts[z];
            for (i, &t) in out.local_labels.iter().enumerate() {
                let g = fed.global_index[z][i];
                point_sample[g] = first[t];
                point_cluster[g] = (z, t);
            }
            account_downlink(&mut comm, out.sample_cluster.len(), cfg.num_clusters);
            per_device.push(device_finish(out, labels, cfg.num_clusters)?);
        }
        let predictions = fed.scatter_predictions(&per_device);
        drop(phase3_span);

        Ok(FedScOutput {
            predictions,
            per_device,
            comm,
            local_timing,
            server_time,
            local_cluster_counts: outputs.iter().map(|o| o.num_local_clusters).collect(),
            samples,
            sample_device,
            sample_assignment: central.assignments,
            central_graph: central.graph,
            point_sample,
            point_cluster,
            privacy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CentralBackend, FedScConfig};
    use fedsc_clustering::clustering_accuracy;
    use fedsc_federated::partition::{partition_dataset, Partition};
    use fedsc_subspace::SubspaceModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_synthetic(
        central: CentralBackend,
        l: usize,
        l_prime: usize,
        devices: usize,
        per_cluster: usize,
        seed: u64,
    ) -> (FedScOutput, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SubspaceModel::random(&mut rng, 20, 3, l);
        let ds = model.sample_dataset(&mut rng, &vec![per_cluster; l], 0.0);
        let fed = partition_dataset(&ds, devices, Partition::NonIid { l_prime }, &mut rng);
        let scheme = FedSc::new(FedScConfig::new(l, central));
        let out = scheme.run(&fed).unwrap();
        let truth = fed.global_truth();
        (out, truth)
    }

    #[test]
    fn fed_sc_ssc_clusters_heterogeneous_network() {
        let (out, truth) = run_synthetic(CentralBackend::Ssc, 4, 2, 20, 60, 1);
        let acc = clustering_accuracy(&truth, &out.predictions);
        assert!(acc > 90.0, "accuracy {acc}");
    }

    #[test]
    fn fed_sc_tsc_clusters_heterogeneous_network() {
        let (out, truth) = run_synthetic(CentralBackend::Tsc { q: None }, 4, 2, 24, 72, 2);
        let acc = clustering_accuracy(&truth, &out.predictions);
        assert!(acc > 85.0, "accuracy {acc}");
    }

    #[test]
    fn one_shot_communication_accounting() {
        let (out, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 30, 3);
        // One uplink and one downlink message per device: one-shot.
        assert_eq!(out.comm.uplink_messages, 6);
        assert_eq!(out.comm.downlink_messages, 6);
        // Uplink bits match the Section IV-E formula n * q * sum r^(z),
        // where the sample count actually sent can be below r^(z) when a
        // spectral cluster came back empty.
        let total_samples = out.samples.cols() as u64;
        assert_eq!(out.comm.uplink_bits, 20 * 64 * total_samples);
    }

    #[test]
    fn sample_bookkeeping_is_consistent() {
        let (out, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 30, 4);
        assert_eq!(out.samples.cols(), out.sample_device.len());
        assert_eq!(out.samples.cols(), out.sample_assignment.len());
        // Devices appear in nondecreasing order in the pooled matrix.
        assert!(out.sample_device.windows(2).all(|w| w[0] <= w[1]));
        // Every point's representative sample belongs to its own device.
        for (g, &s) in out.point_sample.iter().enumerate() {
            if s != usize::MAX {
                assert_eq!(out.sample_device[s], out.point_cluster[g].0);
            }
        }
    }

    #[test]
    fn predictions_are_constant_within_local_clusters() {
        // Phase 3 relabels whole partitions: two points of the same local
        // cluster must share a global label.
        let (out, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 24, 5);
        let n = out.predictions.len();
        for i in 0..n {
            for j in 0..n {
                if out.point_cluster[i] == out.point_cluster[j] {
                    assert_eq!(out.predictions[i], out.predictions[j]);
                }
            }
        }
    }

    #[test]
    fn induced_graph_connects_local_clusters() {
        let (out, truth) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 30, 6);
        let g = out.induced_global_affinity();
        assert_eq!(g.len(), truth.len());
        // Same-cluster points are connected with weight 1.
        let (i, j) = {
            let mut found = (0, 0);
            'outer: for i in 0..truth.len() {
                for j in 0..i {
                    if out.point_cluster[i] == out.point_cluster[j] {
                        found = (i, j);
                        break 'outer;
                    }
                }
            }
            found
        };
        assert_eq!(g.weight(i, j), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 24, 7);
        let (b, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 24, 7);
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.comm, b.comm);
    }

    #[test]
    fn noise_robustness_small_delta() {
        let mut rng = StdRng::seed_from_u64(8);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[80, 80, 80], 0.0);
        let fed = partition_dataset(&ds, 16, Partition::NonIid { l_prime: 2 }, &mut rng);
        let mut cfg = FedScConfig::new(3, CentralBackend::Ssc);
        cfg.channel.noise_delta = 0.01;
        let out = FedSc::new(cfg).run(&fed).unwrap();
        let acc = clustering_accuracy(&fed.global_truth(), &out.predictions);
        assert!(acc > 85.0, "accuracy under small noise {acc}");
    }

    #[test]
    fn dp_uplink_populates_ledger_and_costs_accuracy() {
        let mut rng = StdRng::seed_from_u64(31);
        let model = SubspaceModel::random(&mut rng, 20, 3, 3);
        let ds = model.sample_dataset(&mut rng, &[60, 60, 60], 0.0);
        let fed = partition_dataset(&ds, 12, Partition::NonIid { l_prime: 2 }, &mut rng);
        let truth = fed.global_truth();
        let clean = {
            let cfg = FedScConfig::new(3, CentralBackend::Ssc);
            let out = FedSc::new(cfg).run(&fed).unwrap();
            assert_eq!(out.privacy.devices, 0); // DP off: empty ledger
            clustering_accuracy(&truth, &out.predictions)
        };
        let private = {
            let mut cfg = FedScConfig::new(3, CentralBackend::Ssc);
            cfg.dp = Some(fedsc_federated::privacy::DpConfig::new(2.0, 1e-5));
            let out = FedSc::new(cfg).run(&fed).unwrap();
            assert_eq!(out.privacy.devices, 12);
            assert!(out.privacy.max_device_epsilon >= 2.0);
            clustering_accuracy(&truth, &out.predictions)
        };
        // Strong privacy (eps = 2 per sample, sigma ~ 4.8 on unit vectors)
        // must cost accuracy.
        assert!(private < clean, "private {private} vs clean {clean}");
    }

    #[test]
    fn timing_fields_are_populated() {
        let (out, _) = run_synthetic(CentralBackend::Ssc, 3, 2, 6, 24, 9);
        assert!(out.sequential_time() >= out.local_timing.sequential);
        assert!(out.parallel_time() <= out.sequential_time() + out.server_time);
        assert_eq!(out.local_cluster_counts.len(), 6);
    }
}
