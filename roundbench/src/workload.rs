//! The benchmark's workloads: seeded inputs, and the untraced round each
//! one runs through the library's own entry point.

use fedsc::{CentralBackend, FedSc, FedScConfig};
use fedsc_federated::partition::{partition_dataset, FederatedDataset, Partition};
use fedsc_hier::{run_hier_round, HierPolicy, HierTopology, TierTraffic};
use fedsc_linalg::Result;
use fedsc_obs::metrics;
use fedsc_subspace::SubspaceModel;
use fedsc_transport::InMemoryTransport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Device fan-out width of the flat workloads (the container has 2 cores).
pub const THREADS: usize = 2;

/// Wire codec sizes: an `UplinkMessage` is a 16-byte header plus one f64
/// per sample coordinate; a `DownlinkMessage` an 8-byte header plus one
/// u32 per sample.
const UPLINK_HEADER: u64 = 16;
const DOWNLINK_HEADER: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BigDevices,
    FleetFlat,
    FleetHier,
}

/// A named workload and the accuracy every one of its rounds must reach.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// ACC floor in percent; a round below it counts as failed.
    pub acc_floor: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "big_devices",
        kind: Kind::BigDevices,
        acc_floor: 95.0,
    },
    Workload {
        name: "fleet_flat",
        kind: Kind::FleetFlat,
        acc_floor: 80.0,
    },
    Workload {
        name: "fleet_hier",
        kind: Kind::FleetHier,
        acc_floor: 80.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One workload's generated inputs: the federation, the round's
/// configuration, and (for the tree) its topology.
pub struct Instance {
    pub fed: FederatedDataset,
    pub cfg: FedScConfig,
    pub topo: Option<HierTopology>,
    pub truth: Vec<usize>,
}

/// Generates and partitions a workload's inputs from `seed`.
pub fn setup(kind: Kind, seed: u64) -> Result<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (fed, mut cfg, topo) = match kind {
        // Z = 6 IID devices x 480 points over L = 4 rank-3 subspaces of R^40.
        Kind::BigDevices => {
            let model = SubspaceModel::random(&mut rng, 40, 3, 4);
            let ds = model.sample_dataset(&mut rng, &[720; 4], 0.0);
            let fed = partition_dataset(&ds, 6, Partition::Iid, &mut rng);
            let mut cfg = FedScConfig::new(4, CentralBackend::Ssc);
            cfg.threads = THREADS;
            cfg.kernel_threads = 1;
            (fed, cfg, None)
        }
        // The paper's Fig. 6 shape: Z = 400 devices x 30 points over L = 50
        // rank-5 subspaces of R^20, Non-IID with L' = 3 clusters per device;
        // each device estimates its own cluster count by the eigengap.
        Kind::FleetFlat => {
            let model = SubspaceModel::random(&mut rng, 20, 5, 50);
            let ds = model.sample_dataset(&mut rng, &[240; 50], 0.0);
            let fed = partition_dataset(&ds, 400, Partition::NonIid { l_prime: 3 }, &mut rng);
            let mut cfg = FedScConfig::new(50, CentralBackend::Ssc);
            cfg.threads = THREADS;
            cfg.kernel_threads = 1;
            (fed, cfg, None)
        }
        // Z = 2,560 devices x 8 points over L = 8 rank-2 subspaces of R^16,
        // one cluster per device, four samples per local cluster, through
        // two aggregator tiers (160 then 16) to the root.
        Kind::FleetHier => {
            let model = SubspaceModel::random(&mut rng, 16, 2, 8);
            let ds = model.sample_dataset(&mut rng, &[2_560; 8], 0.0);
            let fed = partition_dataset(&ds, 2_560, Partition::NonIid { l_prime: 1 }, &mut rng);
            let mut cfg = FedScConfig::new(8, CentralBackend::Ssc);
            cfg.samples_per_cluster = 4;
            cfg.threads = THREADS;
            cfg.kernel_threads = 1;
            let topo = HierTopology::new(2_560, vec![160, 16])?;
            (fed, cfg, Some(topo))
        }
    };
    cfg.seed = seed;
    let truth = fed.global_truth();
    Ok(Instance {
        fed,
        cfg,
        topo,
        truth,
    })
}

/// Registry counters the benchmark reads around its calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub lasso_sweeps: u64,
    pub spectral_matvecs: u64,
    pub pool_tasks: u64,
    pub pool_tasks_inline: u64,
    pub pool_steals: u64,
}

impl Counters {
    pub fn read() -> Self {
        let snap = metrics::snapshot();
        let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        Counters {
            lasso_sweeps: get("lasso.sweeps"),
            spectral_matvecs: get("spectral.matvecs"),
            pool_tasks: get("pool.tasks"),
            pool_tasks_inline: get("pool.tasks_inline"),
            pool_steals: get("pool.steals"),
        }
    }

    /// Counts accrued since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            lasso_sweeps: self.lasso_sweeps - earlier.lasso_sweeps,
            spectral_matvecs: self.spectral_matvecs - earlier.spectral_matvecs,
            pool_tasks: self.pool_tasks - earlier.pool_tasks,
            pool_tasks_inline: self.pool_tasks_inline - earlier.pool_tasks_inline,
            pool_steals: self.pool_steals - earlier.pool_steals,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.lasso_sweeps += other.lasso_sweeps;
        self.spectral_matvecs += other.spectral_matvecs;
        self.pool_tasks += other.pool_tasks;
        self.pool_tasks_inline += other.pool_tasks_inline;
        self.pool_steals += other.pool_steals;
    }
}

/// What one round must reproduce exactly, on every round of a run and in
/// the traced run: the labels, the traffic, and the schedule-independent
/// solver counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub labels: Vec<usize>,
    pub uplink_bytes: u64,
    pub downlink_bytes: u64,
    pub uplink_msgs: u64,
    pub downlink_msgs: u64,
    pub lasso_sweeps: u64,
    pub spectral_matvecs: u64,
}

/// An untraced round's result.
pub struct Untraced {
    /// Wall time of the library call alone.
    pub wall_s: f64,
    pub fingerprint: Fingerprint,
    /// Per-tier traffic and wall time (tree workload only).
    pub tiers: Vec<TierTraffic>,
}

/// Runs one untraced round through the library's entry point:
/// `FedSc::run` for the flat workloads, `run_hier_round` over the
/// in-memory transport for the tree. Only the call itself is timed; the
/// counter reads around it are not.
pub fn run_untraced(inst: &Instance) -> Result<Untraced> {
    let before = Counters::read();
    let start = Instant::now();
    let (wall, labels, up, down, tiers) = match &inst.topo {
        None => {
            let out = FedSc::new(inst.cfg.clone()).run(&inst.fed)?;
            let wall = start.elapsed();
            // FedSc::run moves no bytes: count what the wire codec would
            // carry for the same exchange, as the lossless link does.
            let dim = out.samples.rows() as u64;
            let mut per_device = vec![0u64; inst.fed.devices.len()];
            for &z in &out.sample_device {
                per_device[z] += 1;
            }
            let up = (
                per_device.len() as u64,
                per_device
                    .iter()
                    .map(|&r| UPLINK_HEADER + 8 * dim * r)
                    .sum::<u64>(),
            );
            let down = (
                per_device.len() as u64,
                per_device
                    .iter()
                    .map(|&r| DOWNLINK_HEADER + 4 * r)
                    .sum::<u64>(),
            );
            if out.comm.uplink_messages != up.0 || out.comm.downlink_messages != down.0 {
                return Err(fedsc_linalg::LinalgError::InvalidArgument(
                    "FedSc::run message count differs from one per device",
                ));
            }
            (wall, out.predictions, up, down, Vec::new())
        }
        Some(topo) => {
            let out = run_hier_round(
                &inst.fed,
                &inst.cfg,
                topo,
                &InMemoryTransport,
                &HierPolicy::default(),
            )?;
            let wall = start.elapsed();
            if !out.wire.excluded.is_empty() {
                return Err(fedsc_linalg::LinalgError::InvalidArgument(
                    "a clean in-memory tree round excluded devices",
                ));
            }
            let up = (
                out.tiers.iter().map(|t| t.uplink_messages).sum(),
                out.total_uplink_bytes() as u64,
            );
            let down = (
                out.tiers.iter().map(|t| t.downlink_messages).sum(),
                out.total_downlink_bytes() as u64,
            );
            (wall, out.wire.predictions, up, down, out.tiers)
        }
    };
    let delta = Counters::read().since(&before);
    Ok(Untraced {
        wall_s: wall.as_secs_f64(),
        fingerprint: Fingerprint {
            labels,
            uplink_bytes: up.1,
            downlink_bytes: down.1,
            uplink_msgs: up.0,
            downlink_msgs: down.0,
            lasso_sweeps: delta.lasso_sweeps,
            spectral_matvecs: delta.spectral_matvecs,
        },
        tiers,
    })
}
