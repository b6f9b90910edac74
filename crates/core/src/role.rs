//! The three roles of Algorithm 1, written once for every executor.
//!
//! * **Device.** [`device_uplink`] runs Algorithm 2 and releases its
//!   samples through the optional differential-privacy mechanism and the
//!   modelled channel. [`device_finish`] applies the Phase-3 majority
//!   relabel to the labels its parent sends back.
//! * **Root.** [`root_assign`] clusters the pooled samples into `L` global
//!   groups and slices the assignments into one label list per child.
//! * **Aggregator.** [`Aggregator::merge`] clusters a subtree's pooled
//!   samples and keeps one representative per merged cluster;
//!   [`Aggregator::relay`] composes the parent's labels for those
//!   representatives into one label list per child.
//!
//! [`crate::scheme::FedSc::run`] runs the roles in one process,
//! [`crate::wire`] over a transport, `fedsc-hier` over an aggregation tree
//! and the `fedsc-server`/`fedsc-device`/`fedsc-agg` binaries over TCP.
//! Each executor adds only scheduling, transport and accounting, so every
//! shape derives the same labels under the same seeds. A flat round is the
//! depth-1 tree: the root answers the devices directly.

use crate::central::{central_cluster, central_cluster_auto, CentralOutput};
use crate::config::FedScConfig;
use crate::local::{local_cluster_and_sample, LocalOutput};
use fedsc_federated::channel::{transmit_uplink, CommStats};
use fedsc_federated::privacy::{privatize_samples, PrivacyLedger};
use fedsc_linalg::{LinalgError, Matrix, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Salt XORed into [`FedScConfig::seed`] to derive the root's
/// central-clustering rng stream. Every executor's root goes through
/// [`root_assign`], which is what keeps the degenerate single-tier tree
/// bit-identical to the flat round.
pub const SERVER_RNG_SALT: u64 = 0x0ce2_74a1;

/// Rng seed for the aggregator at tier `tier`, node `node` of an
/// aggregation tree — the root's salt stream mixed with a per-node offset
/// so sibling aggregators draw independent spectral-clustering
/// initializations. The root itself uses the unmixed
/// `seed ^ SERVER_RNG_SALT`.
pub fn agg_seed(seed: u64, tier: usize, node: usize) -> u64 {
    (seed ^ SERVER_RNG_SALT)
        ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul((((tier as u64) + 1) << 32) | ((node as u64) + 1))
}

/// One device's Phase 1: what it keeps and what it releases.
#[derive(Debug, Clone)]
pub struct DeviceUplink {
    /// Algorithm 2's output, kept on the device for [`device_finish`].
    pub local: LocalOutput,
    /// The released samples after differential privacy and the channel:
    /// exactly what the parent receives.
    pub samples: Matrix,
    /// Modelled channel cost of the upload.
    pub comm: CommStats,
    /// Privacy ledger of the release (empty when `cfg.dp` is `None`).
    pub privacy: PrivacyLedger,
}

/// Device `z`'s uplink role: Algorithm 2 on `data`, then `cfg.dp`, then
/// `cfg.channel`, all drawing from the single `cfg.seed + z` rng so the
/// result is independent of thread schedule and executor.
pub fn device_uplink(data: &Matrix, z: usize, cfg: &FedScConfig) -> Result<DeviceUplink> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(z as u64));
    let local = local_cluster_and_sample(data, cfg, &mut rng)?;
    let mut privacy = PrivacyLedger::default();
    let privatized = cfg
        .dp
        .as_ref()
        .map(|dp| privatize_samples(dp, &local.samples, &mut privacy, &mut rng));
    let mut comm = CommStats::default();
    let release = privatized.as_ref().unwrap_or(&local.samples);
    let samples = transmit_uplink(&cfg.channel, release, &mut comm, &mut rng);
    Ok(DeviceUplink {
        local,
        samples,
        comm,
        privacy,
    })
}

/// Phase 3 vote: maps each of `num_local_clusters` local clusters to the
/// majority global assignment of its uploaded samples (ties break toward
/// the lower global id; clusters whose samples were all dropped keep the
/// fallback label 0). Every label in `assignments` must be below
/// `num_global.max(1)`; [`device_finish`] checks that before voting.
pub fn majority_relabel(
    sample_cluster: &[usize],
    num_local_clusters: usize,
    assignments: &[u32],
    num_global: usize,
) -> Vec<usize> {
    let mut cluster_to_global = vec![0usize; num_local_clusters.max(1)];
    let mut votes = vec![vec![0usize; num_global.max(1)]; num_local_clusters.max(1)];
    for (s, &t) in sample_cluster.iter().enumerate() {
        votes[t][assignments[s] as usize] += 1;
    }
    for (t, vote) in votes.iter().enumerate() {
        if let Some((best, _)) = vote
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .filter(|&(_, &c)| c > 0)
        {
            cluster_to_global[t] = best;
        }
    }
    cluster_to_global
}

/// The device's finish role: checks the `labels` its parent sent (one per
/// uploaded sample, each below `num_global`), relabels the local clusters
/// by majority vote and returns one global label per local point.
pub fn device_finish(local: &LocalOutput, labels: &[u32], num_global: usize) -> Result<Vec<usize>> {
    if labels.len() != local.sample_cluster.len() {
        return Err(LinalgError::InvalidArgument(
            "downlink assignment count mismatch",
        ));
    }
    if labels.iter().any(|&a| a as usize >= num_global.max(1)) {
        return Err(LinalgError::InvalidArgument("downlink label out of range"));
    }
    let cluster_to_global = majority_relabel(
        &local.sample_cluster,
        local.num_local_clusters,
        labels,
        num_global,
    );
    Ok(local
        .local_labels
        .iter()
        .map(|&t| cluster_to_global[t])
        .collect())
}

/// Splits `labels` into consecutive runs of `counts[i]` entries, one per
/// child in pooling order.
fn per_child(labels: &[u32], counts: &[usize]) -> Vec<Vec<u32>> {
    let mut rest = labels;
    counts
        .iter()
        .map(|&r| {
            let (head, tail) = rest.split_at(r.min(rest.len()));
            rest = tail;
            head.to_vec()
        })
        .collect()
}

/// The root's role: clusters `pooled` (the children's samples in pooling
/// order, `counts[i]` columns from child `i`) into `cfg.num_clusters`
/// global groups under the `seed ^ SERVER_RNG_SALT` stream. Returns the
/// central output and one label list per child.
pub fn root_assign(
    pooled: &Matrix,
    counts: &[usize],
    cfg: &FedScConfig,
) -> Result<(CentralOutput, Vec<Vec<u32>>)> {
    let _span = fedsc_obs::span("fedsc", "phase2.central").field("samples", pooled.cols());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SERVER_RNG_SALT);
    let central = central_cluster(
        pooled,
        cfg.num_clusters,
        counts.len(),
        cfg.central,
        cfg.candidate_threshold,
        &mut rng,
    )?;
    let labels: Vec<u32> = central.assignments.iter().map(|&a| a as u32).collect();
    let per_child = per_child(&labels, counts);
    Ok((central, per_child))
}

/// An aggregation-tree node between its uplink and downlink sweeps: what
/// it needs to turn the parent's labels for its representatives into one
/// label list per child.
#[derive(Debug, Clone)]
pub struct Aggregator {
    /// Children that reported, in pooling order.
    included: Vec<usize>,
    /// Sample count per included child.
    counts: Vec<usize>,
    /// Merged-cluster assignment per pooled sample.
    assignments: Vec<usize>,
    /// Merged cluster → upload slot of its representative.
    rep_slot: Vec<usize>,
    /// Number of representatives uploaded.
    reps: usize,
}

impl Aggregator {
    /// Merges the children's samples (`pooled`, from [`crate::pool_uplinks`]
    /// with its `included` children and per-child `counts`) at tree node
    /// (`tier`, `node`). The merged count is eigengap-estimated and capped
    /// at `L`: a subtree may cover only a few of the global clusters, and
    /// forcing `L` partitions onto fewer natural groups makes spectral
    /// k-means mix subspaces. Returns the node and its representatives, one
    /// pooled sample per non-empty merged cluster, to upload.
    pub fn merge(
        included: Vec<usize>,
        counts: Vec<usize>,
        pooled: &Matrix,
        cfg: &FedScConfig,
        tier: usize,
        node: usize,
    ) -> Result<(Self, Matrix)> {
        let mut rng = StdRng::seed_from_u64(agg_seed(cfg.seed, tier, node));
        let (central, l_merge) = central_cluster_auto(
            pooled,
            cfg.num_clusters.min(pooled.cols()),
            included.len(),
            cfg.central,
            cfg.candidate_threshold,
            &mut rng,
        )?;
        let mut rep_slot = vec![usize::MAX; l_merge];
        let mut rep_cols: Vec<&[f64]> = Vec::with_capacity(l_merge);
        for (s, &m) in central.assignments.iter().enumerate() {
            if rep_slot[m] == usize::MAX {
                rep_slot[m] = rep_cols.len();
                rep_cols.push(pooled.col(s));
            }
        }
        let reps = Matrix::from_columns(&rep_cols)?;
        let node = Aggregator {
            included,
            counts,
            assignments: central.assignments,
            rep_slot,
            reps: rep_cols.len(),
        };
        Ok((node, reps))
    }

    /// Composes `parent_labels` (one per representative) through the merge
    /// — child sample → merged cluster → representative → label — into one
    /// `(child, labels)` pair per included child.
    pub fn relay(&self, parent_labels: &[u32]) -> Result<Vec<(usize, Vec<u32>)>> {
        if parent_labels.len() != self.reps {
            return Err(LinalgError::InvalidArgument(
                "downlink assignment count mismatch at an aggregator",
            ));
        }
        let composed: Vec<u32> = self
            .assignments
            .iter()
            .map(|&m| parent_labels[self.rep_slot[m]])
            .collect();
        let per_child = per_child(&composed, &self.counts);
        Ok(self.included.iter().copied().zip(per_child).collect())
    }

    /// Number of representatives [`Aggregator::merge`] returned.
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Children that reported, in pooling order.
    pub fn included(&self) -> &[usize] {
        &self.included
    }
}
