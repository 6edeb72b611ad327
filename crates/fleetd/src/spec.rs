//! Fleet job specifications: what a distributed run computes.
//!
//! A [`FleetSpec`] is the complete, serializable description of a fleet
//! job — the one artifact the coordinator ships to every worker, and the
//! contents of the file behind `snip fleet --spec`. It names either a
//! *fleet* (many nodes, one mechanism) or a *sweep grid* (the Fig 7/8
//! `(ζtarget, mechanism)` product over one profile), and [`JobRunner`]
//! turns it into an indexed job list: job `i` is a pure function of
//! `(spec, i)`, so any process that holds the spec computes bit-identical
//! metrics for it.

use serde::{Deserialize, Serialize, Value};
use snip_core::{MechanismScheduler, SnipAt, SnipOptScheduler, SnipRh, SnipRhConfig};
use snip_mobility::EpochProfile;
use snip_model::SnipModel;
use snip_sim::{
    Fleet, FleetNode, FleetReport, Mechanism, RunMetrics, ScenarioRunner, SimConfig, SweepPoint,
};
use snip_units::SimDuration;

/// One node of a fleet job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable site name.
    pub name: String,
    /// The contact process at this site.
    pub profile: EpochProfile,
    /// Per-epoch upload target in seconds of airtime.
    pub zeta_target: f64,
}

/// What kind of job the fleet driver shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// A deployment fleet: one job per node, all running `mechanism`.
    Fleet {
        /// The scheduling mechanism every node runs.
        mechanism: Mechanism,
        /// The fleet's nodes, in fleet order.
        nodes: Vec<NodeSpec>,
    },
    /// A Fig 7/8 sweep grid over one profile: one job per
    /// `(ζtarget, mechanism)` pair, in sweep order.
    Sweep {
        /// The contact process all points simulate against.
        profile: EpochProfile,
        /// The capacity targets, seconds per epoch.
        zeta_targets: Vec<f64>,
    },
}

/// A complete, shippable fleet job description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Free-form job name (shows up in reports).
    pub name: String,
    /// Base RNG seed (traces and simulation draws derive from it exactly
    /// as the in-process `Fleet`/`ScenarioRunner` derive theirs).
    pub seed: u64,
    /// Epochs (days) each simulation runs.
    pub epochs: u64,
    /// Per-epoch probing budget `Φmax`, seconds.
    pub phi_max_secs: f64,
    /// The sharded job.
    pub job: JobSpec,
}

impl FleetSpec {
    /// Validates the spec, returning a human-readable complaint.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.epochs == 0 {
            return Err("epochs must be at least 1".into());
        }
        if !(self.phi_max_secs.is_finite() && self.phi_max_secs > 0.0) {
            return Err("phi_max_secs must be positive".into());
        }
        match &self.job {
            JobSpec::Fleet { nodes, .. } => {
                if nodes.is_empty() {
                    return Err("a fleet job needs at least one node".into());
                }
                for node in nodes {
                    if !(node.zeta_target.is_finite() && node.zeta_target >= 0.0) {
                        return Err(format!(
                            "node `{}`: zeta_target must be non-negative",
                            node.name
                        ));
                    }
                }
            }
            JobSpec::Sweep { zeta_targets, .. } => {
                if zeta_targets.is_empty() {
                    return Err("a sweep job needs at least one zeta target".into());
                }
                if zeta_targets.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
                    return Err("sweep zeta targets must all be positive".into());
                }
            }
        }
        Ok(())
    }

    /// The simulation configuration every job runs under (the paper's
    /// defaults at this spec's epoch count; per-node targets are applied
    /// by the fleet machinery exactly as `Fleet::run` applies them).
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::paper_defaults().with_epochs(self.epochs)
    }

    /// Number of independent jobs this spec shards into.
    #[must_use]
    pub fn job_count(&self) -> u64 {
        match &self.job {
            JobSpec::Fleet { nodes, .. } => nodes.len() as u64,
            JobSpec::Sweep { zeta_targets, .. } => {
                (zeta_targets.len() * Mechanism::ALL.len()) as u64
            }
        }
    }

    /// A stable 64-bit digest of the complete spec (FNV-1a over its
    /// canonical JSON encoding). Both sides of the fleet handshake exchange
    /// it so a worker joining the wrong run — or a spec corrupted in
    /// flight — is refused before any shard is dealt, never merged.
    #[must_use]
    pub fn spec_hash(&self) -> u64 {
        Self::hash_value(&self.to_value())
    }

    /// [`FleetSpec::spec_hash`] from the spec's own `to_value()` tree, for
    /// a caller that already holds it (the coordinator hashes the `spec`
    /// entry of the `Init` tree it encodes). Never hash a `Value` decoded
    /// off the wire: derived decoding ignores unknown keys, so a worker
    /// build that drops a spec field would still match the coordinator.
    pub(crate) fn hash_value(value: &Value) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let canonical = serde::json::to_string(value);
        let mut hash = FNV_OFFSET;
        for byte in canonical.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// Parses a spec from JSON text (the `--spec` file format).
    ///
    /// # Errors
    ///
    /// Returns the codec or validation complaint.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde::json::from_str(text).map_err(|e| e.to_string())?;
        let spec = Self::from_value(&value).map_err(|e| e.to_string())?;
        spec.validate()?;
        Ok(spec)
    }
}

/// Merged output of a fleet job — what the coordinator hands back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetOutput {
    /// A fleet job's merged report.
    Fleet(FleetReport),
    /// A sweep job's points, in sweep order.
    Sweep(Vec<SweepPoint>),
}

/// A spec turned runnable: the indexed job list plus the merge rules.
///
/// Built identically by the coordinator (for merging and sequential
/// verification) and by every worker (for executing shards): job `i`
/// depends only on the spec, never on which process runs it.
pub struct JobRunner {
    spec: FleetSpec,
    inner: Inner,
}

enum Inner {
    Fleet {
        fleet: Fleet,
    },
    Sweep {
        runner: ScenarioRunner,
        jobs: Vec<(f64, Mechanism)>,
    },
}

impl JobRunner {
    /// Builds the runner for a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (validate first).
    #[must_use]
    pub fn new(spec: &FleetSpec) -> Self {
        assert!(spec.validate().is_ok(), "spec must be validated");
        let inner = match &spec.job {
            JobSpec::Fleet { nodes, .. } => {
                let fleet_nodes = nodes
                    .iter()
                    .map(|n| FleetNode::new(n.name.clone(), n.profile.clone(), n.zeta_target))
                    .collect();
                Inner::Fleet {
                    fleet: Fleet::new(fleet_nodes, spec.sim_config()).with_seed(spec.seed),
                }
            }
            JobSpec::Sweep {
                profile,
                zeta_targets,
            } => Inner::Sweep {
                runner: ScenarioRunner::new(profile.clone(), spec.sim_config(), spec.phi_max_secs)
                    .with_seed(spec.seed),
                jobs: ScenarioRunner::sweep_jobs(zeta_targets),
            },
        };
        JobRunner {
            spec: spec.clone(),
            inner,
        }
    }

    /// The spec this runner executes.
    #[must_use]
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Number of jobs (equals [`FleetSpec::job_count`]).
    #[must_use]
    pub fn job_count(&self) -> u64 {
        self.spec.job_count()
    }

    /// The scheduler a fleet node runs, configured exactly as
    /// [`ScenarioRunner`] configures the paper's mechanisms (but against
    /// the node's own profile and target).
    #[must_use]
    pub fn node_scheduler(&self, mechanism: Mechanism, node: &FleetNode) -> MechanismScheduler {
        let config = self.spec.sim_config();
        let phi_max = self.spec.phi_max_secs;
        match mechanism {
            Mechanism::SnipAt => SnipAt::for_target(
                SnipModel::new(config.ton),
                &node.profile.to_slot_profile(),
                phi_max,
                node.zeta_target,
            )
            .into(),
            Mechanism::SnipOpt => SnipOptScheduler::solve(
                SnipModel::new(config.ton),
                node.profile.to_slot_profile(),
                phi_max,
                node.zeta_target,
            )
            .into(),
            Mechanism::SnipRh => SnipRh::new(SnipRhConfig {
                rush_marks: node.profile.rush_marks(),
                epoch: config.epoch,
                ton: config.ton,
                phi_max: SimDuration::from_secs_f64(phi_max),
                ewma_weight: 0.1,
                initial_contact_length: node.profile.mean_contact_length(),
                length_estimation: snip_core::LengthEstimation::Exact,
                min_duty_cycle: 1e-5,
                duty_cycle_multiplier: 1.0,
            })
            .into(),
        }
    }

    /// Runs job `i` and returns its exact-ledger metrics.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn run_job(&self, i: u64) -> RunMetrics {
        match &self.inner {
            Inner::Fleet { fleet } => {
                let JobSpec::Fleet { mechanism, .. } = &self.spec.job else {
                    unreachable!("fleet runner built from a fleet spec");
                };
                let node = &fleet.nodes()[i as usize];
                fleet.run_node(i as usize, self.node_scheduler(*mechanism, node))
            }
            Inner::Sweep { runner, jobs } => {
                let (target, mechanism) = jobs[i as usize];
                runner.run_one(mechanism, target)
            }
        }
    }

    /// Merges per-job metrics (in job order) into the final output,
    /// deriving outcomes exactly as the in-process engines derive them.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` does not carry one entry per job.
    #[must_use]
    pub fn merge(&self, metrics: &[RunMetrics]) -> FleetOutput {
        assert_eq!(
            metrics.len() as u64,
            self.job_count(),
            "need exactly one metrics entry per job"
        );
        match &self.inner {
            Inner::Fleet { fleet } => FleetOutput::Fleet(fleet.report_from_metrics(metrics)),
            Inner::Sweep { jobs, .. } => FleetOutput::Sweep(
                jobs.iter()
                    .zip(metrics)
                    .map(|(&(target, mechanism), m)| {
                        ScenarioRunner::point_from_metrics(target, mechanism, m)
                    })
                    .collect(),
            ),
        }
    }

    /// The single-process reference run: [`Fleet::run`] or
    /// [`ScenarioRunner::sweep`], the sequential baseline every
    /// distributed run must reproduce bit-for-bit.
    #[must_use]
    pub fn run_sequential(&self) -> FleetOutput {
        match &self.inner {
            Inner::Fleet { fleet } => {
                let JobSpec::Fleet { mechanism, .. } = &self.spec.job else {
                    unreachable!("fleet runner built from a fleet spec");
                };
                FleetOutput::Fleet(fleet.run(|node| self.node_scheduler(*mechanism, node)))
            }
            Inner::Sweep { runner, .. } => {
                let JobSpec::Sweep { zeta_targets, .. } = &self.spec.job else {
                    unreachable!("sweep runner built from a sweep spec");
                };
                FleetOutput::Sweep(runner.sweep(zeta_targets))
            }
        }
    }
}

/// A compact built-in example spec (what `snip fleet --example` prints):
/// a four-node roadside fleet on SNIP-RH.
#[must_use]
pub fn example_spec() -> FleetSpec {
    FleetSpec {
        name: "roadside-demo".into(),
        seed: 42,
        epochs: 7,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet {
            mechanism: Mechanism::SnipRh,
            nodes: (0..4)
                .map(|i| NodeSpec {
                    name: format!("site-{i}"),
                    profile: EpochProfile::roadside(),
                    zeta_target: 8.0 + 4.0 * f64::from(i),
                })
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = example_spec();
        let text = serde::json::to_string(&spec.to_value());
        let back = FleetSpec::from_json(&text).expect("round trip");
        assert_eq!(back, spec);
    }

    #[test]
    fn example_spec_hash_is_pinned() {
        // Checkpoint headers store this hash: a change here strands every
        // journal written by an earlier build.
        assert_eq!(example_spec().spec_hash(), 0x4513_57e3_ae2b_298d);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut spec = example_spec();
        spec.epochs = 0;
        assert!(spec.validate().is_err());
        let mut spec = example_spec();
        spec.phi_max_secs = -1.0;
        assert!(spec.validate().is_err());
        let mut spec = example_spec();
        spec.job = JobSpec::Sweep {
            profile: EpochProfile::roadside(),
            zeta_targets: vec![],
        };
        assert!(spec.validate().is_err());
        assert!(FleetSpec::from_json("{not json").is_err());
    }

    #[test]
    fn fleet_jobs_merge_to_the_sequential_report() {
        let spec = FleetSpec {
            epochs: 3,
            ..example_spec()
        };
        let runner = JobRunner::new(&spec);
        let metrics: Vec<RunMetrics> = (0..runner.job_count()).map(|i| runner.run_job(i)).collect();
        assert_eq!(runner.merge(&metrics), runner.run_sequential());
    }

    #[test]
    fn sweep_jobs_merge_to_the_sequential_sweep() {
        let spec = FleetSpec {
            name: "sweep-demo".into(),
            seed: 7,
            epochs: 2,
            phi_max_secs: 86.4,
            job: JobSpec::Sweep {
                profile: EpochProfile::roadside(),
                zeta_targets: vec![16.0, 32.0],
            },
        };
        let runner = JobRunner::new(&spec);
        assert_eq!(runner.job_count(), 6, "2 targets x 3 mechanisms");
        let metrics: Vec<RunMetrics> = (0..runner.job_count()).map(|i| runner.run_job(i)).collect();
        let FleetOutput::Sweep(points) = runner.merge(&metrics) else {
            panic!("sweep spec merges to sweep points");
        };
        let FleetOutput::Sweep(reference) = runner.run_sequential() else {
            panic!("sweep spec runs a sweep");
        };
        assert_eq!(points, reference);
    }
}
