//! Fleet simulation: many independent sensor nodes, one report.
//!
//! The paper's target deployments (meter reading, environmental monitoring)
//! consist of many sparse nodes, each seeing its own contact process.
//! [`Fleet`] runs one scheduler per node over per-node traces and aggregates
//! the outcomes — what a deployment dashboard would show. Nodes are
//! independent by the §II reference model (the network is sparse), so the
//! fleet is simply a batch of single-node simulations with bookkeeping.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use snip_core::ProbeScheduler;
use snip_mobility::{ContactTrace, EpochProfile, TraceGenerator};

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::node::Simulation;

/// One node's place in the fleet: a name, its environment, and its task.
#[derive(Debug, Clone)]
pub struct FleetNode {
    /// Human-readable site name.
    pub name: String,
    /// The contact process at this site.
    pub profile: EpochProfile,
    /// Per-epoch upload target in seconds of airtime.
    pub zeta_target: f64,
}

impl FleetNode {
    /// Creates a fleet node.
    ///
    /// # Panics
    ///
    /// Panics if `zeta_target` is negative.
    #[must_use]
    pub fn new(name: impl Into<String>, profile: EpochProfile, zeta_target: f64) -> Self {
        assert!(zeta_target >= 0.0, "ζtarget must be non-negative");
        FleetNode {
            name: name.into(),
            profile,
            zeta_target,
        }
    }
}

/// One node's outcome within a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// The node's name.
    pub name: String,
    /// Mean probed capacity per epoch, seconds.
    pub zeta: f64,
    /// Mean probing overhead per epoch, seconds.
    pub phi: f64,
    /// Mean uploaded data per epoch, airtime seconds.
    pub uploaded: f64,
    /// Whether uploads kept pace with the node's target (≥ 90%).
    pub target_met: bool,
}

/// Aggregated fleet results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-node outcomes, in fleet order.
    pub nodes: Vec<NodeOutcome>,
}

impl FleetReport {
    /// Number of nodes meeting their upload target.
    #[must_use]
    pub fn nodes_meeting_target(&self) -> usize {
        self.nodes.iter().filter(|n| n.target_met).count()
    }

    /// Mean probing overhead across nodes, seconds per epoch.
    #[must_use]
    pub fn mean_phi(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.phi).sum::<f64>() / self.nodes.len() as f64
    }

    /// The node with the worst unit cost, if any probed at all.
    #[must_use]
    pub fn worst_rho(&self) -> Option<(&str, f64)> {
        self.nodes
            .iter()
            .filter(|n| n.zeta > 0.0)
            .map(|n| (n.name.as_str(), n.phi / n.zeta))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite ρ"))
    }
}

/// A fleet of independent sensor nodes.
#[derive(Debug, Clone)]
pub struct Fleet {
    nodes: Vec<FleetNode>,
    config: SimConfig,
    seed: u64,
}

impl Fleet {
    /// Creates a fleet with a shared simulation configuration.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    #[must_use]
    pub fn new(nodes: Vec<FleetNode>, config: SimConfig) -> Self {
        assert!(!nodes.is_empty(), "a fleet needs at least one node");
        Fleet {
            nodes,
            config,
            seed: 0xf1ee7,
        }
    }

    /// Overrides the base RNG seed (each node derives its own from it).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The nodes.
    #[must_use]
    pub fn nodes(&self) -> &[FleetNode] {
        &self.nodes
    }

    /// The per-node traces this fleet will simulate against.
    #[must_use]
    pub fn traces(&self) -> Vec<ContactTrace> {
        (0..self.nodes.len()).map(|i| self.node_trace(i)).collect()
    }

    /// Node `i`'s contact trace, derived from the fleet seed. The single
    /// source of the per-node seed scheme — sequential and parallel runs
    /// must agree on it bit for bit.
    fn node_trace(&self, i: usize) -> ContactTrace {
        TraceGenerator::new(self.nodes[i].profile.clone())
            .epochs(self.config.epochs)
            .generate(&mut StdRng::seed_from_u64(self.seed.wrapping_add(i as u64)))
    }

    /// Node `i`'s simulation RNG seed (beacon-loss draws).
    fn node_sim_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_add(1_000 + i as u64)
    }

    /// Folds a finished run into the node's reported outcome.
    fn node_outcome(node: &FleetNode, metrics: &RunMetrics) -> NodeOutcome {
        let uploaded = metrics.mean_uploaded_per_epoch();
        NodeOutcome {
            name: node.name.clone(),
            zeta: metrics.mean_zeta_per_epoch(),
            phi: metrics.mean_phi_per_epoch(),
            uploaded,
            target_met: uploaded >= node.zeta_target * 0.9,
        }
    }

    /// Runs node `i` alone and returns its full exact-ledger metrics —
    /// the shard unit of a distributed fleet run. Uses the identical
    /// per-node trace/seed derivation as [`Fleet::run`], so the metrics
    /// are bit-for-bit the ones the sequential run would have produced,
    /// no matter which process or host executes the node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn run_node<S: ProbeScheduler>(&self, i: usize, scheduler: S) -> RunMetrics {
        let node = &self.nodes[i];
        // Wall-clock observability only — never read by the simulation.
        let _span = snip_obs::span!("fleet-node {} ({i})", node.name);
        // snip-lint: allow(wall-clock): "per-node wall-time metric; never read by the simulation"
        let node_start = std::time::Instant::now();
        let trace = self.node_trace(i);
        let config = self.config.clone().with_zeta_target_secs(node.zeta_target);
        let mut sim = Simulation::new(config, &trace, scheduler);
        let metrics = sim.run(&mut StdRng::seed_from_u64(self.node_sim_seed(i)));
        snip_obs::metrics::histogram("snip_fleet_node_us").observe(node_start.elapsed());
        metrics
    }

    /// Assembles a [`FleetReport`] from per-node metrics in fleet order —
    /// the merge half of [`Fleet::run_node`]. Outcomes are derived exactly
    /// as [`Fleet::run`] derives them, so a report merged from shards
    /// equals the sequential report whenever the metrics do.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` does not carry one entry per fleet node.
    #[must_use]
    pub fn report_from_metrics(&self, metrics: &[RunMetrics]) -> FleetReport {
        assert_eq!(
            metrics.len(),
            self.nodes.len(),
            "need exactly one metrics entry per fleet node"
        );
        FleetReport {
            nodes: self
                .nodes
                .iter()
                .zip(metrics)
                .map(|(node, m)| Self::node_outcome(node, m))
                .collect(),
        }
    }

    /// Runs the fleet, building one scheduler per node via `make_scheduler`
    /// (which receives the node so it can read its profile and target).
    pub fn run<S, F>(&self, make_scheduler: F) -> FleetReport
    where
        S: ProbeScheduler,
        F: FnMut(&FleetNode) -> S,
    {
        self.run_observed(make_scheduler, &mut crate::observe::NoopObserver)
    }

    /// [`Fleet::run`] sharded across up to `threads` workers, one node per
    /// job.
    ///
    /// Nodes are independent by the §II reference model, and each derives
    /// its trace and simulation RNG from the fleet seed exactly as the
    /// sequential run does; outcomes are collected in fleet order, so the
    /// report is bit-for-bit identical for every thread count.
    pub fn run_parallel<S, F>(&self, make_scheduler: F, threads: usize) -> FleetReport
    where
        S: ProbeScheduler,
        F: Fn(&FleetNode) -> S + Sync,
    {
        let outcomes = crate::parallel::parallel_map(self.nodes.len(), threads, |i| {
            let node = &self.nodes[i];
            let metrics = self.run_node(i, make_scheduler(node));
            Self::node_outcome(node, &metrics)
        });
        FleetReport { nodes: outcomes }
    }

    /// [`Fleet::run`] with a recording hook: the observer sees one
    /// [`SimEvent::NodeStart`](crate::SimEvent::NodeStart) per node
    /// followed by that node's full event stream, in fleet order — a
    /// whole deployment in one journal.
    ///
    /// If the observer returns [`ObserverFlow::Stop`] anywhere — at a
    /// `NodeStart` or mid-node — the fleet aborts: the interrupted node's
    /// partial metrics are *not* reported as an outcome, and no further
    /// nodes run.
    ///
    /// [`ObserverFlow::Stop`]: crate::observe::ObserverFlow::Stop
    pub fn run_observed<S, F, O>(&self, mut make_scheduler: F, observer: &mut O) -> FleetReport
    where
        S: ProbeScheduler,
        F: FnMut(&FleetNode) -> S,
        O: crate::observe::SimObserver + ?Sized,
    {
        use crate::observe::{ObserverFlow, SimEvent, SimObserver};

        /// Passes events through while remembering whether the inner
        /// observer asked to stop (a mid-node `Stop` makes the node's
        /// simulation return early with partial metrics, which must not be
        /// mistaken for a completed run).
        struct StopTracking<'a, O: ?Sized> {
            inner: &'a mut O,
            stopped: bool,
        }

        impl<O: SimObserver + ?Sized> SimObserver for StopTracking<'_, O> {
            fn observe(&mut self, event: &SimEvent) -> ObserverFlow {
                let flow = self.inner.observe(event);
                if flow == ObserverFlow::Stop {
                    self.stopped = true;
                }
                flow
            }
        }

        let traces = self.traces();
        let mut tracker = StopTracking {
            inner: observer,
            stopped: false,
        };
        let mut outcomes = Vec::with_capacity(self.nodes.len());
        for (i, (node, trace)) in self.nodes.iter().zip(&traces).enumerate() {
            tracker.observe(&SimEvent::NodeStart {
                name: node.name.clone(),
            });
            if tracker.stopped {
                break;
            }
            let config = self.config.clone().with_zeta_target_secs(node.zeta_target);
            let mut sim = Simulation::new(config, trace, make_scheduler(node));
            let metrics: RunMetrics = sim.run_observed(
                &mut StdRng::seed_from_u64(self.node_sim_seed(i)),
                &mut tracker,
            );
            if tracker.stopped {
                break;
            }
            outcomes.push(Self::node_outcome(node, &metrics));
        }
        FleetReport { nodes: outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_core::{SnipRh, SnipRhConfig};
    use snip_mobility::LengthDistribution;
    use snip_units::SimDuration;

    fn make_fleet() -> Fleet {
        let nodes = vec![
            FleetNode::new("busy", EpochProfile::roadside(), 8.0),
            FleetNode::new(
                "quiet",
                EpochProfile::roadside_with(
                    SimDuration::from_secs(600),
                    SimDuration::from_secs(3_600),
                    LengthDistribution::paper_normal(SimDuration::from_secs(3)),
                ),
                4.0,
            ),
        ];
        Fleet::new(nodes, SimConfig::paper_defaults().with_epochs(7)).with_seed(42)
    }

    fn rh_for(node: &FleetNode) -> SnipRh {
        SnipRh::new(
            SnipRhConfig::paper_defaults(node.profile.rush_marks())
                .with_phi_max(SimDuration::from_secs_f64(86.4)),
        )
    }

    #[test]
    fn fleet_runs_every_node() {
        let report = make_fleet().run(rh_for);
        assert_eq!(report.nodes.len(), 2);
        assert_eq!(report.nodes[0].name, "busy");
        assert!(report.nodes[0].zeta > 0.0);
        assert!(report.nodes[1].zeta > 0.0);
    }

    #[test]
    fn modest_targets_are_met_fleet_wide() {
        let report = make_fleet().run(rh_for);
        assert_eq!(
            report.nodes_meeting_target(),
            2,
            "outcomes: {:?}",
            report.nodes
        );
        assert!(report.mean_phi() > 0.0);
        assert!(report.mean_phi() <= 86.4 + 0.03);
    }

    #[test]
    fn worst_rho_identifies_the_quiet_site() {
        let report = make_fleet().run(rh_for);
        let (name, rho) = report.worst_rho().expect("both nodes probed");
        // The quiet site pays more energy per probed second.
        assert_eq!(name, "quiet");
        assert!(rho > 0.0);
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = make_fleet().run(rh_for);
        let b = make_fleet().run(rh_for);
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.zeta, nb.zeta);
            assert_eq!(na.phi, nb.phi);
        }
    }

    #[test]
    fn per_node_traces_differ() {
        let traces = make_fleet().traces();
        assert_ne!(traces[0], traces[1]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_fleet_rejected() {
        let _ = Fleet::new(Vec::new(), SimConfig::paper_defaults());
    }

    #[test]
    fn sharded_run_node_merge_equals_the_sequential_run() {
        // The distributed-driver contract: per-node shards merged in fleet
        // order reproduce Fleet::run exactly (outcomes included).
        let fleet = make_fleet();
        let metrics: Vec<RunMetrics> = (0..fleet.nodes().len())
            .map(|i| fleet.run_node(i, rh_for(&fleet.nodes()[i])))
            .collect();
        let merged = fleet.report_from_metrics(&metrics);
        assert_eq!(merged, fleet.run(rh_for));
    }

    #[test]
    #[should_panic(expected = "one metrics entry per fleet node")]
    fn short_metrics_list_rejected() {
        let _ = make_fleet().report_from_metrics(&[RunMetrics::with_epochs(7)]);
    }

    #[test]
    fn mid_node_stop_aborts_the_fleet_without_a_partial_outcome() {
        use crate::observe::{ObserverFlow, SimEvent, SimObserver};

        /// Stops partway through the first node's event stream.
        struct StopAfter {
            remaining: u32,
        }

        impl SimObserver for StopAfter {
            fn observe(&mut self, _event: &SimEvent) -> ObserverFlow {
                if self.remaining == 0 {
                    return ObserverFlow::Stop;
                }
                self.remaining -= 1;
                ObserverFlow::Continue
            }
        }

        // Stop after 100 events: inside node 0's run, well past NodeStart.
        let report = make_fleet().run_observed(rh_for, &mut StopAfter { remaining: 100 });
        assert!(
            report.nodes.is_empty(),
            "interrupted node must not report a truncated outcome: {:?}",
            report.nodes
        );

        // Stopping exactly at the second NodeStart keeps node 0's full
        // outcome and never runs node 1.
        struct StopAtSecondNode {
            node_starts: u32,
        }

        impl SimObserver for StopAtSecondNode {
            fn observe(&mut self, event: &SimEvent) -> ObserverFlow {
                if matches!(event, SimEvent::NodeStart { .. }) {
                    self.node_starts += 1;
                    if self.node_starts == 2 {
                        return ObserverFlow::Stop;
                    }
                }
                ObserverFlow::Continue
            }
        }

        let report = make_fleet().run_observed(rh_for, &mut StopAtSecondNode { node_starts: 0 });
        assert_eq!(report.nodes.len(), 1);
        assert_eq!(report.nodes[0].name, "busy");
        let full = make_fleet().run(rh_for);
        assert_eq!(
            report.nodes[0].zeta, full.nodes[0].zeta,
            "the completed node's outcome must be the full-run outcome"
        );
    }
}
