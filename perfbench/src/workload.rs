//! The four workloads: their inputs (derived from the seed), the timed
//! execution paths, and the reference every output is checked against.
//!
//! Every workload is expressed as a list of [`FleetSpec`]s, the
//! repository's own complete job description. In-process workloads run
//! the specs' jobs on [`THREADS`] threads; fleet workloads hand the one
//! spec to a [`FleetDriver`] with [`WORKERS`] spawned workers. Either way
//! the reference is [`JobRunner::run_sequential`] — `ScenarioRunner::sweep`
//! for sweeps, `Fleet::run` for fleets — and outputs must be `==`.

use serde::{Deserialize as _, Serialize as _, Value};
use snip_fleetd::{FleetDriver, FleetOutput, FleetSpec, JobRunner, JobSpec, NodeSpec, TcpConfig};
use snip_mobility::EpochProfile;
use snip_model::{LengthDistribution, SnipModel};
use snip_sim::{parallel_map, Mechanism};
use snip_units::{DutyCycle, SimDuration};

use crate::measure::{mix, uniform};

/// Threads of an in-process round (the host has two cores).
pub const THREADS: usize = 2;
/// Worker processes of a fleet round.
pub const WORKERS: usize = 2;

/// Fig 7's budget Φmax, seconds per epoch.
pub const FIG7_PHI: f64 = 86.4;
/// Fig 8's budget Φmax, seconds per epoch.
pub const FIG8_PHI: f64 = 864.0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig 7 grid over many seeds and a long horizon, in-process.
    SweepEnsemble,
    /// A cold Fig 5–8 planning grid on a seed-derived profile, in-process.
    PlanGrid,
    /// A SNIP-RH node fleet through spawned pipe workers.
    FleetLocal,
    /// A dense paper sweep through workers dialing in over loopback TCP.
    FleetTcp,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::SweepEnsemble,
        Kind::PlanGrid,
        Kind::FleetLocal,
        Kind::FleetTcp,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SweepEnsemble => "sweep-ensemble",
            Kind::PlanGrid => "plan-grid",
            Kind::FleetLocal => "fleet-local",
            Kind::FleetTcp => "fleet-tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether timed rounds go through a [`FleetDriver`].
    pub fn is_fleet(self) -> bool {
        matches!(self, Kind::FleetLocal | Kind::FleetTcp)
    }
}

/// Seeds of the sweep ensemble.
const ENSEMBLE_SEEDS: u64 = 96;
/// Horizon of the sweep ensemble, epochs (the paper runs 14).
const ENSEMBLE_EPOCHS: u64 = 56;
/// Seed-derived profiles of the planning grid.
const PLAN_PROFILES: u64 = 12;
/// Nodes of the local fleet.
const FLEET_NODES: u64 = 2048;
/// Horizon of the TCP fleet's sweep, epochs.
const TCP_EPOCHS: u64 = 56;

/// Fig 7/8's capacity targets, seconds per epoch.
fn fig7_targets() -> Vec<f64> {
    vec![16.0, 24.0, 32.0, 40.0, 48.0, 56.0]
}

/// A dense target grid `lo, lo+step, …, hi`.
fn dense_targets(lo: u32, hi: u32, step: usize) -> Vec<f64> {
    (lo..=hi).step_by(step).map(f64::from).collect()
}

/// A roadside-shaped profile: the paper's rush and off-peak intervals
/// (300 s, 1800 s) scaled by factors drawn from `1 ± interval_spread`, and
/// its 2 s mean contact length scaled by one from `1 ± length_spread`, on
/// stream `stream` of `seed`.
pub fn derived_profile(
    seed: u64,
    stream: u64,
    interval_spread: f64,
    length_spread: f64,
) -> EpochProfile {
    let draw = |k: u64, nominal: f64, spread: f64| {
        nominal * uniform(seed, stream * 8 + k, 1.0 - spread, 1.0 + spread)
    };
    EpochProfile::roadside_with(
        SimDuration::from_secs_f64(draw(0, 300.0, interval_spread)),
        SimDuration::from_secs_f64(draw(1, 1_800.0, interval_spread)),
        LengthDistribution::paper_normal(SimDuration::from_secs_f64(draw(2, 2.0, length_spread))),
    )
}

fn sweep_spec(
    name: String,
    seed: u64,
    epochs: u64,
    phi: f64,
    profile: EpochProfile,
    zeta_targets: Vec<f64>,
) -> FleetSpec {
    FleetSpec {
        name,
        seed,
        epochs,
        phi_max_secs: phi,
        job: JobSpec::Sweep {
            profile,
            zeta_targets,
        },
    }
}

/// The workload's inputs for `seed`: the same seed gives the same specs.
pub fn specs(kind: Kind, seed: u64) -> Vec<FleetSpec> {
    match kind {
        Kind::SweepEnsemble => (0..ENSEMBLE_SEEDS)
            .map(|i| {
                sweep_spec(
                    format!("sweep-ensemble/{i}"),
                    mix(seed, i),
                    ENSEMBLE_EPOCHS,
                    FIG7_PHI,
                    EpochProfile::roadside(),
                    fig7_targets(),
                )
            })
            .collect(),
        Kind::PlanGrid => (0..PLAN_PROFILES)
            .flat_map(|p| {
                // Contact lengths stay the paper's: Υ's adaptive integration
                // costs more or less with the length distribution, and the
                // grid's cost should not move with the seed.
                let profile = derived_profile(seed, p, 0.2, 0.0);
                [FIG7_PHI, FIG8_PHI].map(|phi| {
                    // Targets at fixed fractions of the budget-bound SNIP-AT
                    // capacity: the split between reachable and budget-bound
                    // targets, which decides the planning cost, then does
                    // not move with the seed.
                    let slots = profile.to_slot_profile();
                    let budget_d = DutyCycle::clamped(phi / slots.epoch().as_secs_f64());
                    let capacity = slots.probed_capacity_uniform(&SnipModel::default(), budget_d);
                    // One trace seed per profile: with a shared seed the
                    // profiles' traces are correlated and average poorly.
                    sweep_spec(
                        format!("plan-grid/{p}/{phi}"),
                        mix(seed, 100 + p),
                        14,
                        phi,
                        profile.clone(),
                        (1..=4).map(|k| capacity * 0.3 * f64::from(k)).collect(),
                    )
                })
            })
            .collect(),
        Kind::FleetLocal => {
            let nodes = (0..FLEET_NODES)
                .map(|i| NodeSpec {
                    name: format!("site-{i}"),
                    profile: derived_profile(seed, i + 1, 0.2, 0.2),
                    zeta_target: uniform(seed, 1 << 40 | i, 8.0, 40.0).round(),
                })
                .collect();
            vec![FleetSpec {
                name: "fleet-local".into(),
                seed: mix(seed, 2),
                epochs: 14,
                phi_max_secs: FIG7_PHI,
                job: JobSpec::Fleet {
                    mechanism: Mechanism::SnipRh,
                    nodes,
                },
            }]
        }
        Kind::FleetTcp => vec![sweep_spec(
            "fleet-tcp".into(),
            mix(seed, 3),
            TCP_EPOCHS,
            FIG7_PHI,
            EpochProfile::roadside(),
            dense_targets(4, 100, 2),
        )],
    }
}

/// The fleet driver for one timed round. A fresh driver every round: a
/// driver keeps the SNIP-OPT plans its workers shipped back and re-ships
/// them to the next run's workers, which would warm every later round.
pub fn fleet_driver(kind: Kind, spec: &FleetSpec, seed: u64) -> FleetDriver {
    // The shard timeout bounds a hung worker well inside the benchmark's
    // time limit; a healthy shard takes well under a second.
    let driver = FleetDriver::new(spec.clone(), WORKERS)
        .expect("workload specs are valid")
        .with_shard_timeout(std::time::Duration::from_secs(30));
    match kind {
        Kind::FleetTcp => driver
            .with_tcp(TcpConfig {
                listen: "127.0.0.1:0".into(),
                token: format!("{:016x}", mix(seed, 4)),
                spawn_workers: true,
            })
            .expect("bind a loopback listener"),
        _ => driver,
    }
}

/// Runs every job of `specs` on `threads` threads and merges per spec —
/// the in-process parallel path.
pub fn run_parallel(specs: &[FleetSpec], threads: usize) -> Vec<FleetOutput> {
    let runners: Vec<JobRunner> = specs.iter().map(JobRunner::new).collect();
    let index: Vec<(usize, u64)> = runners
        .iter()
        .enumerate()
        .flat_map(|(s, r)| (0..r.job_count()).map(move |j| (s, j)))
        .collect();
    let mut metrics = parallel_map(index.len(), threads, |k| {
        let (s, j) = index[k];
        runners[s].run_job(j)
    })
    .into_iter();
    runners
        .iter()
        .map(|r| {
            let mine: Vec<_> = metrics.by_ref().take(r.job_count() as usize).collect();
            r.merge(&mine)
        })
        .collect()
}

/// One row per simulation run of an output, as comparable values.
fn rows(output: &FleetOutput) -> Vec<Value> {
    match output {
        FleetOutput::Sweep(points) => points.iter().map(|p| p.to_value()).collect(),
        FleetOutput::Fleet(report) => report.nodes.iter().map(|n| n.to_value()).collect(),
    }
}

/// Simulation runs in a workload's output.
pub fn run_count(specs: &[FleetSpec]) -> u64 {
    specs.iter().map(FleetSpec::job_count).sum()
}

/// Runs of `got` that differ from `want` (a missing or extra output
/// counts all of its runs).
pub fn mismatches(got: &[FleetOutput], want: &[FleetOutput]) -> u64 {
    if got.len() != want.len() {
        return want.iter().map(|o| rows(o).len() as u64).sum();
    }
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            let (g, w) = (rows(g), rows(w));
            if g.len() != w.len() {
                return w.len() as u64;
            }
            g.iter().zip(&w).filter(|(a, b)| a != b).count() as u64
        })
        .sum()
}

/// Mean over SNIP-OPT and SNIP-RH runs of `max(0, ζtarget − ζ)/ζtarget`.
pub fn zeta_shortfall(specs: &[FleetSpec], outputs: &[FleetOutput]) -> f64 {
    let mut shortfalls = Vec::new();
    let mut push = |target: f64, zeta: f64| shortfalls.push((target - zeta).max(0.0) / target);
    for (spec, output) in specs.iter().zip(outputs) {
        match (&spec.job, output) {
            (JobSpec::Sweep { .. }, FleetOutput::Sweep(points)) => points
                .iter()
                .filter(|p| p.mechanism != Mechanism::SnipAt)
                .for_each(|p| push(p.zeta_target, p.zeta)),
            (JobSpec::Fleet { mechanism, nodes }, FleetOutput::Fleet(report))
                if *mechanism != Mechanism::SnipAt =>
            {
                nodes
                    .iter()
                    .zip(&report.nodes)
                    .filter(|(n, _)| n.zeta_target > 0.0)
                    .for_each(|(n, o)| push(n.zeta_target, o.zeta));
            }
            _ => {}
        }
    }
    assert!(!shortfalls.is_empty(), "no SNIP-OPT or SNIP-RH runs");
    shortfalls.iter().sum::<f64>() / shortfalls.len() as f64
}

/// Encodes a round's outputs for the parent process.
pub fn outputs_to_value(outputs: &[FleetOutput]) -> Value {
    Value::Seq(outputs.iter().map(|o| o.to_value()).collect())
}

/// Decodes what [`outputs_to_value`] encoded.
pub fn outputs_from_value(v: &Value) -> Option<Vec<FleetOutput>> {
    v.as_seq()?
        .iter()
        .map(|o| FleetOutput::from_value(o).ok())
        .collect()
}
