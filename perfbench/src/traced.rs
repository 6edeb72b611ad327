//! The traced run: the work of a round, performed by calling each layer
//! from here, with a span around every call. Spans stay in memory and are
//! written out as a Chrome/Perfetto trace when the run ends. The traced
//! output must equal the untraced one bit for bit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snip_core::{MechanismScheduler, SnipOptScheduler};
use snip_fleetd::{
    CoordinatorMsg, FleetOutput, FleetSpec, JobRunner, JobSpec, ShardResult, WorkerMsg,
    PROTOCOL_VERSION,
};
use snip_mobility::{ContactTrace, TraceGenerator};
use snip_model::SnipModel;
use snip_opt::{OptPlan, TwoStepOptimizer};
use snip_sim::{FleetNode, Mechanism, RunMetrics, ScenarioRunner, Simulation};

use crate::layers::{self, decode, encode};
use crate::measure::{median, secs_since};
use crate::workload::{self, Kind};
use crate::{Metrics, Report};

/// One span: a named interval and the span that caused it.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder; a disabled one only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Each span's duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Share of the root spans' time that some layer span accounts for.
    fn coverage(&self) -> f64 {
        let own = self.self_ns();
        let (mut busy, mut glue) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                busy += s.end_ns - s.start_ns;
                glue += own;
            }
        }
        1.0 - glue as f64 / busy as f64
    }

    /// Writes the spans as a Chrome trace-event file (loads in Perfetto).
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Counts the traced round made at the plan cache's boundary.
#[derive(Default)]
pub struct PlanCounts {
    /// SNIP-OPT scheduler builds (plan-cache lookups).
    pub lookups: u64,
    /// Of those, the ones that built curves and solved (misses).
    pub builds: u64,
}

/// Plans already solved in this round, keyed like the plan cache: exact
/// profile, budget and target. Keeps the traced round's curve builds equal
/// to the untraced round's plan-cache misses.
#[derive(Default)]
struct Plans {
    memo: BTreeMap<(String, u64, u64), OptPlan>,
    counts: PlanCounts,
}

/// Builds a scheduler the way [`ScenarioRunner`] does, with the SNIP-OPT
/// solve split into its curve build and its solve.
fn scheduler(
    t: &mut Tracer,
    runner: &ScenarioRunner,
    spec: &FleetSpec,
    profile_key: &str,
    mechanism: Mechanism,
    target: f64,
    plans: &mut Plans,
) -> MechanismScheduler {
    let JobSpec::Sweep { profile, .. } = &spec.job else {
        unreachable!("sweep jobs only");
    };
    t.span("core.scheduler_build", |t| {
        if mechanism != Mechanism::SnipOpt {
            return runner.mechanism_scheduler(mechanism, target);
        }
        let slots = profile.to_slot_profile();
        let key = (
            profile_key.to_owned(),
            spec.phi_max_secs.to_bits(),
            target.to_bits(),
        );
        plans.counts.lookups += 1;
        if !plans.memo.contains_key(&key) {
            plans.counts.builds += 1;
            let model = SnipModel::new(spec.sim_config().ton);
            let opt = t.span("opt.curve_build", |_| {
                TwoStepOptimizer::new(model, slots.clone())
            });
            let plan = t.span("opt.solve", |_| opt.solve(spec.phi_max_secs, target));
            plans.memo.insert(key.clone(), plan);
        }
        SnipOptScheduler::new(plans.memo[&key].clone(), &slots).into()
    })
}

/// Every job of one spec, layer by layer, in job order.
fn traced_jobs(
    t: &mut Tracer,
    spec: &FleetSpec,
    runner: &JobRunner,
    plans: &mut Plans,
) -> Vec<RunMetrics> {
    let config = spec.sim_config();
    let run = |t: &mut Tracer, trace: &ContactTrace, scheduler, target: f64, seed: u64| {
        t.span("sim.run", |_| {
            Simulation::new(
                config.clone().with_zeta_target_secs(target),
                trace,
                scheduler,
            )
            .run(&mut StdRng::seed_from_u64(seed))
        })
    };
    match &spec.job {
        JobSpec::Sweep {
            profile,
            zeta_targets,
        } => {
            let scenario = ScenarioRunner::new(profile.clone(), config.clone(), spec.phi_max_secs)
                .with_seed(spec.seed);
            let trace = t.span("mobility.trace_gen", |_| {
                TraceGenerator::new(profile.clone())
                    .epochs(spec.epochs)
                    .generate(&mut StdRng::seed_from_u64(spec.seed))
            });
            let profile_key =
                serde::json::to_string(&serde::Serialize::to_value(&profile.to_slot_profile()));
            ScenarioRunner::sweep_jobs(zeta_targets)
                .into_iter()
                .map(|(target, mechanism)| {
                    let s = scheduler(t, &scenario, spec, &profile_key, mechanism, target, plans);
                    run(t, &trace, s, target, spec.seed.wrapping_add(1))
                })
                .collect()
        }
        JobSpec::Fleet { mechanism, nodes } => nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let node = FleetNode::new(n.name.clone(), n.profile.clone(), n.zeta_target);
                let trace = t.span("mobility.trace_gen", |_| {
                    TraceGenerator::new(n.profile.clone())
                        .epochs(spec.epochs)
                        .generate(&mut StdRng::seed_from_u64(spec.seed.wrapping_add(i as u64)))
                });
                let s = t.span("core.scheduler_build", |_| {
                    runner.node_scheduler(*mechanism, &node)
                });
                run(
                    t,
                    &trace,
                    s,
                    n.zeta_target,
                    spec.seed.wrapping_add(1_000 + i as u64),
                )
            })
            .collect(),
    }
}

/// What the traced round produced.
pub struct TracedRound {
    pub outputs: Vec<FleetOutput>,
    /// Per-job metrics of the first spec (the real `ShardDone` payload).
    pub first_metrics: Vec<RunMetrics>,
    /// Wall time of the first spec's jobs (no codec, no merge).
    pub first_s: f64,
    pub counts: PlanCounts,
}

/// The traced round. Fleet workloads also pass the spec and every shard's
/// results through the frame codec, as the coordinator and workers do.
fn traced_round(t: &mut Tracer, kind: Kind, specs: &[FleetSpec]) -> TracedRound {
    let mut plans = Plans::default();
    let mut first_metrics = Vec::new();
    let mut first_s = 0.0;
    let outputs = t.span("round", |t| {
        specs
            .iter()
            .map(|spec| {
                let spec = if kind.is_fleet() {
                    let init = CoordinatorMsg::Init {
                        protocol: PROTOCOL_VERSION,
                        spec: spec.clone(),
                        spec_hash: t.span("fleetd.spec_hash", |_| spec.spec_hash()),
                        session: 0,
                        plans: Vec::new(),
                    };
                    let bytes = t.span("replay.encode.init", |_| encode(&init));
                    match t.span("replay.decode.init", |_| decode::<CoordinatorMsg>(&bytes)) {
                        CoordinatorMsg::Init { spec, .. } => spec,
                        _ => unreachable!("an Init decodes as an Init"),
                    }
                } else {
                    spec.clone()
                };
                let runner = t.span("fleetd.job_runner_new", |_| JobRunner::new(&spec));
                let start = Instant::now();
                let mut metrics = traced_jobs(t, &spec, &runner, &mut plans);
                let jobs_s = secs_since(start);
                if kind.is_fleet() {
                    metrics = metrics
                        .chunks(layers::shard_size(&spec) as usize)
                        .flat_map(|shard| {
                            let done = WorkerMsg::ShardDone {
                                results: vec![ShardResult {
                                    id: 0,
                                    metrics: shard.to_vec(),
                                }],
                                plans: Vec::new(),
                                seeded_hits: 0,
                            };
                            let bytes = t.span("replay.encode.shard_done", |_| encode(&done));
                            match t.span("replay.decode.shard_done", |_| decode(&bytes)) {
                                WorkerMsg::ShardDone { mut results, .. } => {
                                    results.remove(0).metrics
                                }
                                _ => unreachable!("a ShardDone decodes as a ShardDone"),
                            }
                        })
                        .collect();
                }
                let output = t.span("fleetd.merge", |_| runner.merge(&metrics));
                if first_metrics.is_empty() {
                    first_metrics = metrics;
                    first_s = jobs_s;
                }
                output
            })
            .collect()
    });
    TracedRound {
        outputs,
        first_metrics,
        first_s,
        counts: plans.counts,
    }
}

/// Times one round through `tracer`.
fn timed_round(enabled: bool, kind: Kind, specs: &[FleetSpec]) -> (Tracer, TracedRound, f64) {
    let mut tracer = Tracer::new(enabled);
    let start = Instant::now();
    let round = traced_round(&mut tracer, kind, specs);
    (tracer, round, secs_since(start))
}

/// The traced run of `kind`: the sequential reference; rounds with and
/// without spans for `seconds`; the parallel path on one and on all
/// threads; then the per-layer measurements.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Report, String> {
    let specs = workload::specs(kind, seed);
    let runs = workload::run_count(&specs);

    // The sequential path, in a process that has not solved a plan yet.
    let reference: Vec<FleetOutput> = specs
        .iter()
        .map(|spec| JobRunner::new(spec).run_sequential())
        .collect();
    let cold = snip_opt::plan_cache_stats();
    let cold_lookups = cold.misses + cold.hits;

    // Untraced, traced, untraced, until time is up: each overhead sample
    // compares the traced wall time with the mean of the untraced ones
    // around it. The first traced round's spans are kept.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut overheads, mut coverages) = (Vec::new(), Vec::new());
    let (mut failed, mut attempted) = (0, 0);
    let mut kept: Option<(Tracer, TracedRound)> = None;
    let mut first_spec_s = Vec::new();
    while kept.is_none() || Instant::now() < deadline {
        let (_, plain, plain_before_s) = timed_round(false, kind, &specs);
        first_spec_s.push(plain.first_s);
        let (tracer, traced, traced_s) = timed_round(true, kind, &specs);
        let (_, _, plain_after_s) = timed_round(false, kind, &specs);
        attempted += runs;
        failed += workload::mismatches(&traced.outputs, &plain.outputs)
            .max(workload::mismatches(&traced.outputs, &reference));
        overheads.push(traced_s / ((plain_before_s + plain_after_s) / 2.0));
        coverages.push(tracer.coverage());
        kept.get_or_insert((tracer, traced));
    }
    let (tracer, traced) = kept.expect("at least one traced round");
    let plans = &traced.counts;
    let mut guard_ok = plans.builds == cold.misses && plans.lookups == cold_lookups;
    if !guard_ok {
        eprintln!(
            "perfbench: traced round made {} builds / {} lookups, the untraced {} / {cold_lookups}",
            plans.builds, plans.lookups, cold.misses
        );
    }

    // The in-process parallel path, each in a cold subprocess.
    let mut parallel_s = [0.0; 2];
    for (threads, wall) in [1, workload::THREADS].into_iter().zip(&mut parallel_s) {
        let start = Instant::now();
        let round = crate::child_round(kind, seed, threads)?;
        *wall = secs_since(start);
        failed += workload::mismatches(&round.outputs, &reference);
        guard_ok &= round.lookups == cold_lookups;
    }

    let mut metrics = Metrics::default();
    metrics.put("opt.curve_builds_per_run", plans.builds as f64, "count");
    metrics.put("opt.plan_lookups_per_run", plans.lookups as f64, "count");
    metrics.put(
        "opt.plan_hit_ratio",
        if plans.lookups == 0 {
            0.0
        } else {
            (plans.lookups - plans.builds) as f64 / plans.lookups as f64
        },
        "ratio",
    );
    metrics.put(
        "sim.parallel_efficiency",
        parallel_s[0] / (workload::THREADS as f64 * parallel_s[1]),
        "ratio",
    );
    let layer = layers::measure(
        kind,
        seed,
        &specs[0],
        &reference[0],
        &traced.first_metrics,
        median(&first_spec_s),
        &mut metrics,
    )?;
    failed += layer.failed;
    metrics.put("trace.coverage", median(&coverages), "ratio");
    metrics.put("trace.overhead", median(&overheads), "ratio");

    let path =
        std::path::PathBuf::from(".perfbench").join(format!("trace-{}-{seed}.json", kind.name()));
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());

    Ok(Report {
        correct: failed == 0 && guard_ok,
        attempted: attempted + 2 * runs + layer.attempted,
        failed,
        metrics,
    })
}
