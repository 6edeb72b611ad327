//! Per-layer measurements, each in the configuration the workload runs:
//! its profile, budget, targets and horizon, and its real wire messages.
//! Sub-µs operations are timed in batches so they never round to zero.

use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};
use snip_core::SnipOptScheduler;
use snip_fleetd::{
    CoordinatorMsg, FleetOutput, FleetSpec, JobRunner, JobSpec, NodeSpec, PipeTransport, ShardJob,
    ShardResult, StreamTransport, TcpTransport, Transport, WorkerMsg, PROTOCOL_VERSION,
};
use snip_mobility::{ContactIndex, EpochProfile, TraceGenerator};
use snip_model::SnipModel;
use snip_opt::TwoStepOptimizer;
use snip_replay::frame::{FrameReader, FrameWriter};
use snip_sim::{Mechanism, RunMetrics, ScenarioRunner, Simulation};
use snip_units::DutyCycle;

use crate::measure::{batched_ns, median, median_secs, mix, secs_since};
use crate::workload::{self, Kind, FIG7_PHI, FIG8_PHI, WORKERS};
use crate::Metrics;

/// The paper's mechanisms under their metric-name suffixes.
const MECHANISMS: [(&str, Mechanism); 3] = [
    ("at", Mechanism::SnipAt),
    ("opt", Mechanism::SnipOpt),
    ("rh", Mechanism::SnipRh),
];

/// Encodes one message into a binary wire frame through [`FrameWriter`].
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    FrameWriter::new_binary(&mut bytes)
        .send(msg)
        .expect("writing to memory cannot fail");
    bytes
}

/// Decodes one frame through [`FrameReader`].
pub fn decode<T: Deserialize>(bytes: &[u8]) -> T {
    FrameReader::new(bytes)
        .recv()
        .expect("a frame this process encoded decodes")
        .expect("the frame is present")
}

/// The fleet driver's default shard size for `spec` (about four shards
/// per worker).
pub fn shard_size(spec: &FleetSpec) -> u64 {
    (spec.job_count() / (WORKERS as u64 * 4)).max(1)
}

/// The contact process, horizon and targets the layers are timed under:
/// the first spec's, or its first node's for a fleet.
struct Setting {
    profile: EpochProfile,
    targets: Vec<f64>,
    phi: f64,
    epochs: u64,
    seed: u64,
}

impl Setting {
    fn of(spec: &FleetSpec) -> Setting {
        let (profile, mut targets) = match &spec.job {
            JobSpec::Sweep {
                profile,
                zeta_targets,
            } => (profile.clone(), zeta_targets.clone()),
            JobSpec::Fleet { nodes, .. } => (
                nodes[0].profile.clone(),
                nodes.iter().map(|n| n.zeta_target).collect(),
            ),
        };
        targets.sort_by(f64::total_cmp);
        targets.dedup();
        // At most eight targets spread over the grid: a Fig 8 SNIP-AT
        // build costs ~10 ms.
        let step = targets.len().div_ceil(8);
        let targets = targets.into_iter().step_by(step).collect();
        Setting {
            profile,
            targets,
            phi: spec.phi_max_secs,
            epochs: spec.epochs,
            seed: spec.seed,
        }
    }

    fn runner(&self, phi: f64) -> ScenarioRunner {
        ScenarioRunner::new(
            self.profile.clone(),
            snip_sim::SimConfig::paper_defaults().with_epochs(self.epochs),
            phi,
        )
        .with_seed(self.seed)
    }

    fn mid_target(&self) -> f64 {
        self.targets[self.targets.len() / 2]
    }
}

/// Output checks made along the way: runs compared, and runs that differed.
pub struct LayerChecks {
    pub attempted: u64,
    pub failed: u64,
}

/// Measures every layer and records the per-layer metrics.
///
/// `spec`, `reference` and `metrics` are the workload's first spec, its
/// sequential output and per-job metrics; `sequential_s` is how long the
/// untraced in-process round spent running that spec's jobs.
pub fn measure(
    kind: Kind,
    seed: u64,
    spec: &FleetSpec,
    reference: &FleetOutput,
    metrics: &[RunMetrics],
    sequential_s: f64,
    out: &mut Metrics,
) -> Result<LayerChecks, String> {
    let setting = Setting::of(spec);
    let model = SnipModel::new(snip_sim::SimConfig::paper_defaults().ton);
    let slots = setting.profile.to_slot_profile();
    let mut checks = LayerChecks {
        attempted: 0,
        failed: 0,
    };

    // model: one Υ evaluation over the slot's contact-length distribution.
    let lengths = setting.profile.slots()[0].contact_length;
    let duties: Vec<DutyCycle> = (0..64)
        .map(|i| DutyCycle::clamped(1e-4 * 1.15f64.powi(i)))
        .collect();
    out.put(
        "model.upsilon_ns",
        batched_ns(7, 4096, |i| model.upsilon_dist(duties[i % 64], &lengths)),
        "ns",
    );

    // opt: curve build and solve, split as a cache miss pays them.
    out.put(
        "opt.curve_build_us",
        median_secs(7, || TwoStepOptimizer::new(model, slots.clone())) * 1e6,
        "us",
    );
    let opt = TwoStepOptimizer::new(model, slots.clone());
    let targets = &setting.targets;
    out.put(
        "opt.solve_us",
        batched_ns(7, targets.len(), |i| opt.solve(setting.phi, targets[i])) / 1e3,
        "us",
    );

    // core: scheduler builds at both paper budgets; SNIP-OPT cold.
    for (budget, phi) in [("fig7", FIG7_PHI), ("fig8", FIG8_PHI)] {
        let runner = setting.runner(phi);
        for (name, mechanism) in MECHANISMS {
            let reps = if mechanism == Mechanism::SnipRh {
                64
            } else {
                1
            };
            let ns = batched_ns(3, targets.len() * reps, |i| {
                let target = targets[i % targets.len()];
                if mechanism == Mechanism::SnipOpt {
                    let plan = TwoStepOptimizer::new(model, slots.clone()).solve(phi, target);
                    SnipOptScheduler::new(plan, &slots).into()
                } else {
                    runner.mechanism_scheduler(mechanism, target)
                }
            });
            out.put(
                format!("core.scheduler_build_us.{name}.{budget}"),
                ns / 1e3,
                "us",
            );
        }
    }

    // mobility: trace generation and the contact index, per epoch.
    let epochs = setting.epochs as f64;
    let generate = || {
        TraceGenerator::new(setting.profile.clone())
            .epochs(setting.epochs)
            .generate(&mut StdRng::seed_from_u64(setting.seed))
    };
    out.put(
        "mobility.trace_gen_us_per_epoch",
        median_secs(5, generate) * 1e6 / epochs,
        "us",
    );
    let trace = generate();
    let epoch = snip_sim::SimConfig::paper_defaults().epoch;
    out.put(
        "mobility.contact_index_us_per_epoch",
        batched_ns(7, 16, |_| {
            ContactIndex::new(&trace, epoch).counts_per_epoch().len()
        }) / 1e3
            / epochs,
        "us",
    );

    // sim: the fast path and the reference stepper, which must agree.
    let runner = setting.runner(setting.phi);
    let target = setting.mid_target();
    let config = snip_sim::SimConfig::paper_defaults()
        .with_epochs(setting.epochs)
        .with_zeta_target_secs(target);
    for (name, mechanism) in MECHANISMS {
        let scheduler = runner.mechanism_scheduler(mechanism, target);
        let run = |naive: bool| {
            let sim = Simulation::new(config.clone(), &trace, scheduler.clone());
            let mut sim = if naive {
                sim.with_naive_stepping()
            } else {
                sim
            };
            sim.run(&mut StdRng::seed_from_u64(setting.seed.wrapping_add(1)))
        };
        let fast = run(false);
        checks.attempted += 1;
        if run(true) != fast {
            eprintln!("perfbench: {name}: fast path and naive stepper disagree");
            checks.failed += 1;
        }
        for (path, naive, reps) in [("fast", false, 7), ("naive", true, 3)] {
            let s = median_secs(reps, || run(naive));
            out.put(format!("sim.epochs_per_s.{path}.{name}"), epochs / s, "1/s");
        }
    }

    // replay: the workload's real Init, Shard and ShardDone frames.
    let runner = JobRunner::new(spec);
    let shard = shard_size(spec);
    let first_shard = metrics[..shard as usize].to_vec();
    let init = CoordinatorMsg::Init {
        protocol: PROTOCOL_VERSION,
        spec: spec.clone(),
        spec_hash: spec.spec_hash(),
        session: 0,
        plans: Vec::new(),
    };
    let assign = CoordinatorMsg::Shard {
        jobs: vec![ShardJob {
            id: 0,
            start: 0,
            end: shard,
        }],
        plans: Vec::new(),
    };
    let done = WorkerMsg::ShardDone {
        results: vec![ShardResult {
            id: 0,
            metrics: first_shard,
        }],
        plans: Vec::new(),
        seeded_hits: 0,
    };
    codec(out, "init", &init);
    codec(out, "shard", &assign);
    codec(out, "shard_done", &done);

    // fleetd: coordinator-side costs.
    out.put(
        "fleetd.spec_hash_us",
        median_secs(5, || spec.spec_hash()) * 1e6,
        "us",
    );
    out.put(
        "fleetd.job_runner_new_us",
        median_secs(5, || JobRunner::new(spec)) * 1e6,
        "us",
    );
    out.put(
        "fleetd.merge_us",
        median_secs(5, || runner.merge(metrics)) * 1e6,
        "us",
    );
    for (name, tcp) in [("pipe", false), ("tcp", true)] {
        for (size, bytes, reps) in [("1k", 1 << 10, 201), ("1m", 1 << 20, 21)] {
            out.put(
                format!("fleetd.transport_rtt_us.{name}.{size}"),
                rtt_s(tcp, bytes, reps)? * 1e6,
                "us",
            );
        }
    }
    let empty = empty_spec(seed);
    for (name, k) in [("local", Kind::FleetLocal), ("tcp", Kind::FleetTcp)] {
        let mut walls = Vec::new();
        for _ in 0..5 {
            let start = Instant::now();
            let run = workload::fleet_driver(k, &empty, seed)
                .run()
                .map_err(|e| format!("empty {name} fleet run: {e}"))?;
            walls.push(secs_since(start));
            std::hint::black_box(run);
        }
        out.put(
            format!("fleetd.empty_run_ms.{name}"),
            median(&walls) * 1e3,
            "ms",
        );
    }

    // One fleet run of the first spec: wire bytes and compute share.
    let wire = || {
        snip_obs::metrics::sum_counters("snip_frame_tx_bytes_total")
            + snip_obs::metrics::sum_counters("snip_frame_rx_bytes_total")
    };
    let fleet_kind = if kind == Kind::FleetTcp {
        Kind::FleetTcp
    } else {
        Kind::FleetLocal
    };
    let bytes_before = wire();
    let start = Instant::now();
    let run = workload::fleet_driver(fleet_kind, spec, seed)
        .run()
        .map_err(|e| format!("fleet run: {e}"))?;
    let fleet_s = secs_since(start);
    out.put(
        "fleetd.wire_bytes_per_run",
        (wire() - bytes_before) as f64,
        "bytes",
    );
    out.put(
        "fleetd.compute_share",
        sequential_s / (fleet_s * WORKERS as f64),
        "ratio",
    );
    // The workers of these runs left peaks for a `--trace 0` parent.
    crate::measure::take_children_peak_rss_mib();
    checks.attempted += spec.job_count();
    checks.failed += workload::mismatches(&[run.output], std::slice::from_ref(reference));
    Ok(checks)
}

/// Records encode and decode ns/byte of one message's frame, and its size.
fn codec<T: Serialize + Deserialize>(out: &mut Metrics, name: &str, msg: &T) {
    let bytes = encode(msg);
    let n = bytes.len() as f64;
    // Batch small frames to about 1 MiB per timing.
    let batch = (1 << 20) / bytes.len() + 1;
    out.put(
        format!("replay.encode_ns_per_byte.{name}"),
        batched_ns(5, batch, |_| encode(msg).len()) / n,
        "ns/B",
    );
    out.put(
        format!("replay.decode_ns_per_byte.{name}"),
        batched_ns(5, batch, |_| decode::<T>(&bytes)) / n,
        "ns/B",
    );
    if name != "shard" {
        out.put(format!("replay.frame_bytes.{name}"), n, "bytes");
    }
}

/// Smallest fleet `FleetDriver` accepts: two SNIP-RH nodes for one epoch,
/// so a run's wall time is its spawn, handshake and teardown.
fn empty_spec(seed: u64) -> FleetSpec {
    let node = |i: u64| NodeSpec {
        name: format!("empty-{i}"),
        profile: EpochProfile::roadside(),
        zeta_target: 16.0,
    };
    FleetSpec {
        name: "empty".into(),
        seed: mix(seed, 5),
        epochs: 1,
        phi_max_secs: FIG7_PHI,
        job: JobSpec::Fleet {
            mechanism: Mechanism::SnipRh,
            nodes: vec![node(0), node(1)],
        },
    }
}

/// Median round trip, in seconds, of a `bytes`-long message to an echo
/// subprocess over its pipes or over loopback TCP.
fn rtt_s(tcp: bool, bytes: usize, reps: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let msg = Value::Str("x".repeat(bytes));
    let trips = |transport: &mut dyn Transport| -> Result<f64, String> {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..=reps {
            let start = Instant::now();
            transport.send_value(&msg).map_err(|e| e.to_string())?;
            match transport.recv_value(Some(Duration::from_secs(30))) {
                Ok(Some(v)) if v == msg => samples.push(secs_since(start)),
                other => return Err(format!("echo came back as {other:?}")),
            }
        }
        // The first trip warms the peer up.
        Ok(median(&samples[1..]))
    };
    if !tcp {
        let mut pipe = PipeTransport::spawn(&exe, &["echo".into()]).map_err(|e| e.to_string())?;
        return trips(&mut pipe);
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut child = Command::new(&exe)
        .args(["echo", "--connect", &addr.to_string()])
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| e.to_string())?;
    let result = accept_within(&listener, Duration::from_secs(10))
        .and_then(|stream| TcpTransport::accept(stream).map_err(|e| e.to_string()))
        .and_then(|mut socket| {
            socket.unlock_frame_limit();
            trips(&mut socket)
        });
    if result.is_err() {
        // A peer that never dialed in would otherwise be waited on forever.
        let _ = child.kill();
    }
    let _ = child.wait();
    result
}

/// Accepts one connection, giving up after `limit`.
fn accept_within(listener: &TcpListener, limit: Duration) -> Result<TcpStream, String> {
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let start = Instant::now();
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Ok(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && start.elapsed() < limit => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("echo peer did not connect: {e}")),
        }
    }
}

/// The transport echo peer: sends every frame straight back until EOF.
pub fn echo_child(args: &[String]) -> Result<(), String> {
    let mut transport: Box<dyn Transport> = match args {
        [] => Box::new(StreamTransport::new(
            std::io::stdin(),
            std::io::stdout(),
            "echo",
        )),
        [flag, addr] if flag == "--connect" => Box::new(
            TcpTransport::connect(&addr.parse().map_err(|_| format!("bad address `{addr}`"))?)
                .map_err(|e| e.to_string())?,
        ),
        _ => return Err(format!("bad echo arguments {args:?}")),
    };
    while let Some(v) = transport.recv_value(None).map_err(|e| e.to_string())? {
        transport.send_value(&v).map_err(|e| e.to_string())?;
    }
    Ok(())
}
