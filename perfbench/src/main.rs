//! `perfbench`: the SNIP-RH reproduction's end-to-end and per-layer
//! benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The same binary also
//! serves as its own subprocesses: `round` (one cold in-process round),
//! `fleet-worker` (a fleet worker, pipe or TCP) and `echo` (the transport
//! round-trip peer).

mod layers;
mod measure;
mod traced;
mod workload;

use std::io::BufReader;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use snip_fleetd::{FleetOutput, FleetSpec, JobRunner};

use measure::{cpu_total_us, median, peak_rss_mib, secs_since};
use workload::Kind;

/// Parsed benchmark arguments.
struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Threads of a `round` subprocess.
    threads: usize,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    let mut threads = workload::THREADS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |_| format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--threads" => {
                threads = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        kind,
        seed,
        seconds,
        trace,
        threads,
    })
}

/// A metric as printed: value and unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records `name` (finite values only: a NaN is a benchmark bug).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }
}

/// What one benchmark invocation reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("round" | "fleet-worker" | "echo")) => (m, &args[1..]),
        _ => ("bench", &args[..]),
    };
    let result = match mode {
        "round" => parse_opts(rest).map(|o| round_child(o.kind, o.seed, o.threads)),
        "fleet-worker" => fleet_worker(rest),
        "echo" => layers::echo_child(rest),
        _ => parse_opts(rest).and_then(|o| {
            let report = if o.trace {
                traced::run(o.kind, o.seed, o.seconds)?
            } else {
                bench(&o)?
            };
            println!("{}", report.to_json());
            Ok(())
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One cold in-process round in a fresh process: run the workload on
/// `threads` threads, print outputs and plan-cache counters.
fn round_child(kind: Kind, seed: u64, threads: usize) {
    let specs = workload::specs(kind, seed);
    let outputs = workload::run_parallel(&specs, threads);
    let stats = snip_opt::plan_cache_stats();
    let line = Value::Map(vec![
        ("outputs".into(), workload::outputs_to_value(&outputs)),
        ("misses".into(), Value::U64(stats.misses)),
        ("hits".into(), Value::U64(stats.hits)),
        ("peak_mib".into(), Value::F64(peak_rss_mib())),
    ]);
    println!("{}", serde::json::to_string(&line));
}

/// A fleet worker: stdio (spawned by a pipe coordinator) or
/// `--connect ADDR` with the token in the environment (TCP).
fn fleet_worker(args: &[String]) -> Result<(), String> {
    let pid = u64::from(std::process::id());
    let summary = match args {
        [] => snip_fleetd::run_worker(BufReader::new(std::io::stdin()), std::io::stdout(), pid),
        [flag, addr] if flag == "--connect" => snip_fleetd::run_worker_tcp(
            &snip_fleetd::ConnectOptions {
                addr: addr.parse().map_err(|_| format!("bad address `{addr}`"))?,
                token: std::env::var(snip_fleetd::TOKEN_ENV_VAR)
                    .map_err(|_| "no fleet token in the environment".to_string())?,
                retry_for: Duration::from_secs(10),
                backoff_seed: pid,
            },
            pid,
        ),
        _ => return Err(format!("bad fleet-worker arguments {args:?}")),
    };
    measure::report_peak_rss_to_parent();
    summary.map(|_| ()).map_err(|e| e.to_string())
}

/// Outputs of one timed round plus the plan-cache misses and lookups it
/// made (the cold-state guard).
struct RoundOutput {
    outputs: Vec<FleetOutput>,
    misses: u64,
    lookups: u64,
    /// Peak RSS of the round's largest child process, MiB.
    child_peak_mib: f64,
}

/// Longest a round may take before it is killed and counted as failed,
/// so that a hung program cannot hang the benchmark.
const ROUND_LIMIT: Duration = Duration::from_secs(60);

/// Runs `command` and returns its standard output, killing it if it has
/// not exited within `limit`.
fn output_within(mut command: Command, limit: Duration) -> Result<String, String> {
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {command:?}: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let child = std::sync::Arc::new(std::sync::Mutex::new(child));
    let (done, finished) = std::sync::mpsc::channel::<()>();
    let watchdog = {
        let child = std::sync::Arc::clone(&child);
        std::thread::spawn(move || {
            if finished.recv_timeout(limit).is_err() {
                let _ = child.lock().expect("child lock").kill();
            }
        })
    };
    // Reading to EOF returns once the child exits or is killed.
    let mut text = String::new();
    let read = std::io::Read::read_to_string(&mut stdout, &mut text);
    let _ = done.send(());
    watchdog.join().expect("watchdog thread");
    let status = child.lock().expect("child lock").wait();
    read.map_err(|e| e.to_string())?;
    match status {
        Ok(status) if status.success() => Ok(text),
        Ok(status) => Err(format!("{command:?} failed: {status}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs one cold in-process round in a subprocess: a fresh process is the
/// only way to start with an empty process-wide plan cache.
fn child_round(kind: Kind, seed: u64, threads: usize) -> Result<RoundOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["round", "--workload", kind.name()]).args([
        "--seed",
        &seed.to_string(),
        "--threads",
        &threads.to_string(),
    ]);
    let text = output_within(command, ROUND_LIMIT)?;
    let line = text.lines().last().ok_or("round printed nothing")?;
    let v = serde::json::from_str(line).map_err(|e| e.to_string())?;
    let count = |key: &str| match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(format!("round output lacks `{key}`")),
    };
    let (misses, hits) = (count("misses")?, count("hits")?);
    let child_peak_mib = match v.get("peak_mib") {
        Some(Value::F64(mib)) => *mib,
        _ => return Err("round output lacks `peak_mib`".into()),
    };
    let outputs = v
        .get("outputs")
        .and_then(workload::outputs_from_value)
        .ok_or("round outputs do not decode")?;
    Ok(RoundOutput {
        outputs,
        misses,
        lookups: misses + hits,
        child_peak_mib,
    })
}

/// Runs one fleet round through a fresh driver. A lost worker or a
/// reassigned shard fails the round even when the output is right.
fn fleet_round(kind: Kind, spec: &FleetSpec, seed: u64) -> Result<RoundOutput, String> {
    let before = snip_opt::plan_cache_stats();
    let run = workload::fleet_driver(kind, spec, seed)
        .run()
        .map_err(|e| e.to_string())?;
    let after = snip_opt::plan_cache_stats();
    let s = run.stats;
    if s.workers_lost > 0 || s.shards_reassigned > 0 || s.workers != workload::WORKERS {
        return Err(format!("unclean fleet run: {s}"));
    }
    let misses = after.misses - before.misses;
    Ok(RoundOutput {
        outputs: vec![run.output],
        misses,
        lookups: misses + after.hits - before.hits,
        child_peak_mib: measure::take_children_peak_rss_mib(),
    })
}

/// One timed round as measured.
struct Round {
    wall_s: f64,
    cpu_us: u64,
    result: Result<RoundOutput, String>,
}

/// The untraced run: set up, run rounds for `seconds`, then check every
/// round against the sequential reference.
fn bench(opts: &Opts) -> Result<Report, String> {
    let kind = opts.kind;
    // Set-up: input generation and runner construction. It is repeated
    // after every round as well, outside the round's timing, and the
    // median over the whole run is reported: host speed drifts over
    // seconds, and a set-up measured only at the start would catch one
    // moment of it.
    let set_up = || {
        let start = Instant::now();
        let specs = workload::specs(kind, opts.seed);
        let runners: Vec<JobRunner> = specs.iter().map(JobRunner::new).collect();
        if kind.is_fleet() {
            // Rounds build their own drivers (see `workload::fleet_driver`);
            // this one measures what a user pays before a first run.
            drop(workload::fleet_driver(kind, &specs[0], opts.seed));
        }
        (secs_since(start), specs, runners)
    };
    let mut setup_samples = Vec::new();
    let mut set_up_for = |seconds: f64| {
        let start = Instant::now();
        loop {
            let (took, specs, runners) = set_up();
            setup_samples.push(took);
            if secs_since(start) >= seconds {
                return (specs, runners);
            }
        }
    };
    let (specs, runners) = set_up_for(0.1);
    let runs = workload::run_count(&specs);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        let cpu_before = cpu_total_us();
        let start = Instant::now();
        let result = if kind.is_fleet() {
            fleet_round(kind, &specs[0], opts.seed)
        } else {
            child_round(kind, opts.seed, workload::THREADS)
        };
        rounds.push(Round {
            wall_s: secs_since(start),
            cpu_us: cpu_total_us() - cpu_before,
            result,
        });
        set_up_for(0.01);
    }
    let self_peak = peak_rss_mib();
    let child_peak = rounds
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|r| r.child_peak_mib)
        .fold(0.0, f64::max);
    let concurrent = if kind.is_fleet() {
        workload::WORKERS
    } else {
        1
    };

    // Checks, after the clock stops. This process has not solved a plan
    // yet, so the sequential reference runs cold: its misses are the
    // workload's distinct plans and its lookups one per SNIP-OPT run.
    let before = snip_opt::plan_cache_stats();
    let reference: Vec<FleetOutput> = runners.iter().map(JobRunner::run_sequential).collect();
    let after = snip_opt::plan_cache_stats();
    let cold = if kind.is_fleet() {
        // The coordinator never solves: its workers do, each a fresh process.
        (0, 0)
    } else {
        let misses = after.misses - before.misses;
        (misses, misses + after.hits - before.hits)
    };
    let mut failed = 0;
    let mut guard_ok = true;
    for round in &rounds {
        match &round.result {
            // A round that reused plans would miss less than a cold one.
            // Concurrent first solves of one key may both miss, so the
            // guard is "at least cold" on misses and exact on lookups.
            Ok(r) if r.misses < cold.0 || r.lookups != cold.1 => {
                eprintln!(
                    "perfbench: round was not cold: {} misses / {} lookups, cold is {cold:?}",
                    r.misses, r.lookups
                );
                guard_ok = false;
                failed += runs;
            }
            Ok(r) => failed += workload::mismatches(&r.outputs, &reference),
            Err(e) => {
                eprintln!("perfbench: round failed: {e}");
                failed += runs;
            }
        }
    }
    let attempted = runs * rounds.len() as u64;

    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut metrics = Metrics::default();
    metrics.put("runs_per_s", per_round(&|r| runs as f64 / r.wall_s), "1/s");
    metrics.put(
        "cpu_ms_per_run",
        per_round(&|r| r.cpu_us as f64 / 1e3 / runs as f64),
        "ms",
    );
    metrics.put("setup_s", median(&setup_samples), "s");
    metrics.put(
        "peak_rss_mb",
        self_peak + concurrent as f64 * child_peak,
        "MiB",
    );
    metrics.put(
        "success_rate",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    metrics.put(
        "zeta_shortfall",
        workload::zeta_shortfall(&specs, &reference),
        "ratio",
    );
    Ok(Report {
        correct: failed == 0 && guard_ok,
        attempted,
        failed,
        metrics,
    })
}
