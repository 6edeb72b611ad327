//! The worker half of the fleet protocol (`snip fleet-worker`).
//!
//! A worker serves shards over any [`Transport`]: the stdin/stdout pipes
//! of a coordinator-spawned re-exec, or a TCP socket it dialed with
//! `snip fleet-worker --connect ADDR --token-file F`. It receives the
//! spec once (verifying the coordinator's spec hash against the spec it
//! actually decoded), then serves shard batches until `Shutdown` (or EOF
//! — a vanished coordinator is a clean stop, not a crash: the
//! coordinator owns failure handling, the worker just computes). All
//! simulation happens through [`JobRunner::run_job`], the same pure
//! function of `(spec, index)` the coordinator's verification path uses,
//! so every transport yields bit-identical metrics. SNIP-OPT plans are
//! solved locally, through this process's own plan cache: the reserved
//! `plans` fields of `Init` and `Shard` are ignored, and `ShardDone`
//! sends them empty.
//!
//! **Reconnect-with-resume (TCP).** A dialing worker remembers the
//! session id its `Init` assigned. When the socket drops mid-run it
//! redials under seeded jittered exponential [`Backoff`], re-presents the
//! token plus `Join { resume }`, and — if the coordinator still knows the
//! session — re-sends its un-acknowledged `ShardDone` (delivered exactly
//! once: the coordinator's merge is idempotent) and keeps serving. A
//! coordinator that restarted answers with a fresh `Init` instead, and
//! the worker starts over cleanly. Pipe workers never reconnect: their
//! transport *is* their parent process.

use std::fmt;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use snip_replay::frame::FrameError;

use crate::proto::{CoordinatorMsg, ShardJob, ShardResult, WorkerMsg, PROTOCOL_VERSION};
use crate::spec::JobRunner;
use crate::transport::{recv_msg, send_msg, RecvError, StreamTransport, TcpTransport, Transport};

/// Why a worker gave up.
#[derive(Debug)]
pub enum WorkerError {
    /// The transport broke or carried a malformed frame.
    Frame(FrameError),
    /// The coordinator spoke out of grammar (bad version, bad spec, a
    /// spec-hash mismatch, a shard out of range…).
    Protocol(String),
    /// The coordinator could not be reached (TCP dial mode).
    Connect(std::io::Error),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Frame(e) => write!(f, "worker transport error: {e}"),
            WorkerError::Protocol(msg) => write!(f, "worker protocol error: {msg}"),
            WorkerError::Connect(e) => write!(f, "worker could not reach the coordinator: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<FrameError> for WorkerError {
    fn from(e: FrameError) -> Self {
        WorkerError::Frame(e)
    }
}

impl From<RecvError> for WorkerError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Frame(fe) => WorkerError::Frame(fe),
            RecvError::TimedOut => WorkerError::Protocol(
                "coordinator went silent past the worker's receive deadline \
                 (host down or network partition?)"
                    .into(),
            ),
        }
    }
}

/// How long a *dialing* worker lets the coordinator stay silent before
/// assuming its host is gone (a powered-off coordinator never sends a
/// FIN, so EOF alone cannot be relied on across hosts). Generous: in the
/// pull model the coordinator answers every `ShardDone` immediately, so
/// real gaps are milliseconds. Pipe workers have no such deadline — a
/// vanished parent closes the pipe, which is a reliable EOF.
pub const COORDINATOR_SILENCE_TIMEOUT: Duration = Duration::from_secs(600);

/// First retry delay of the dial backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Per-attempt ceiling of the dial backoff (the *total* budget is
/// [`ConnectOptions::retry_for`]).
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Seeded jittered exponential backoff for coordinator dials. Delays
/// double from 50 ms toward a 2 s per-attempt cap, each drawn
/// uniformly from `[d/2, d]` by a private xorshift64 stream — so a fleet
/// of workers restarting together fans out instead of thundering back in
/// lockstep, while any single worker's schedule is reproducible from its
/// seed.
#[derive(Debug, Clone)]
pub struct Backoff {
    delay: Duration,
    rng: u64,
}

impl Backoff {
    /// A backoff stream for `seed` (workers use their pid; tests pin it).
    #[must_use]
    pub fn new(seed: u64) -> Backoff {
        Backoff {
            delay: BACKOFF_BASE,
            // xorshift64 has a single absorbing zero state.
            rng: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// The next delay to sleep before redialing: jittered into
    /// `[d/2, d]`, then `d` doubles toward the cap.
    pub fn next_delay(&mut self) -> Duration {
        let ceiling = self.delay;
        let floor = ceiling / 2;
        let span_us = (ceiling - floor).as_micros() as u64;
        let jitter = Duration::from_micros(self.next_u64() % (span_us + 1));
        self.delay = (self.delay * 2).min(BACKOFF_CAP);
        floor + jitter
    }

    /// Back to the base delay (call after a successful connection — the
    /// next failure is a fresh incident, not a continuation).
    pub fn reset(&mut self) {
        self.delay = BACKOFF_BASE;
    }
}

/// What a finished worker did (diagnostics/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards completed.
    pub shards: u64,
    /// Jobs simulated.
    pub jobs: u64,
}

/// Everything a worker must remember across a socket drop to resume: the
/// session identity, the decoded job, and the `ShardDone` the coordinator
/// may not have received.
struct Session {
    /// The id the `Session` frame assigned (presented as
    /// `Join { resume }` on redial). `None` until that frame arrives:
    /// since protocol 4 `Init` is pre-encoded once per run and carries a
    /// placeholder, the per-peer id travels separately.
    session: Option<u64>,
    runner: Option<JobRunner>,
    spec_hash: u64,
    /// The last `ShardDone` sent but not yet acknowledged by any
    /// subsequent coordinator message; re-sent after a resume.
    pending: Option<WorkerMsg>,
    summary: WorkerSummary,
}

impl Session {
    fn new() -> Session {
        Session {
            session: None,
            runner: None,
            spec_hash: 0,
            pending: None,
            summary: WorkerSummary { shards: 0, jobs: 0 },
        }
    }
}

/// How one connection's service ended.
enum ServeEnd {
    /// `Shutdown`, or a clean EOF with nothing left to do.
    Done,
    /// The transport broke mid-run (reconnectable mode only): the session
    /// survives, redial and resume.
    Disconnected,
}

/// Serves the worker side of the protocol over the given transport until
/// `Shutdown` or a clean EOF. `join_token` (TCP dial mode) is sent as the
/// opening `Join` authentication message; pipe workers pass `None`.
///
/// # Errors
///
/// Returns [`WorkerError`] on a broken transport, a malformed frame, or
/// an out-of-grammar coordinator.
pub fn serve(
    transport: &mut dyn Transport,
    pid: u64,
    join_token: Option<&str>,
) -> Result<WorkerSummary, WorkerError> {
    let mut session = Session::new();
    // Not reconnectable: a pipe/stdio transport is its parent process —
    // there is nothing to redial.
    serve_once(transport, pid, join_token, &mut session, false)?;
    Ok(session.summary)
}

/// Classifies a mid-run transport failure: reconnectable connections
/// (TCP) hand the session back for a redial, everything else keeps the
/// legacy semantics (EOF is a clean stop, breakage is fatal).
fn disconnect(reconnectable: bool, fatal: WorkerError) -> Result<ServeEnd, WorkerError> {
    if reconnectable {
        Ok(ServeEnd::Disconnected)
    } else {
        Err(fatal)
    }
}

/// Drives one connection's worth of the protocol against `session`,
/// which accumulates identity and progress across calls (reconnects).
fn serve_once(
    transport: &mut dyn Transport,
    pid: u64,
    join_token: Option<&str>,
    session: &mut Session,
    reconnectable: bool,
) -> Result<ServeEnd, WorkerError> {
    // Remote coordinators can vanish without a trace (host power-off,
    // partition); bound every wait so the worker process can be relied
    // on to exit on its own.
    let recv_window = join_token.map(|_| COORDINATOR_SILENCE_TIMEOUT);
    let resuming = join_token.is_some() && session.session.is_some();
    if let Some(token) = join_token {
        let join = WorkerMsg::Join {
            protocol: PROTOCOL_VERSION,
            token: token.to_string(),
            pid,
            resume: session.session,
        };
        if let Err(e) = send_msg(transport, &join) {
            // A redial whose socket dies this fast is just another
            // failed attempt; a fresh join's transport should not break.
            return disconnect(resuming, WorkerError::Frame(e));
        }
    }

    // The handshake: Init (fresh session), or — when redialing with a
    // session id — Resumed, after which the pending ShardDone (if any)
    // is re-sent and service continues without a new handshake.
    match recv_first(transport, recv_window, reconnectable && resuming)? {
        First::Msg(CoordinatorMsg::Init {
            protocol,
            spec,
            spec_hash,
            session: _,
            plans: _,
        }) => {
            if protocol != PROTOCOL_VERSION {
                return Err(WorkerError::Protocol(format!(
                    "coordinator speaks protocol {protocol}, worker speaks {PROTOCOL_VERSION}"
                )));
            }
            spec.validate().map_err(WorkerError::Protocol)?;
            let local_hash = spec.spec_hash();
            if local_hash != spec_hash {
                return Err(WorkerError::Protocol(format!(
                    "spec hash mismatch: coordinator announced {spec_hash:#018x}, the decoded \
                     spec hashes to {local_hash:#018x} (corrupted spec or skewed codec)"
                )));
            }
            // A fresh Init in answer to a resume request means the
            // coordinator restarted: the old session — pending result
            // included — is void. Since protocol 4 the Init frame is
            // pre-encoded once per run, so its `session` field is a
            // placeholder; the real id arrives in the `Session` frame
            // that immediately follows.
            session.session = None;
            session.runner = Some(JobRunner::new(&spec));
            session.spec_hash = local_hash;
            session.pending = None;
            send_msg(
                transport,
                &WorkerMsg::Ready {
                    protocol: PROTOCOL_VERSION,
                    pid,
                    spec_hash: local_hash,
                },
            )?;
        }
        First::Msg(CoordinatorMsg::Resumed { session: sid }) if session.session == Some(sid) => {
            snip_obs::event!(
                snip_obs::log::Level::Info,
                "session {sid} resumed; {}",
                if session.pending.is_some() {
                    "re-sending the in-flight ShardDone"
                } else {
                    "nothing was in flight"
                }
            );
            let catch_up = match session.pending.clone() {
                Some(done) => done,
                None => WorkerMsg::Ready {
                    protocol: PROTOCOL_VERSION,
                    pid,
                    spec_hash: session.spec_hash,
                },
            };
            if send_msg(transport, &catch_up).is_err() {
                return Ok(ServeEnd::Disconnected);
            }
        }
        // A dialing worker can be turned away politely: the coordinator's
        // run was already complete when it got to this connection. No
        // work, no error.
        First::Msg(CoordinatorMsg::Shutdown) if join_token.is_some() => return Ok(ServeEnd::Done),
        First::Msg(other) => {
            return Err(WorkerError::Protocol(format!(
                "expected Init as the first message, got {other:?}"
            )))
        }
        First::Disconnected => return Ok(ServeEnd::Disconnected),
    }

    let runner = session
        .runner
        .as_ref()
        .expect("handshake leaves a runner in place");

    loop {
        let msg = match recv_msg::<CoordinatorMsg>(transport, recv_window) {
            Ok(Some(m)) => {
                // Any post-ShardDone coordinator message acknowledges the
                // delivery: the result is merged (or idempotently
                // droppable), no re-send needed.
                session.pending = None;
                m
            }
            // EOF mid-run: on a pipe, a vanished parent — a clean stop by
            // design; on TCP, a dropped socket — resume it.
            Ok(None) => {
                return Ok(if reconnectable {
                    ServeEnd::Disconnected
                } else {
                    ServeEnd::Done
                })
            }
            Err(RecvError::Frame(fe)) => return disconnect(reconnectable, WorkerError::Frame(fe)),
            Err(RecvError::TimedOut) => {
                return disconnect(
                    reconnectable,
                    WorkerError::Protocol(
                        "coordinator went silent past the worker's receive deadline \
                         (host down or network partition?)"
                            .into(),
                    ),
                )
            }
        };
        match msg {
            // The per-peer session id, sent right after the (shared,
            // pre-encoded) Init. Remembered for `Join { resume }`.
            CoordinatorMsg::Session { session: sid } => {
                session.session = Some(sid);
            }
            CoordinatorMsg::Shard { jobs, plans: _ } => {
                if jobs.is_empty() {
                    return Err(WorkerError::Protocol("empty shard batch".into()));
                }
                for ShardJob { id, start, end } in &jobs {
                    if start >= end || *end > runner.job_count() {
                        return Err(WorkerError::Protocol(format!(
                            "shard {id} range {start}..{end} is invalid for {} jobs",
                            runner.job_count()
                        )));
                    }
                }
                let mut results = Vec::with_capacity(jobs.len());
                for ShardJob { id, start, end } in &jobs {
                    // snip-lint: allow(wall-clock): "shard compute-latency metric; observability only"
                    let compute_start = Instant::now();
                    let metrics = {
                        let _span = snip_obs::span!("worker shard {id} jobs {start}..{end}");
                        (*start..*end).map(|i| runner.run_job(i)).collect()
                    };
                    snip_obs::metrics::histogram("snip_worker_shard_compute_us")
                        .observe(compute_start.elapsed());
                    results.push(ShardResult { id: *id, metrics });
                    session.summary.shards += 1;
                    session.summary.jobs += end - start;
                }
                let done = WorkerMsg::ShardDone {
                    results,
                    plans: Vec::new(),
                    seeded_hits: 0,
                };
                // The batch is computed either way; only the delivery is
                // in doubt, so the summary counts it above and `pending`
                // guards the delivery.
                session.pending = Some(done.clone());
                if let Err(e) = send_msg(transport, &done) {
                    return disconnect(reconnectable, WorkerError::Frame(e));
                }
            }
            CoordinatorMsg::Shutdown => return Ok(ServeEnd::Done),
            other => {
                return Err(WorkerError::Protocol(format!(
                    "unexpected mid-run message {other:?}"
                )))
            }
        }
    }
}

/// The first message of a connection, with EOF classified by context.
enum First {
    Msg(CoordinatorMsg),
    /// EOF on a resume attempt: the coordinator vanished between the
    /// redial and its reply — try again.
    Disconnected,
}

fn recv_first(
    transport: &mut dyn Transport,
    recv_window: Option<Duration>,
    eof_is_disconnect: bool,
) -> Result<First, WorkerError> {
    match recv_msg::<CoordinatorMsg>(transport, recv_window) {
        Ok(Some(m)) => Ok(First::Msg(m)),
        Ok(None) if eof_is_disconnect => Ok(First::Disconnected),
        Ok(None) => Err(WorkerError::Protocol(
            "coordinator closed the transport before Init (a dialing worker was \
             refused — wrong token, version skew — or the coordinator vanished)"
                .into(),
        )),
        Err(_) if eof_is_disconnect => Ok(First::Disconnected),
        Err(e) => Err(e.into()),
    }
}

/// Serves the worker protocol over a reader/writer pair (the spawned
/// worker's stdin/stdout, or in-memory streams in tests). No `Join` is
/// sent: a piped worker was spawned by its coordinator.
///
/// # Errors
///
/// Returns [`WorkerError`] as [`serve`].
pub fn run_worker<R: BufRead + Send + 'static, W: Write + Send>(
    input: R,
    output: W,
    pid: u64,
) -> Result<WorkerSummary, WorkerError> {
    let mut transport = StreamTransport::new(input, output, "stdio");
    serve(&mut transport, pid, None)
}

/// How a remote worker reaches its coordinator.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// The coordinator's `--listen` address.
    pub addr: SocketAddr,
    /// Shared secret (the coordinator's `--token-file` contents).
    pub token: String,
    /// Total budget for (re)dialing: keep retrying refused connections
    /// under jittered exponential [`Backoff`] until this much time has
    /// passed (the coordinator may still be binding when the worker
    /// starts, or be mid-restart when the worker reconnects).
    pub retry_for: Duration,
    /// Seed for the backoff jitter stream (the CLI uses the worker's
    /// pid, so a restarted host's workers spread out; tests pin it).
    pub backoff_seed: u64,
}

/// Most consecutive reconnect-and-resume attempts that achieve nothing
/// (no shard served, no shutdown) before the worker concludes the
/// coordinator is wedged and stops cleanly.
const MAX_FRUITLESS_RECONNECTS: u32 = 3;

/// Dials the coordinator and serves shards over TCP until `Shutdown`,
/// redialing and resuming the session if the socket drops mid-run.
///
/// # Errors
///
/// Returns [`WorkerError::Connect`] when the coordinator stays
/// unreachable past the retry window *before any session existed*;
/// otherwise as [`serve`]. Once a session is established, a coordinator
/// that disappears for good is a clean stop (the run is over for this
/// worker), not an error — mirroring the pipe worker's EOF semantics.
pub fn run_worker_tcp(opts: &ConnectOptions, pid: u64) -> Result<WorkerSummary, WorkerError> {
    let mut backoff = Backoff::new(opts.backoff_seed);
    let mut transport = dial(opts, &mut backoff)?;
    let mut session = Session::new();
    let mut fruitless = 0u32;
    loop {
        let shards_before = session.summary.shards;
        match serve_once(&mut transport, pid, Some(&opts.token), &mut session, true)? {
            ServeEnd::Done => return Ok(session.summary),
            ServeEnd::Disconnected => {
                fruitless = if session.summary.shards > shards_before {
                    0
                } else {
                    fruitless + 1
                };
                if fruitless > MAX_FRUITLESS_RECONNECTS {
                    snip_obs::event!(
                        snip_obs::log::Level::Warn,
                        "giving up after {MAX_FRUITLESS_RECONNECTS} fruitless reconnect(s)"
                    );
                    return Ok(session.summary);
                }
                snip_obs::metrics::counter("snip_worker_reconnects_total").inc();
                backoff.reset();
                match dial(opts, &mut backoff) {
                    Ok(t) => transport = t,
                    // The redial window expired with a session on the
                    // books: the coordinator is gone, the run is over.
                    Err(_) if session.runner.is_some() => return Ok(session.summary),
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

/// One dial attempt series under `backoff`, bounded by the retry window.
fn dial(opts: &ConnectOptions, backoff: &mut Backoff) -> Result<TcpTransport, WorkerError> {
    // snip-lint: allow(wall-clock): "redial retry deadline; connection bookkeeping only"
    let deadline = Instant::now() + opts.retry_for;
    loop {
        match TcpTransport::connect(&opts.addr) {
            Ok(t) => return Ok(t),
            Err(e) => {
                let delay = backoff.next_delay();
                // snip-lint: allow(wall-clock): "redial retry deadline; connection bookkeeping only"
                if Instant::now() + delay >= deadline {
                    return Err(WorkerError::Connect(e));
                }
                std::thread::sleep(delay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{example_spec, FleetSpec, JobRunner};
    use snip_replay::frame::{FrameReader, FrameWriter};
    use snip_sim::RunMetrics;
    use std::sync::{Arc, Mutex};

    fn small_spec() -> FleetSpec {
        FleetSpec {
            epochs: 2,
            ..example_spec()
        }
    }

    fn init_msg(spec: &FleetSpec) -> CoordinatorMsg {
        CoordinatorMsg::Init {
            protocol: PROTOCOL_VERSION,
            spec: spec.clone(),
            spec_hash: spec.spec_hash(),
            session: 0,
            plans: vec![],
        }
    }

    fn shard(id: u64, start: u64, end: u64) -> CoordinatorMsg {
        CoordinatorMsg::Shard {
            jobs: vec![ShardJob { id, start, end }],
            plans: vec![],
        }
    }

    /// Scripts the coordinator side on the v4 binary wire.
    fn coordinator_script(msgs: &[CoordinatorMsg]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new_binary(&mut buf);
        for m in msgs {
            w.send(m).unwrap();
        }
        buf
    }

    /// A clonable in-memory sink (the pump thread owns the input, so the
    /// test needs shared access to the output side only).
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn run_scripted(script: Vec<u8>, pid: u64) -> (Result<WorkerSummary, WorkerError>, Vec<u8>) {
        let out = SharedBuf::default();
        let result = run_worker(std::io::Cursor::new(script), out.clone(), pid);
        let bytes = out.0.lock().unwrap().clone();
        (result, bytes)
    }

    #[test]
    fn worker_serves_shards_and_shuts_down() {
        let spec = small_spec();
        let script = coordinator_script(&[
            init_msg(&spec),
            CoordinatorMsg::Session { session: 1 },
            shard(0, 0, 2),
            shard(1, 2, 4),
            CoordinatorMsg::Shutdown,
        ]);
        let (summary, out) = run_scripted(script, 7);
        assert_eq!(summary.unwrap(), WorkerSummary { shards: 2, jobs: 4 });

        let mut replies = FrameReader::new(std::io::Cursor::new(out));
        assert_eq!(
            replies.recv::<WorkerMsg>().unwrap(),
            Some(WorkerMsg::Ready {
                protocol: PROTOCOL_VERSION,
                pid: 7,
                spec_hash: spec.spec_hash(),
            })
        );
        let runner = JobRunner::new(&spec);
        let mut merged: Vec<RunMetrics> = Vec::new();
        for id in 0..2u64 {
            match replies.recv::<WorkerMsg>().unwrap() {
                Some(WorkerMsg::ShardDone { results, .. }) => {
                    assert_eq!(results.len(), 1);
                    assert_eq!(results[0].id, id);
                    merged.extend(results[0].metrics.clone());
                }
                other => panic!("expected ShardDone, got {other:?}"),
            }
        }
        // The worker's shard metrics are bit-identical to in-process runs.
        let reference: Vec<RunMetrics> = (0..4).map(|i| runner.run_job(i)).collect();
        assert_eq!(merged, reference);
    }

    #[test]
    fn batched_shards_come_back_as_one_reply() {
        let spec = small_spec();
        let script = coordinator_script(&[
            init_msg(&spec),
            CoordinatorMsg::Session { session: 1 },
            CoordinatorMsg::Shard {
                jobs: vec![
                    ShardJob {
                        id: 0,
                        start: 0,
                        end: 2,
                    },
                    ShardJob {
                        id: 1,
                        start: 2,
                        end: 4,
                    },
                ],
                plans: vec![],
            },
            CoordinatorMsg::Shutdown,
        ]);
        let (summary, out) = run_scripted(script, 7);
        assert_eq!(summary.unwrap(), WorkerSummary { shards: 2, jobs: 4 });

        let mut replies = FrameReader::new(std::io::Cursor::new(out));
        assert!(matches!(
            replies.recv::<WorkerMsg>().unwrap(),
            Some(WorkerMsg::Ready { .. })
        ));
        let runner = JobRunner::new(&spec);
        match replies.recv::<WorkerMsg>().unwrap() {
            Some(WorkerMsg::ShardDone { results, .. }) => {
                assert_eq!(results.len(), 2, "one reply carries the whole batch");
                let merged: Vec<RunMetrics> = results.into_iter().flat_map(|r| r.metrics).collect();
                let reference: Vec<RunMetrics> = (0..4).map(|i| runner.run_job(i)).collect();
                assert_eq!(merged, reference);
            }
            other => panic!("expected ShardDone, got {other:?}"),
        }
    }

    #[test]
    fn shipped_plans_are_ignored_and_none_are_sent_back() {
        use crate::proto::PlanEntry;
        use crate::spec::{JobSpec, NodeSpec};
        use serde::{json, Serialize as _};
        use snip_model::SnipModel;

        // One SNIP-OPT node at a ζtarget no other test solves.
        let target = 16.0 + 19e-9;
        let profile = snip_mobility::EpochProfile::roadside();
        let spec = FleetSpec {
            name: "ignore-plans".into(),
            seed: 3,
            epochs: 2,
            phi_max_secs: 86.4,
            job: JobSpec::Fleet {
                mechanism: snip_sim::Mechanism::SnipOpt,
                nodes: vec![NodeSpec {
                    name: "opt".into(),
                    profile: profile.clone(),
                    zeta_target: target,
                }],
            },
        };
        // A plan solved for another target, filed under the job's exact
        // plan-cache key: a worker that used it would report different
        // metrics than a local solve. Both references bypass the plan
        // cache, which a worker sharing this process could have touched.
        let model = SnipModel::new(spec.sim_config().ton);
        let slots = profile.to_slot_profile();
        let optimizer = snip_opt::TwoStepOptimizer::new(model, slots.clone());
        let wrong = optimizer.solve(spec.phi_max_secs, target * 1.5);
        let run_with = |plan: snip_opt::OptPlan| {
            snip_sim::Fleet::new(
                vec![snip_sim::FleetNode::new("opt", profile.clone(), target)],
                spec.sim_config(),
            )
            .with_seed(spec.seed)
            .run_node(
                0,
                snip_core::MechanismScheduler::from(snip_core::SnipOptScheduler::new(plan, &slots)),
            )
        };
        let reference = run_with(optimizer.solve(spec.phi_max_secs, target));
        assert_ne!(reference, run_with(wrong.clone()), "the wrong plan shows");
        let entry = PlanEntry {
            key: format!(
                "{}|{}|{:016x}|{:016x}",
                json::to_string(&model.to_value()),
                json::to_string(&slots.to_value()),
                spec.phi_max_secs.to_bits(),
                target.to_bits()
            ),
            plan: wrong,
        };
        let script = coordinator_script(&[
            CoordinatorMsg::Init {
                protocol: PROTOCOL_VERSION,
                spec: spec.clone(),
                spec_hash: spec.spec_hash(),
                session: 0,
                plans: vec![entry.clone()],
            },
            CoordinatorMsg::Session { session: 1 },
            CoordinatorMsg::Shard {
                jobs: vec![ShardJob {
                    id: 0,
                    start: 0,
                    end: 1,
                }],
                plans: vec![entry],
            },
            CoordinatorMsg::Shutdown,
        ]);
        let (summary, out) = run_scripted(script, 7);
        assert_eq!(summary.unwrap(), WorkerSummary { shards: 1, jobs: 1 });

        let mut replies = FrameReader::new(std::io::Cursor::new(out));
        assert!(matches!(
            replies.recv::<WorkerMsg>().unwrap(),
            Some(WorkerMsg::Ready { .. })
        ));
        match replies.recv::<WorkerMsg>().unwrap() {
            Some(WorkerMsg::ShardDone {
                results,
                plans,
                seeded_hits,
            }) => {
                assert_eq!(results[0].metrics, vec![reference]);
                assert!(plans.is_empty(), "no plans travel back");
                assert_eq!(seeded_hits, 0);
            }
            other => panic!("expected ShardDone, got {other:?}"),
        }
    }

    #[test]
    fn protocol_violations_are_refused() {
        // Version mismatch.
        let spec = small_spec();
        let script = coordinator_script(&[CoordinatorMsg::Init {
            protocol: PROTOCOL_VERSION + 1,
            spec: spec.clone(),
            spec_hash: spec.spec_hash(),
            session: 1,
            plans: vec![],
        }]);
        let (err, _) = run_scripted(script, 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));

        // Out-of-range shard.
        let script = coordinator_script(&[init_msg(&spec), shard(0, 0, 99)]);
        let (err, _) = run_scripted(script, 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));

        // An empty batch.
        let script = coordinator_script(&[
            init_msg(&spec),
            CoordinatorMsg::Shard {
                jobs: vec![],
                plans: vec![],
            },
        ]);
        let (err, _) = run_scripted(script, 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));

        // No Init at all.
        let (err, _) = run_scripted(Vec::new(), 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));

        // A Resumed for a session this worker never had.
        let script = coordinator_script(&[CoordinatorMsg::Resumed { session: 9 }]);
        let (err, _) = run_scripted(script, 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));
    }

    #[test]
    fn wrong_spec_hash_is_refused() {
        let spec = small_spec();
        let script = coordinator_script(&[CoordinatorMsg::Init {
            protocol: PROTOCOL_VERSION,
            spec: spec.clone(),
            spec_hash: spec.spec_hash() ^ 1,
            session: 1,
            plans: vec![],
        }]);
        let (err, out) = run_scripted(script, 1);
        match err.unwrap_err() {
            WorkerError::Protocol(msg) => assert!(msg.contains("spec hash mismatch"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(out.is_empty(), "no Ready may be sent for a bad spec hash");
    }

    #[test]
    fn coordinator_eof_is_a_clean_stop() {
        let script = coordinator_script(&[init_msg(&small_spec())]);
        let (summary, _) = run_scripted(script, 1);
        assert_eq!(summary.unwrap(), WorkerSummary { shards: 0, jobs: 0 });
    }

    #[test]
    fn unreachable_coordinator_is_a_connect_error() {
        // A port nothing listens on; one quick retry window.
        let opts = ConnectOptions {
            addr: "127.0.0.1:1".parse().unwrap(),
            token: "t".into(),
            retry_for: Duration::from_millis(50),
            backoff_seed: 7,
        };
        match run_worker_tcp(&opts, 1) {
            Err(WorkerError::Connect(_)) => {}
            other => panic!("expected a connect error, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_jittered_within_bounds() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(seed);
            (0..8).map(|_| b.next_delay()).collect()
        };
        assert_eq!(schedule(11), schedule(11), "same seed, same schedule");
        assert_ne!(schedule(11), schedule(12), "different seeds fan out");

        let mut b = Backoff::new(3);
        let mut ceiling = BACKOFF_BASE;
        for _ in 0..8 {
            let d = b.next_delay();
            assert!(
                d >= ceiling / 2 && d <= ceiling,
                "{d:?} outside [{:?}, {ceiling:?}]",
                ceiling / 2
            );
            ceiling = (ceiling * 2).min(BACKOFF_CAP);
        }
        assert_eq!(ceiling, BACKOFF_CAP, "delays saturate at the cap");

        // Reset starts the incident over.
        let mut b = Backoff::new(5);
        for _ in 0..6 {
            b.next_delay();
        }
        b.reset();
        assert!(b.next_delay() <= BACKOFF_BASE);
    }

    #[test]
    fn zero_seed_still_jitters() {
        let mut b = Backoff::new(0);
        let delays: Vec<Duration> = (0..4).map(|_| b.next_delay()).collect();
        assert!(delays.iter().any(|d| *d != Duration::ZERO));
    }
}
