//! End-to-end fleetd determinism: real worker subprocesses over real
//! transports — stdio pipes and localhost TCP sockets with the full
//! token + spec-hash handshake.
//!
//! The acceptance bar for the distributed driver: the same spec run over
//! *either transport* with 1, 2 and 4 workers, shard batches of 1 and 4
//! on the protocol-v4 binary wire — and with a peer severed mid-run —
//! produces output `assert_eq!`-identical to the single-process
//! reference ([`JobRunner::run_sequential`], i.e. `Fleet::run` /
//! `ScenarioRunner::sweep`). Metrics are exact integer-µs ledgers, so
//! equality here is bit-for-bit, not a tolerance.

use std::time::Duration;

use snip_fleetd::{
    FaultInjection, FleetDriver, FleetOutput, FleetSpec, JobRunner, JobSpec, NodeSpec, TcpConfig,
};
use snip_mobility::{EpochProfile, LengthDistribution};
use snip_sim::Mechanism;
use snip_units::SimDuration;

/// The `snip` binary built alongside this test — the real worker re-exec.
const SNIP_BIN: &str = env!("CARGO_BIN_EXE_snip");

/// Which dispatch path a test run takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// Spawned re-execs over stdio (`PipeTransport`).
    Pipe,
    /// Self-spawned workers dialing a localhost listener
    /// (`TcpTransport`, full authenticated handshake).
    Tcp,
}

const BOTH: [Dispatch; 2] = [Dispatch::Pipe, Dispatch::Tcp];

/// Shard-batch widths every bit-identity claim is checked under:
/// one job per `Shard` frame (the v3-shaped schedule) and the batched
/// v4 wire.
const BATCHES: [u64; 2] = [1, 4];

fn driver(spec: &FleetSpec, workers: usize, dispatch: Dispatch, batch: u64) -> FleetDriver {
    let base = FleetDriver::new(spec.clone(), workers)
        .expect("valid spec")
        .with_worker_command(SNIP_BIN, vec!["fleet-worker".into()])
        .with_shard_timeout(Duration::from_secs(120))
        .with_shard_size(1)
        .with_shard_batch(batch);
    match dispatch {
        Dispatch::Pipe => base,
        Dispatch::Tcp => base
            .with_tcp(TcpConfig {
                listen: "127.0.0.1:0".into(),
                token: "determinism-suite-token".into(),
                spawn_workers: true,
            })
            .expect("ephemeral localhost bind"),
    }
}

/// A six-node fleet over two distinct contact processes.
fn fleet_spec(mechanism: Mechanism) -> FleetSpec {
    let quiet = EpochProfile::roadside_with(
        SimDuration::from_secs(600),
        SimDuration::from_secs(3_600),
        LengthDistribution::paper_normal(SimDuration::from_secs(3)),
    );
    let nodes = (0..6)
        .map(|i| NodeSpec {
            name: format!("site-{i}"),
            profile: if i % 2 == 0 {
                EpochProfile::roadside()
            } else {
                quiet.clone()
            },
            zeta_target: 4.0 + 2.0 * f64::from(i),
        })
        .collect();
    FleetSpec {
        name: "determinism-fleet".into(),
        seed: 2011,
        epochs: 3,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet { mechanism, nodes },
    }
}

fn sweep_spec() -> FleetSpec {
    FleetSpec {
        name: "determinism-sweep".into(),
        seed: 77,
        epochs: 2,
        phi_max_secs: 86.4,
        job: JobSpec::Sweep {
            profile: EpochProfile::roadside(),
            zeta_targets: vec![16.0, 32.0],
        },
    }
}

#[test]
fn fleet_output_is_bit_identical_for_one_two_and_four_workers() {
    let spec = fleet_spec(Mechanism::SnipRh);
    let reference = JobRunner::new(&spec).run_sequential();
    for dispatch in BOTH {
        for workers in [1usize, 2, 4] {
            for batch in BATCHES {
                let run = driver(&spec, workers, dispatch, batch)
                    .run()
                    .expect("fleet run succeeds");
                assert_eq!(
                    run.output, reference,
                    "{workers} workers over {dispatch:?} (batch {batch}) must \
                     reproduce the sequential ledgers exactly"
                );
                match dispatch {
                    Dispatch::Pipe => {
                        assert_eq!(run.stats.workers, workers, "pipe spawns exactly");
                    }
                    // TCP counts *admitted* peers: a fast worker can drain
                    // the queue before every dialing peer finishes its
                    // handshake.
                    Dispatch::Tcp => assert!(
                        (1..=workers).contains(&run.stats.workers),
                        "tcp admits between 1 and {workers}, got {:?}",
                        run.stats
                    ),
                }
                assert_eq!(run.stats.workers_lost, 0, "{dispatch:?}");
                assert_eq!(run.stats.peers_rejected, 0, "{dispatch:?}");
                assert_eq!(run.stats.jobs, 6);
            }
        }
    }
}

#[test]
fn sweep_output_is_bit_identical_across_worker_counts() {
    let spec = sweep_spec();
    let reference = JobRunner::new(&spec).run_sequential();
    let FleetOutput::Sweep(ref points) = reference else {
        panic!("sweep spec produces sweep points");
    };
    assert_eq!(points.len(), 6, "2 targets x 3 mechanisms");
    for dispatch in BOTH {
        for workers in [1usize, 3] {
            for batch in BATCHES {
                let run = driver(&spec, workers, dispatch, batch)
                    .run()
                    .expect("sweep run succeeds");
                assert_eq!(
                    run.output, reference,
                    "{workers} workers over {dispatch:?} (batch {batch})"
                );
            }
        }
    }
}

#[test]
fn killed_worker_mid_run_is_stolen_from_and_output_is_unchanged() {
    // Enough single-job shards that the queue cannot possibly be drained
    // by the surviving worker in the instant between the fault sever and
    // the dead peer's next (failing) assignment.
    let mut spec = fleet_spec(Mechanism::SnipRh);
    let JobSpec::Fleet { ref mut nodes, .. } = spec.job else {
        unreachable!("fleet spec");
    };
    for i in 6..16 {
        nodes.push(NodeSpec {
            name: format!("site-{i}"),
            profile: EpochProfile::roadside(),
            zeta_target: 8.0,
        });
    }
    let reference = JobRunner::new(&spec).run_sequential();
    for dispatch in BOTH {
        for batch in BATCHES {
            // Peer 0 "crashes" after delivering one shard — a killed
            // subprocess on pipes, a dead socket on TCP; its next
            // assignment (a whole batch on the v4 wire) must be
            // re-queued and finished by the surviving worker.
            //
            // Startup skew can defuse the drill: if peer 0 is admitted
            // so late that the other worker has already drained the
            // queue, the sever lands after the finish line and nobody
            // is lost (which is correct driver behavior). Retry until
            // the kill bites mid-run; output must be bit-exact on
            // *every* attempt, bitten or not.
            let mut bitten = false;
            for attempt in 0..5 {
                let run = driver(&spec, 2, dispatch, batch)
                    .with_fault(FaultInjection::KillWorker {
                        worker: 0,
                        after_shards: 1,
                    })
                    .run()
                    .expect("the surviving worker finishes the fleet");
                assert_eq!(
                    run.output, reference,
                    "a mid-run disconnect over {dispatch:?} (batch {batch}) must not \
                     change a single bit of the report (attempt {attempt})"
                );
                assert_eq!(run.stats.jobs, 16);
                if run.stats.workers_lost == 1 && run.stats.shards_reassigned >= 1 {
                    bitten = true;
                    break;
                }
            }
            assert!(
                bitten,
                "{dispatch:?} (batch {batch}): in 5 attempts the drill never severed \
                 a peer mid-run (the steal path went unexercised)"
            );
        }
    }
}

#[test]
fn full_observability_does_not_move_a_bit() {
    // The whole snip-obs stack at maximum volume — SNIP_LOG=debug in this
    // process *and* in every spawned worker, plus a chrome://tracing sink
    // — must leave the merged ledgers bit-identical to the quiet
    // sequential reference: instrumentation reads wall clocks and
    // atomics, never simulation state.
    std::env::set_var("SNIP_LOG", "debug");
    snip_obs::log::set_level(snip_obs::log::Level::Debug);
    let trace_path = std::env::temp_dir().join(format!(
        "snip-fleet-determinism-trace-{}.json",
        std::process::id()
    ));
    assert!(
        snip_obs::trace::init_file(&trace_path),
        "first trace sink in this process"
    );

    let spec = fleet_spec(Mechanism::SnipRh);
    let reference = JobRunner::new(&spec).run_sequential();
    for dispatch in BOTH {
        let run = driver(&spec, 2, dispatch, 4)
            .run()
            .expect("instrumented fleet run succeeds");
        assert_eq!(
            run.output, reference,
            "debug logging + tracing + metrics over {dispatch:?} must be invisible \
             in the output"
        );
    }

    let trace = std::fs::read_to_string(&trace_path).expect("trace file exists");
    assert!(
        trace.contains("\"ph\":\"X\""),
        "the trace sink recorded at least one complete span"
    );
    assert!(
        trace.contains("fleet-run"),
        "the fleet run span reached the trace file"
    );
    let _ = std::fs::remove_file(&trace_path);
    snip_obs::log::set_level(snip_obs::log::Level::Warn);
}

#[test]
fn losing_every_worker_reports_incomplete() {
    let spec = fleet_spec(Mechanism::SnipRh);
    // A "worker" that ignores the protocol and exits immediately: `true`
    // reads nothing, writes nothing.
    let result = FleetDriver::new(spec, 2)
        .expect("valid spec")
        .with_worker_command("/bin/sh", vec!["-c".into(), "exit 0".into()])
        .with_shard_timeout(Duration::from_secs(30))
        .run();
    match result {
        Err(snip_fleetd::DriverError::Incomplete { workers_lost, .. }) => {
            assert_eq!(workers_lost, 2);
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
}

#[test]
fn every_mechanism_survives_the_distributed_path() {
    // SNIP-AT and SNIP-OPT shard and merge exactly too (their schedulers
    // are rebuilt per node inside each worker process); both transports
    // must agree with the sequential run and with each other.
    for mechanism in [Mechanism::SnipAt, Mechanism::SnipOpt] {
        let mut spec = fleet_spec(mechanism);
        spec.epochs = 2;
        let reference = JobRunner::new(&spec).run_sequential();
        for dispatch in BOTH {
            for batch in BATCHES {
                let run = driver(&spec, 2, dispatch, batch)
                    .run()
                    .expect("fleet run succeeds");
                assert_eq!(
                    run.output, reference,
                    "{mechanism:?} over {dispatch:?} (batch {batch})"
                );
            }
        }
    }
}

#[test]
fn two_runs_on_one_driver_are_bit_exact() {
    // Nodes sharing one (profile, ζtarget) key. A driver keeps no state
    // between runs: the second run's fresh workers solve their own plans,
    // and the merged report must not move by a bit.
    let nodes = (0..8)
        .map(|i| NodeSpec {
            name: format!("clone-{i}"),
            profile: EpochProfile::roadside(),
            zeta_target: 16.0,
        })
        .collect();
    let spec = FleetSpec {
        name: "repeat-runs".into(),
        seed: 99,
        epochs: 2,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet {
            mechanism: Mechanism::SnipOpt,
            nodes,
        },
    };
    let reference = JobRunner::new(&spec).run_sequential();
    for dispatch in BOTH {
        let d = driver(&spec, 2, dispatch, 4);
        let first = d.run().expect("first run succeeds");
        assert_eq!(first.output, reference, "{dispatch:?}: first run");
        let second = d.run().expect("second run succeeds");
        assert_eq!(second.output, reference, "{dispatch:?}: second run");
    }
}
