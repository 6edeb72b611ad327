//! The protocol-v4 wire budget and the coordinator's timing breakdown,
//! held on the canonical Fig 7 sweep pushed through real pipe and TCP
//! fleets.
//!
//! The shape is fixed: Φmax 86.4 s, seed 2011, 14 epochs, ζtarget 16…56 s
//! (18 sweep points), 2 workers, shard batch 4, three pipe runs then
//! three TCP runs. The JSON-era wire (protocol v3) moved 492054 frame
//! bytes over these six runs — 27336 bytes per point. The binary frames
//! must stay strictly below that.
//!
//! The frame counters and histograms live in the process-wide `snip-obs`
//! registry, so this file holds a single test: no other test in this
//! binary can add to the totals it reads.

use std::time::Duration;

use snip_fleetd::{FleetDriver, FleetOutput, FleetSpec, JobSpec, TcpConfig};
use snip_mobility::EpochProfile;
use snip_obs::metrics::{sum_counters, sum_histograms};
use snip_sim::{ScenarioRunner, SimConfig};

/// The `snip` binary built alongside this test — the real worker re-exec.
const SNIP_BIN: &str = env!("CARGO_BIN_EXE_snip");

const PHI_MAX: f64 = 86.4;
const SEED: u64 = 2011;
const EPOCHS: u64 = 14;
const WORKERS: usize = 2;
const RUNS_PER_TRANSPORT: usize = 3;

/// Frame bytes (both directions) the v3 JSON wire moved for this shape.
const V3_FRAME_BYTES: u64 = 492_054;
/// The same, per sweep point.
const V3_FRAME_BYTES_PER_POINT: f64 = 27_336.0;

#[test]
fn binary_wire_stays_under_the_v3_budget_and_the_breakdown_is_populated() {
    let targets = vec![16.0, 24.0, 32.0, 40.0, 48.0, 56.0];
    let reference = ScenarioRunner::new(
        EpochProfile::roadside(),
        SimConfig::paper_defaults().with_epochs(EPOCHS),
        PHI_MAX,
    )
    .with_seed(SEED)
    .sweep_parallel(&targets, 1);
    let points = reference.len();
    assert_eq!(points, 18);

    let spec = FleetSpec {
        name: "wire-budget-sweep".into(),
        seed: SEED,
        epochs: EPOCHS,
        phi_max_secs: PHI_MAX,
        job: JobSpec::Sweep {
            profile: EpochProfile::roadside(),
            zeta_targets: targets,
        },
    };
    let driver = || {
        FleetDriver::new(spec.clone(), WORKERS)
            .expect("valid spec")
            .with_worker_command(SNIP_BIN, vec!["fleet-worker".into()])
            .with_shard_timeout(Duration::from_secs(120))
            .with_shard_batch(4)
    };
    let pipe = driver();
    let tcp = driver()
        .with_tcp(TcpConfig {
            listen: "127.0.0.1:0".into(),
            token: "wire-budget-token".into(),
            spawn_workers: true,
        })
        .expect("ephemeral localhost bind");
    for (transport, fleet) in [("pipe", &pipe), ("tcp", &tcp)] {
        for run in 0..RUNS_PER_TRANSPORT {
            let output = fleet.run().expect("fleet run succeeds").output;
            assert_eq!(
                output,
                FleetOutput::Sweep(reference.clone()),
                "{transport} run {run} must reproduce the sequential sweep exactly"
            );
        }
    }

    let tx = sum_counters("snip_frame_tx_bytes_total");
    let rx = sum_counters("snip_frame_rx_bytes_total");
    assert!(tx > 0 && rx > 0, "frames moved both ways: tx {tx}, rx {rx}");
    let total = tx + rx;
    assert!(
        total < V3_FRAME_BYTES,
        "{total} frame bytes must stay under the v3 wire's {V3_FRAME_BYTES}"
    );
    let per_point = total as f64 / points as f64;
    assert!(
        per_point < V3_FRAME_BYTES_PER_POINT,
        "{per_point:.1} frame bytes per point must stay under {V3_FRAME_BYTES_PER_POINT}"
    );

    for histogram in [
        "snip_sweep_point_us",
        "snip_opt_solve_us",
        "snip_shard_compute_us",
    ] {
        let (count, _) = sum_histograms(histogram);
        assert!(count > 0, "`{histogram}` recorded no observations");
    }
}
