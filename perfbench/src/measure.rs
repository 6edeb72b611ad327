//! Clocks, resource usage and small statistics.

use std::time::Instant;

// The `rusage` layout below and `/proc/self/status` are 64-bit Linux's.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench measures through 64-bit Linux interfaces");

/// `struct timeval` as the x86-64 / aarch64 Linux ABI lays it out.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` (Linux, 64-bit): two timevals, then 14 longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the kernel's
    // layout for this target, and `who` is one of the two documented values.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage
}

fn cpu_us(u: &Rusage) -> u64 {
    let t = |tv: Timeval| (tv.sec * 1_000_000 + tv.usec) as u64;
    t(u.utime) + t(u.stime)
}

/// User plus system CPU of this process and of every child it has waited
/// for (fleet workers, round subprocesses), in µs.
pub fn cpu_total_us() -> u64 {
    cpu_us(&rusage(RUSAGE_SELF)) + cpu_us(&rusage(RUSAGE_CHILDREN))
}

/// This process's peak resident set since it was exec'd (`VmHWM`), in
/// MiB. `getrusage`'s `ru_maxrss` would not do: Linux carries the parent's
/// peak across `exec`, so a child spawned by a large coordinator, or this
/// process started through `cargo run`, reports its parent's peak.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Where fleet workers leave their peak RSS for the coordinator process
/// that spawned them: `.perfbench/rss/<parent pid>.<pid>`.
const RSS_DIR: &str = ".perfbench/rss";

/// Records this process's peak RSS for its parent (fleet workers only).
pub fn report_peak_rss_to_parent() {
    let path = format!(
        "{RSS_DIR}/{}.{}",
        std::os::unix::process::parent_id(),
        std::process::id()
    );
    let _ = std::fs::create_dir_all(RSS_DIR);
    let _ = std::fs::write(path, peak_rss_mib().to_string());
}

/// Takes (reads and deletes) the peaks this process's children recorded;
/// returns the largest, in MiB.
pub fn take_children_peak_rss_mib() -> f64 {
    let prefix = format!("{}.", std::process::id());
    let Ok(entries) = std::fs::read_dir(RSS_DIR) else {
        return 0.0;
    };
    let mut peak: f64 = 0.0;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            if let Ok(text) = std::fs::read_to_string(entry.path()) {
                peak = peak.max(text.trim().parse().unwrap_or(0.0));
            }
            let _ = std::fs::remove_file(entry.path());
        }
    }
    peak
}

/// Seconds since `start`, with full clock resolution.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Times `f` run `reps` times and returns the median seconds per call.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            secs_since(start)
        })
        .collect();
    median(&samples)
}

/// Times a batch of `n` calls of `f` (so sub-µs calls never round to
/// zero), repeats the batch `reps` times, and returns the median
/// nanoseconds per call.
pub fn batched_ns<T>(reps: usize, n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    median_secs(reps, || {
        for i in 0..n {
            std::hint::black_box(f(i));
        }
    }) * 1e9
        / n as f64
}

/// SplitMix64: derives independent, reproducible 64-bit values from a
/// seed and a stream index.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)` from `mix(seed, index)`.
pub fn uniform(seed: u64, index: u64, lo: f64, hi: f64) -> f64 {
    let u = (mix(seed, index) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}
