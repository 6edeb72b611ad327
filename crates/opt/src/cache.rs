//! Process-wide memoization of SNIP-OPT plans.
//!
//! A sweep re-solves the two-step optimization for every `(Φmax, ζtarget)`
//! point, and a fleet run re-solves it for every node sharing a profile —
//! yet the plan is a pure function of `(model, profile, Φmax, ζtarget)`.
//! A cold solve is curve construction plus two greedy allocations. The
//! curves integrate Υ once per distinct contact-length distribution, so
//! on profiles whose slots share one distribution, as all of the paper's
//! do, a solve costs about 60–80 µs; when every slot has its own
//! distribution, Υ runs once per slot and a solve costs about 1 ms
//! (two-vCPU x86-64 VM). This cache returns a stored clone for repeated
//! keys, so repeated sweep points and same-profile fleet nodes skip the
//! re-solve entirely.
//!
//! Keys are the *exact* inputs: the model and profile serialize through the
//! same shortest-round-trip JSON codec the journals use, and the two f64
//! scalars key on their raw bits. Two solves hit the same entry only when
//! every input is bit-identical, so caching can never change a result —
//! [`solve_cached`] is observationally equal to a fresh
//! [`TwoStepOptimizer::solve`].
//!
//! The cache is per process: fleet workers each solve their own plans.
//! A cold solve costs tens of microseconds, so solving a plan once per
//! worker is cheaper than shipping it between processes.
//!
//! Hit/miss counters are process-wide ([`plan_cache_stats`]) and surface in
//! the metrics registry as `snip_opt_plan_*_total`. Storage is bounded
//! ([`MAX_CACHED_PLANS`]): past the cap, solves still happen and return
//! correctly, they just stop being remembered.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use serde::{json, Serialize as _};
use snip_model::{SlotProfile, SnipModel};

use crate::two_step::{OptPlan, TwoStepOptimizer};

static CACHE: OnceLock<Mutex<BTreeMap<String, OptPlan>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Upper bound on stored plans. Sweeps and same-profile fleets reuse a
/// handful of keys; a heterogeneous 10⁵-node fleet could otherwise grow
/// the map (and its JSON key strings) without bound in a long-lived
/// worker. Once full, new plans are still solved and returned — they
/// just aren't stored.
pub const MAX_CACHED_PLANS: usize = 4_096;

/// The plan map, locked. A poisoned lock is recovered rather than
/// propagated: every critical section either reads or inserts one whole
/// entry, so the map is consistent wherever a panic can unwind through
/// it, and one panicking caller must not disable the cache for the rest
/// of the process.
fn cache() -> MutexGuard<'static, BTreeMap<String, OptPlan>> {
    CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Registry handles mirroring the cache counters (plus solve timing) into
/// the process metrics registry, resolved once.
struct CacheMetrics {
    hits: &'static snip_obs::metrics::Counter,
    misses: &'static snip_obs::metrics::Counter,
    solve_us: &'static snip_obs::metrics::Histogram,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: snip_obs::metrics::counter("snip_opt_plan_hits_total"),
        misses: snip_obs::metrics::counter("snip_opt_plan_misses_total"),
        solve_us: snip_obs::metrics::histogram("snip_opt_solve_us"),
    })
}

/// Cache-effectiveness counters, cumulative for the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Solves answered from the cache.
    pub hits: u64,
    /// Solves that had to run the optimizer.
    pub misses: u64,
    /// Distinct plans currently stored.
    pub entries: usize,
}

/// The process-wide plan-cache counters.
#[must_use]
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: cache().len(),
    }
}

/// The exact cache key: full JSON of the generative inputs plus the raw
/// bits of the scalar inputs.
fn key(model: &SnipModel, profile: &SlotProfile, phi_max: f64, zeta_target: f64) -> String {
    format!(
        "{}|{}|{:016x}|{:016x}",
        json::to_string(&model.to_value()),
        json::to_string(&profile.to_value()),
        phi_max.to_bits(),
        zeta_target.to_bits()
    )
}

/// [`TwoStepOptimizer::solve`] through the process-wide plan cache.
///
/// Bit-identical inputs return a clone of the first solve's plan; anything
/// else solves fresh and stores the result. Safe under concurrency (the
/// solve itself runs outside the lock; a race solves twice and stores the
/// identical plan twice).
///
/// # Panics
///
/// Panics if `phi_max` or `zeta_target` is not positive (the optimizer's
/// own contract).
#[must_use]
pub fn solve_cached(
    model: SnipModel,
    profile: &SlotProfile,
    phi_max: f64,
    zeta_target: f64,
) -> OptPlan {
    let key = key(&model, profile, phi_max, zeta_target);
    let metrics = cache_metrics();
    if let Some(plan) = cache().get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        metrics.hits.inc();
        return plan.clone();
    }
    // snip-lint: allow(wall-clock): "solve-latency observability metric; never feeds plan content"
    let solve_start = std::time::Instant::now();
    let plan = TwoStepOptimizer::new(model, profile.clone()).solve(phi_max, zeta_target);
    metrics.solve_us.observe(solve_start.elapsed());
    MISSES.fetch_add(1, Ordering::Relaxed);
    metrics.misses.inc();
    let mut map = cache();
    if map.len() < MAX_CACHED_PLANS {
        map.insert(key, plan.clone());
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_solve_equals_a_fresh_solve_and_counts_hits() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        // Keys other tests will not collide with (bit-exact f64s).
        let (phi_max, target) = (86.4 + 1e-9, 16.0 + 1e-9);

        let before = plan_cache_stats();
        let first = solve_cached(model, &profile, phi_max, target);
        let fresh = TwoStepOptimizer::new(model, profile.clone()).solve(phi_max, target);
        assert_eq!(first, fresh, "caching must not change the plan");

        let second = solve_cached(model, &profile, phi_max, target);
        assert_eq!(second, first);
        let after = plan_cache_stats();
        assert!(after.hits > before.hits, "second solve must hit");
        assert!(after.misses > before.misses, "first solve must miss");
        assert!(after.entries >= 1);
    }

    #[test]
    fn different_inputs_occupy_different_entries() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        let a = solve_cached(model, &profile, 864.0 + 1e-9, 16.0);
        let b = solve_cached(model, &profile, 864.0 + 1e-9, 24.0);
        assert!((a.zeta() - 16.0).abs() < 1e-9);
        assert!((b.zeta() - 24.0).abs() < 1e-9);
        // Bitwise keying: one-ULP-apart inputs occupy different entries.
        assert_ne!(
            key(&model, &profile, 16.0, 1.0),
            key(&model, &profile, f64::from_bits(16.0f64.to_bits() + 1), 1.0)
        );
    }

    #[test]
    fn solve_time_and_counters_land_in_the_metrics_registry() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        let (solves_before, _) = snip_obs::metrics::sum_histograms("snip_opt_solve_us");
        let _ = solve_cached(model, &profile, 86.4 + 9e-9, 16.0 + 9e-9);
        let _ = solve_cached(model, &profile, 86.4 + 9e-9, 16.0 + 9e-9);
        // Tests share the process registry and run concurrently, so only
        // a lower bound is stable: at least our one miss was timed.
        let (solves_after, _solve_us) = snip_obs::metrics::sum_histograms("snip_opt_solve_us");
        assert!(solves_after > solves_before, "the miss must time its solve");
        assert!(snip_obs::metrics::counter_value("snip_opt_plan_misses_total") >= 1);
        assert!(snip_obs::metrics::counter_value("snip_opt_plan_hits_total") >= 1);
    }
}
