//! The four workloads and what they share.

mod audit_1m;
mod exact_10k;
mod paged_2m;
mod serve_10k;

use crate::measure::{median, ratio, Counters, Report, Tracer};
use crate::{Env, Outcome};
use fairjob_core::{EngineStats, Partitioning};
use std::time::Duration;

pub const NAMES: &[&str] = &["audit-1m", "paged-2m", "exact-10k", "serve-10k"];

/// Set-up runs this many times before the window and this many after
/// it; `setup_s` is the median of them all.
pub const SETUP_BEFORE: usize = 2;
pub const SETUP_AFTER: usize = 3;

/// Run set-up `more` further times, `gap` apart. Runs before and after
/// the window spread the samples over the whole run instead of one
/// stretch of host load.
pub fn repeat_setup(
    more: usize,
    gap: Duration,
    mut once: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    for _ in 0..more {
        std::thread::sleep(gap);
        once()?;
    }
    Ok(())
}

pub fn run(name: &str, env: &Env) -> Result<Outcome, String> {
    match name {
        "audit-1m" => audit_1m::run(env),
        "paged-2m" => paged_2m::run(env),
        "exact-10k" => exact_10k::run(env),
        "serve-10k" => serve_10k::run(env),
        other => Err(format!(
            "unknown workload `{other}` ({})",
            NAMES.join(" | ")
        )),
    }
}

/// Engine counters of one run, by name.
pub fn engine_counters(stats: &EngineStats) -> Counters {
    Counters::from_pairs(stats.as_pairs())
}

/// A partitioning's identity: each partition's predicate fingerprint
/// and size, in order.
pub fn signature(partitioning: &Partitioning) -> Vec<(u128, usize)> {
    partitioning
        .partitions()
        .iter()
        .map(|p| (p.predicate.fingerprint(), p.len()))
        .collect()
}

/// Derive the `core.*`, `emd.*` and page-counter metrics from per-run
/// engine counters (`c`) and the search time they were spent in.
pub fn put_engine_layers(r: &mut Report, c: &Counters, search_s: f64) {
    let direct = [
        ("core.distances_computed", "distances_computed"),
        ("core.cache_hits", "cache_hits"),
        ("core.splits_computed", "splits_computed"),
        ("core.rows_scanned", "rows_scanned"),
        ("core.histograms_built", "histograms_built"),
        ("core.bounds_screened", "bounds_screened"),
        ("core.pool_tasks", "pool_tasks"),
        ("core.shard_tasks", "shard_tasks"),
        ("core.rows_classified_parallel", "rows_classified_parallel"),
        ("emd.exact_solves", "exact_solves"),
        ("emd.ground_cache_hits", "ground_cache_hits"),
        ("emd.scratch_reuses", "scratch_reuses"),
        ("emd.warm_starts", "warm_starts"),
        ("store.page_hits", "page_hits"),
        ("store.page_misses", "page_misses"),
        ("store.page_evictions", "page_evictions"),
        ("store.pages_scanned", "pages_scanned"),
        ("store.pages_skipped", "pages_skipped"),
    ];
    for (metric, counter) in direct {
        r.put_opt(metric, c.get(counter), "count");
    }
    let hit_ratio = |hits: &str, misses: &str| {
        let (h, m) = (c.get(hits)?, c.get(misses)?);
        Some(ratio(h, h + m))
    };
    r.put_opt(
        "core.cache_hit_ratio",
        hit_ratio("cache_hits", "distances_computed"),
        "ratio",
    );
    r.put_opt(
        "core.split_cache_hit_ratio",
        hit_ratio("split_cache_hits", "splits_computed"),
        "ratio",
    );
    r.put_opt(
        "store.page_hit_ratio",
        hit_ratio("page_hits", "page_misses"),
        "ratio",
    );
    r.put_opt(
        "core.search_ns_per_distance",
        c.get("distances_computed")
            .map(|d| ratio(search_s * 1e9, d)),
        "ns",
    );
    r.put_opt(
        "emd.us_per_exact_solve",
        c.get("exact_solves").map(|n| ratio(search_s * 1e6, n)),
        "us",
    );
}

/// Record the median duration of the spans named `span` as `metric`.
pub fn put_span_median(r: &mut Report, t: &Tracer, metric: &str, span: &str) {
    r.put(metric, median(&t.durations(span)), "s");
}
