//! Evaluation-engine bench: one unbalanced-style greedy round (score
//! every per-partition candidate split) over a ≥100-partition synthetic
//! audit, evaluated four ways — naive O(k²)-per-candidate recomputation,
//! memo-cached full evaluation, delta (incremental) evaluation, and the
//! cached evaluation's parallel path.
//!
//! Beyond timing, this bench *asserts* the engine's contract with real
//! counters (EMD evaluations, not wall-clock): the incremental path must
//! perform at least 5× fewer distance computations than the naive path
//! while every candidate score stays within 1e-9 of the naive value.
//! That contract runs on the memo path (`CountingEmd` has no closed
//! form).
//!
//! It then gates the closed-form pairwise path on wall-clock: a
//! default-config `balanced` audit of a 10k-worker population runs once
//! on the closed-form path (`emd` evaluated from CDF rows) and once on
//! the memo path (the same `Emd1d` behind `MemoEmd`, which hides its
//! closed form). The two must agree bit for bit on the unfairness and
//! the partitioning, the fast path must neither probe nor fill the
//! memo, and its search must be at least `PAIRWISE_GATE`× faster.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_bench::prepare_population;
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{
    AuditConfig, AuditContext, AuditResult, EngineCaches, EvalEngine, IncrementalEval, Partition,
};
use fairjob_hist::distance::{DistanceBounds, DistanceError, Emd1d, HistogramDistance};
use fairjob_hist::Histogram;
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// [`Emd1d`] with an evaluation counter, so the naive path's distance
/// computations can be measured the same way the engine measures its own.
struct CountingEmd {
    count: AtomicU64,
}

impl HistogramDistance for CountingEmd {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        Emd1d.distance(a, b)
    }
    fn name(&self) -> &'static str {
        "counting-emd"
    }
}

/// [`Emd1d`] on the memo path: it forwards `distance` and `bounds` but
/// not `closed_form`, so the engine memoises its pairs exactly as it
/// does for any distance without a closed form.
struct MemoEmd;

impl HistogramDistance for MemoEmd {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        Emd1d.distance(a, b)
    }
    fn name(&self) -> &'static str {
        "emd-memo"
    }
    fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
        Emd1d.bounds(a, b)
    }
}

/// Minimum search speed-up of the closed-form path over the memo path
/// on the default 10k audit (measured 28.6× on a 2-core x86-64 host).
const PAIRWISE_GATE: f64 = 4.0;

/// One timed default `balanced` audit over `config`, with the engine
/// caches seeded so the memo can be inspected afterwards. Returns the
/// result, the search time, and the memoised distance count.
fn timed_audit(
    workers: &fairjob_store::table::Table,
    scores: &[f64],
    config: AuditConfig,
) -> (AuditResult, Duration, usize) {
    let ctx = AuditContext::new(workers, scores, config).expect("audit context");
    ctx.seed_engine_caches(EngineCaches::new());
    let start = Instant::now();
    let result = Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .expect("balanced audit");
    let elapsed = start.elapsed();
    let memo = ctx.take_engine_caches().expect("caches handed back");
    (result, elapsed, memo.distances())
}

/// The pairwise gate: closed-form vs memo path on the default audit.
fn assert_pairwise_gate() {
    let workers = prepare_population(10_000, 1);
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&workers)
        .expect("scores");
    let (fast, fast_time, fast_memo) = timed_audit(&workers, &scores, AuditConfig::default());
    let memo_config = AuditConfig::with_distance(Arc::new(MemoEmd));
    let (slow, slow_time, slow_memo) = timed_audit(&workers, &scores, memo_config);
    assert_eq!(
        fast.unfairness.to_bits(),
        slow.unfairness.to_bits(),
        "closed-form {} vs memo {}",
        fast.unfairness,
        slow.unfairness
    );
    assert_eq!(
        fast.partitioning.partitions(),
        slow.partitioning.partitions(),
        "the two paths chose different partitionings"
    );
    assert_eq!(
        fast.engine.cache_hits, 0,
        "closed-form pairs probed the memo"
    );
    assert_eq!(fast_memo, 0, "closed-form pairs were memoised");
    assert_eq!(fast.engine.closed_form, fast.engine.distances_computed);
    assert!(slow.engine.cache_hits > 0 && slow_memo > 0);
    assert_eq!(slow.engine.closed_form, 0);
    let speedup = slow_time.as_secs_f64() / fast_time.as_secs_f64();
    println!(
        "pairwise gate: {} partitions, unfairness bits {:016x}; search closed-form {:.3} s \
         ({} row pairs), memo {:.3} s ({} computed, {} hits): {speedup:.1}x",
        fast.partitioning.len(),
        fast.unfairness.to_bits(),
        fast_time.as_secs_f64(),
        fast.engine.closed_form,
        slow_time.as_secs_f64(),
        slow.engine.distances_computed,
        slow.engine.cache_hits,
    );
    assert!(
        speedup >= PAIRWISE_GATE,
        "closed-form search must be >= {PAIRWISE_GATE}x faster than the memo path: {speedup:.2}x"
    );
}

/// The bench workload: a partitioning of ≥100 partitions (five of the
/// six attributes pre-split) plus every per-partition candidate split on
/// the remaining attribute, capped at `MAX_CANDIDATES`.
const MAX_CANDIDATES: usize = 40;

struct Workload<'a> {
    ctx: AuditContext<'a>,
    counter: Arc<CountingEmd>,
    base: Vec<Partition>,
    /// `(partition index, children)` candidate splits.
    candidates: Vec<(usize, Vec<Partition>)>,
}

fn workload<'a>(workers: &'a fairjob_store::table::Table, scores: &'a [f64]) -> Workload<'a> {
    let counter = Arc::new(CountingEmd {
        count: AtomicU64::new(0),
    });
    let cfg = AuditConfig::with_distance(counter.clone());
    let ctx = AuditContext::new(workers, scores, cfg).expect("audit context");
    let attrs = ctx.attributes().to_vec();
    let (pre_split, last) = (&attrs[..attrs.len() - 1], attrs[attrs.len() - 1]);
    let mut base = vec![ctx.root()];
    for &a in pre_split {
        base = base
            .iter()
            .flat_map(|p| ctx.split(p, a).unwrap_or_else(|| vec![p.clone()]))
            .collect();
    }
    assert!(
        base.len() >= 100,
        "bench workload must audit >= 100 partitions, got {}",
        base.len()
    );
    let candidates: Vec<(usize, Vec<Partition>)> = base
        .iter()
        .enumerate()
        .filter_map(|(i, p)| ctx.split(p, last).map(|children| (i, children)))
        .take(MAX_CANDIDATES)
        .collect();
    assert!(
        candidates.len() >= 10,
        "not enough candidate splits: {}",
        candidates.len()
    );
    Workload {
        ctx,
        counter,
        base,
        candidates,
    }
}

fn materialise(base: &[Partition], index: usize, children: &[Partition]) -> Vec<Partition> {
    let mut out = Vec::with_capacity(base.len() + children.len());
    for (i, p) in base.iter().enumerate() {
        if i == index {
            out.extend(children.iter().cloned());
        } else {
            out.push(p.clone());
        }
    }
    out
}

/// Score every candidate naively (fresh O(k²) evaluation each).
fn naive_round(w: &Workload<'_>) -> Vec<f64> {
    w.candidates
        .iter()
        .map(|(i, children)| {
            w.ctx
                .unfairness(&materialise(&w.base, *i, children))
                .expect("naive eval")
        })
        .collect()
}

/// Score every candidate through a fresh engine's cached full evaluation.
fn cached_round(w: &Workload<'_>, parallel: bool) -> (Vec<f64>, u64) {
    let engine = if parallel {
        EvalEngine::new(&w.ctx)
            .with_parallel_threshold(64)
            .with_threads(4)
    } else {
        EvalEngine::new(&w.ctx).with_parallel_threshold(usize::MAX)
    };
    let values = w
        .candidates
        .iter()
        .map(|(i, children)| {
            engine
                .unfairness(&materialise(&w.base, *i, children))
                .expect("cached eval")
        })
        .collect();
    (values, engine.stats().distances_computed)
}

/// Score every candidate by delta evaluation over one seeded averager.
fn incremental_round(w: &Workload<'_>) -> (Vec<f64>, u64) {
    let engine = EvalEngine::new(&w.ctx);
    let mut incremental = IncrementalEval::new(&engine, &w.base).expect("seed");
    let values = w
        .candidates
        .iter()
        .map(|(i, children)| {
            incremental
                .score_replacements(&[(*i, children.as_slice())])
                .expect("delta eval")
        })
        .collect();
    (values, engine.stats().distances_computed)
}

/// The counter/parity contract, asserted once with real workloads before
/// any timing runs.
fn assert_engine_contract(w: &Workload<'_>) {
    w.counter.count.store(0, Ordering::Relaxed);
    let naive = naive_round(w);
    let naive_count = w.counter.count.load(Ordering::Relaxed);

    let (cached, cached_count) = cached_round(w, false);
    let (parallel, parallel_count) = cached_round(w, true);
    let (incremental, incremental_count) = incremental_round(w);
    for (label, values) in [
        ("cached", &cached),
        ("parallel", &parallel),
        ("incremental", &incremental),
    ] {
        assert_eq!(values.len(), naive.len());
        for (got, want) in values.iter().zip(&naive) {
            assert!(
                (got - want).abs() < 1e-9,
                "{label} diverged from naive: {got} vs {want}"
            );
        }
    }
    for (label, count) in [
        ("cached", cached_count),
        ("parallel", parallel_count),
        ("incremental", incremental_count),
    ] {
        assert!(
            count.saturating_mul(5) <= naive_count,
            "{label} path must compute >= 5x fewer distances: {count} vs naive {naive_count}"
        );
    }
    println!(
        "engine contract: {} partitions, {} candidates; EMD evals: naive {}, cached {}, \
         parallel {}, incremental {} ({}x fewer)",
        w.base.len(),
        w.candidates.len(),
        naive_count,
        cached_count,
        parallel_count,
        incremental_count,
        naive_count / incremental_count.max(1),
    );
}

fn bench_engine(c: &mut Criterion) {
    let workers = prepare_population(4000, 0xEDB7_2019);
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&workers)
        .expect("scores");
    let w = workload(&workers, &scores);
    assert_engine_contract(&w);
    assert_pairwise_gate();

    let mut group = c.benchmark_group("engine_greedy_round");
    group.sample_size(10);
    group.bench_function("naive", |b| b.iter(|| black_box(naive_round(&w))));
    group.bench_function("cached", |b| {
        b.iter(|| black_box(cached_round(&w, false).0))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| black_box(cached_round(&w, true).0))
    });
    group.bench_function("incremental", |b| {
        b.iter(|| black_box(incremental_round(&w)))
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
