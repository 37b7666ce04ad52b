//! Sharded-kernel scale bench: an end-to-end audit through the audit
//! context's sharded, vectorization-friendly per-row kernels versus a
//! scalar replay of the same audit on the serial reference kernels, at
//! the **same thread count**.
//!
//! Beyond timing, this bench *asserts* the sharding contract:
//!
//! - on a ≥1M-row population the sharded audit (context build +
//!   balanced search over the gate's protected attributes) is **at
//!   least 2× faster** end-to-end than [`scalar_replay`], which ends on
//!   the same partitioning. The replay skips the engine bookkeeping a
//!   full audit pays, so it can only be faster than the scalar audit
//!   it stands in for;
//! - sharded audits are **bit-identical** (unfairness bits and
//!   partition count) across thread counts {1, 2, 8};
//! - the shard counters attribute truthfully: `shard_tasks` and
//!   `rows_classified_parallel` are positive, and the row meter is
//!   layout-independent.
//!
//! It also extends the machine-readable perf trajectory: a
//! `BENCH_shard.json` next to the workspace root with both end-to-end
//! timings and the speedup, uploaded as a CI artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext, AuditResult, Partition};
use fairjob_hist::Histogram;
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob_store::index::IndexSet;
use fairjob_store::{Predicate, RowSet, Table};
use std::hint::black_box;
use std::time::Instant;

/// Rows for the speedup gate.
const GATE_ROWS: usize = 1_000_000;
/// Required end-to-end speedup of the sharded audit over the replay.
const GATE_SPEEDUP: f64 = 2.0;
/// Rows for the bit-identity grid (small enough to sweep layouts).
const PARITY_ROWS: usize = 20_000;
/// Rows for the Criterion samples (the gate run is too big to repeat
/// `sample_size` times).
const BENCH_ROWS: usize = 200_000;
const SEED: u64 = 0x5AAD;

fn population(rows: usize) -> (Table, Vec<f64>) {
    let mut table = generate_uniform(rows, SEED);
    bucketise_numeric_protected(&mut table).expect("bucketise");
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&table)
        .expect("score");
    (table, scores)
}

/// Protected attributes of the gate audit. Two low-cardinality
/// attributes keep the workload dominated by the per-row kernels the
/// sharded path vectorizes (classification, index build, split walks);
/// auditing every attribute instead drowns both paths in the same
/// exact-EMD solves over ~1800 partitions and measures the solver, not
/// the layout.
const GATE_ATTRS: &[&str] = &["gender", "country"];

fn config(threads: usize, attrs: Option<&[&str]>) -> AuditConfig {
    AuditConfig {
        threads: Some(threads),
        attributes: attrs.map(|names| names.iter().map(|a| a.to_string()).collect()),
        ..AuditConfig::default()
    }
}

/// One end-to-end audit: context build (validation + classification +
/// index build) plus the balanced search — everything the shard layout
/// touches. `attrs = None` audits every protected attribute.
fn run_audit(table: &Table, scores: &[f64], threads: usize, attrs: Option<&[&str]>) -> AuditResult {
    let ctx = AuditContext::new(table, scores, config(threads, attrs)).expect("context");
    Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .expect("audit")
}

/// The balanced/worst-choice audit of `ctx`'s attributes on the serial
/// reference kernels, doing the per-row work the removed scalar
/// context path did: a first-bad-score scan, `bin_index` per row, an
/// [`IndexSet::build`] over every splittable attribute, and one
/// `split_with_bins` walk per candidate split. The search is
/// Algorithm 1: the first split is unconditional, then each round
/// splits every partition by each remaining attribute, keeps the one
/// with the highest [`AuditContext::unfairness`], and stops when that
/// does not strictly increase. `ctx` supplies only the attributes and
/// the distance.
fn scalar_replay(ctx: &AuditContext<'_>, table: &Table, scores: &[f64]) -> Vec<Partition> {
    assert!(scores
        .iter()
        .position(|s| !(0.0..=1.0).contains(s))
        .is_none());
    let spec = ctx.spec();
    let bin_of: Vec<u32> = scores.iter().map(|&s| spec.bin_index(s) as u32).collect();
    let indexes = IndexSet::build(table).expect("index build");
    // Every partition split by `attr` (unsplittable ones kept whole);
    // `None` when none of them splits.
    let split_all = |parts: &[Partition], attr: usize| {
        let mut out = Vec::with_capacity(parts.len() * 2);
        let mut any = false;
        for part in parts {
            let children = match indexes.get(attr) {
                Some(index) if !part.predicate.constrains(attr) => {
                    index.split_with_bins(&part.rows, &bin_of, spec.len())
                }
                _ => Vec::new(),
            };
            if children.len() <= 1 {
                out.push(part.clone());
                continue;
            }
            any = true;
            out.extend(children.into_iter().map(|child| Partition {
                predicate: part.predicate.and(attr, child.code),
                histogram: Histogram::from_counts(spec.clone(), child.bin_counts),
                rows: child.rows,
            }));
        }
        any.then_some(out)
    };
    let mut remaining = ctx.attributes().to_vec();
    let mut current = vec![Partition {
        predicate: Predicate::always(),
        rows: RowSet::all(table.len()),
        histogram: Histogram::from_bin_indices_u32(spec.clone(), bin_of.iter().copied()),
    }];
    // Below any unfairness, so the first split always goes ahead.
    let mut current_avg = f64::NEG_INFINITY;
    loop {
        let mut best: Option<(usize, Vec<Partition>, f64)> = None;
        for &attr in &remaining {
            if let Some(children) = split_all(&current, attr) {
                let value = ctx.unfairness(&children).expect("distance");
                if best.as_ref().is_none_or(|(_, _, b)| value > *b) {
                    best = Some((attr, children, value));
                }
            }
        }
        let Some((attr, children, value)) = best else {
            return current;
        };
        remaining.retain(|&a| a != attr);
        if current_avg >= value {
            return current;
        }
        current = children;
        current_avg = value;
    }
}

/// Best-of-`n` wall time of `f`, in microseconds.
fn best_of_us(n: usize, mut f: impl FnMut()) -> u128 {
    (0..n)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_micros()
        })
        .min()
        .expect("at least one run")
}

struct GateReport {
    scalar_us: u128,
    sharded_us: u128,
    speedup: f64,
}

/// The scale gate: ≥ [`GATE_SPEEDUP`]× end-to-end on [`GATE_ROWS`]
/// rows, same thread count, same partitioning, truthful counters.
fn assert_scale_gate(table: &Table, scores: &[f64]) -> GateReport {
    let ctx = AuditContext::new(table, scores, config(1, Some(GATE_ATTRS))).expect("context");
    let sharded = Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .expect("audit");
    let replay = scalar_replay(&ctx, table, scores);
    assert_eq!(replay, sharded.partitioning.partitions(), "replay diverged");
    assert!(
        sharded.engine.shard_tasks > 0,
        "sharded run dispatched no shard tasks"
    );
    assert!(
        sharded.engine.rows_classified_parallel >= GATE_ROWS as u64,
        "sharded run metered {} rows, expected at least the population",
        sharded.engine.rows_classified_parallel
    );

    // Best-of-3 on each side keeps a one-off stall from deciding the
    // gate.
    let scalar_us = best_of_us(3, || {
        black_box(scalar_replay(&ctx, table, scores));
    });
    let sharded_us = best_of_us(3, || {
        black_box(run_audit(table, scores, 1, Some(GATE_ATTRS)));
    });
    let speedup = scalar_us as f64 / sharded_us.max(1) as f64;
    assert!(
        speedup >= GATE_SPEEDUP,
        "sharded audit is only {speedup:.2}x the scalar replay \
         ({scalar_us}us vs {sharded_us}us) — the gate requires {GATE_SPEEDUP}x"
    );
    GateReport {
        scalar_us,
        sharded_us,
        speedup,
    }
}

/// Bit-identity and counter attribution across thread counts.
fn assert_layout_parity(table: &Table, scores: &[f64]) {
    let baseline = run_audit(table, scores, 1, None);
    let mut rows_metered: Vec<u64> = Vec::new();
    for threads in [1usize, 2, 8] {
        let got = run_audit(table, scores, threads, None);
        assert_eq!(
            got.unfairness.to_bits(),
            baseline.unfairness.to_bits(),
            "threads={threads} diverged"
        );
        assert_eq!(got.partitioning.len(), baseline.partitioning.len());
        assert!(
            got.engine.shard_tasks > 0,
            "threads={threads}: no shard tasks"
        );
        rows_metered.push(got.engine.rows_classified_parallel);
    }
    assert!(
        rows_metered.iter().all(|&r| r > 0 && r == rows_metered[0]),
        "rows_classified_parallel is layout-dependent: {rows_metered:?}"
    );
}

/// Write the machine-readable trajectory next to the workspace root.
fn write_bench_json(report: &GateReport) {
    let json = format!(
        "{{\"bench\":\"shard_scale\",\"rows\":{GATE_ROWS},\
\"attrs\":\"{}\",\"scalar_us\":{},\"sharded_us\":{},\"speedup\":{:.2},\
\"gate_speedup\":{GATE_SPEEDUP}}}\n",
        GATE_ATTRS.join(","),
        report.scalar_us,
        report.sharded_us,
        report.speedup,
    );
    // `cargo bench` runs with the package directory as cwd; BENCH_*.json
    // lands at the workspace root either way.
    let path = if std::path::Path::new("../../Cargo.toml").exists() {
        "../../BENCH_shard.json"
    } else {
        "BENCH_shard.json"
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("shard_scale: could not write {path}: {e}");
    }
    println!("shard_scale trajectory: {json}");
}

fn bench_shard_scale(c: &mut Criterion) {
    let (parity_table, parity_scores) = population(PARITY_ROWS);
    assert_layout_parity(&parity_table, &parity_scores);

    let (gate_table, gate_scores) = population(GATE_ROWS);
    let report = assert_scale_gate(&gate_table, &gate_scores);
    write_bench_json(&report);
    drop((gate_table, gate_scores));

    let (table, scores) = population(BENCH_ROWS);
    let ctx = AuditContext::new(&table, &scores, config(1, Some(GATE_ATTRS))).expect("context");
    let mut group = c.benchmark_group("shard_scale");
    group.sample_size(10);
    group.bench_function("audit_sharded", |b| {
        b.iter(|| black_box(run_audit(&table, &scores, 1, Some(GATE_ATTRS))))
    });
    group.bench_function("audit_scalar", |b| {
        b.iter(|| black_box(scalar_replay(&ctx, &table, &scores)))
    });
    group.finish();
}

criterion_group!(benches, bench_shard_scale);
criterion_main!(benches);
