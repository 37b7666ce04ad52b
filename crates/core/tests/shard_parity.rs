//! Shard-layout parity: an audit's result — unfairness bits,
//! partitioning shape, and every layout-independent engine counter —
//! must not depend on the thread count, nor on the shard layout the
//! context derives from it. The sharded kernels (per-shard
//! split/classify merged in serial shard order) are defined to be
//! bit-identical to the serial reference kernels; this suite holds
//! them to it across thread counts {1, 2, 8} against the 1-thread run,
//! and on a population large enough to take the pool-dispatched split
//! and parallel classification.

use fairjob_core::algorithms::{
    balanced::Balanced, unbalanced::Unbalanced, Algorithm, AttributeChoice,
};
use fairjob_core::{AuditConfig, AuditContext, AuditResult, EngineStats};
use fairjob_marketplace::scoring::{LinearScore, RuleBasedScore, ScoringFunction};
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob_store::paged::write_paged;
use fairjob_store::PagedStore;
use proptest::prelude::*;

fn population(size: usize, seed: u64, rule: bool) -> (fairjob_store::table::Table, Vec<f64>) {
    let mut workers = generate_uniform(size, seed);
    bucketise_numeric_protected(&mut workers).unwrap();
    let scores = if rule {
        RuleBasedScore::f7(5).score_all(&workers).unwrap()
    } else {
        LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap()
    };
    (workers, scores)
}

fn config(threads: usize) -> AuditConfig {
    AuditConfig {
        threads: Some(threads),
        ..AuditConfig::default()
    }
}

fn run(
    workers: &fairjob_store::table::Table,
    scores: &[f64],
    threads: usize,
    balanced: bool,
) -> AuditResult {
    let ctx = AuditContext::new(workers, scores, config(threads)).unwrap();
    if balanced {
        Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap()
    } else {
        Unbalanced::new(AttributeChoice::Worst).run(&ctx).unwrap()
    }
}

/// The counters defined to be independent of the shard layout and the
/// storage path: every `EngineStats` counter except the two shard-work
/// meters and the page-cache meters (always zero in memory).
fn layout_independent(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    stats
        .as_pairs()
        .into_iter()
        .filter(|(name, _)| {
            *name != "shard_tasks"
                && *name != "rows_classified_parallel"
                && !name.starts_with("page")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every thread count reproduces the single-thread run bit for bit,
    /// counters included.
    #[test]
    fn audits_are_bit_identical_across_shard_layouts(
        size in 80usize..260,
        seed in 0u64..1_000,
    ) {
        let balanced = seed % 2 == 0;
        let (workers, scores) = population(size, seed, !balanced);
        let baseline = run(&workers, &scores, 1, balanced);
        prop_assert!(baseline.engine.shard_tasks > 0);
        prop_assert!(baseline.engine.rows_classified_parallel > 0);
        for threads in [2usize, 8] {
            let got = run(&workers, &scores, threads, balanced);
            prop_assert_eq!(
                got.unfairness.to_bits(),
                baseline.unfairness.to_bits(),
                "threads={}: {} vs baseline {}",
                threads, got.unfairness, baseline.unfairness
            );
            prop_assert_eq!(got.partitioning.len(), baseline.partitioning.len());
            prop_assert_eq!(
                layout_independent(&got.engine),
                layout_independent(&baseline.engine),
                "layout-independent counters diverged at threads={}",
                threads
            );
            // Below one shard granule per thread slot the derived
            // layout, and so the shard work, is the same at every
            // thread count.
            prop_assert_eq!(got.engine.shard_tasks, baseline.engine.shard_tasks);
            prop_assert_eq!(
                got.engine.rows_classified_parallel,
                baseline.engine.rows_classified_parallel
            );
        }
    }
}

/// The split and classification paths that only run on large inputs
/// with more than one thread — per-shard tasks on the worker pool,
/// merged in shard order — give the same answers as one thread, in
/// memory and off a paged store, and agree with the legacy split on
/// the root and on its children. At 150k rows each `gender` child holds
/// about half, above the 65 536-row floor for pool dispatch.
#[test]
fn large_partitions_take_the_pool_dispatched_kernels() {
    let (workers, scores) = population(150_000, 3, false);
    let path = std::env::temp_dir().join(format!("fairjob-shard-{}.fjp", std::process::id()));
    write_paged(&path, &workers, Some(&scores), None, 0, 10).unwrap();
    let store = PagedStore::open(&path, 1 << 30).unwrap();
    let attr = |name: &str| workers.schema().index_of(name).unwrap();
    let (gender, country) = (attr("gender"), attr("country"));
    let mut baseline: Option<AuditResult> = None;
    for threads in [1usize, 2, 4] {
        let config = || AuditConfig {
            attributes: Some(vec!["gender".into(), "country".into()]),
            ..config(threads)
        };
        let mem = AuditContext::new(&workers, &scores, config()).unwrap();
        let paged = AuditContext::from_paged(&store, config(), None, None).unwrap();
        for ctx in [&mem, &paged] {
            let root = ctx.root();
            let children = ctx.split(&root, gender).unwrap();
            assert_eq!(Some(children.clone()), ctx.split_legacy(&root, gender));
            for child in &children {
                assert!(child.len() >= 65_536);
                assert_eq!(ctx.split(child, country), ctx.split_legacy(child, country));
            }
            let got = Balanced::new(AttributeChoice::Worst).run(ctx).unwrap();
            let base = baseline.get_or_insert_with(|| got.clone());
            assert_eq!(got.unfairness.to_bits(), base.unfairness.to_bits());
            assert_eq!(
                got.partitioning.partitions(),
                base.partitioning.partitions()
            );
            assert_eq!(
                layout_independent(&got.engine),
                layout_independent(&base.engine)
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
