//! Bit-identity of the closed-form pairwise path. When the distance is
//! a CDF-L1 closed form (`emd`), the engine and the averager evaluate
//! pairs straight from prefix-CDF rows instead of going through the
//! memo. Every value must keep the bits of the memo path, which is
//! reached here through `MemoEmd`: the same `Emd1d` behind a wrapper
//! that forwards `distance` and `bounds` but not `closed_form`.

use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::unfairness::PairwiseAverager;
use fairjob_core::{AuditConfig, AuditContext, EngineCaches, EvalEngine, Partition};
use fairjob_hist::distance::{DistanceBounds, Emd1d};
use fairjob_hist::{BinSpec, DistanceError, Histogram, HistogramDistance};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_marketplace::toy::toy_workers;
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `Emd1d` on the memo path: same distances and bounds, no closed form.
#[derive(Debug)]
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

/// A pool of distinct histograms on `spec`, every fourth one empty.
fn pool(spec: &BinSpec, size: usize, rng: &mut StdRng) -> Vec<Histogram> {
    (0..size)
        .map(|i| {
            if i % 4 == 3 {
                return Histogram::empty(spec.clone());
            }
            let n = rng.gen_range(1..40usize);
            let lean: f64 = rng.gen_range(0.0..1.0);
            Histogram::from_values(
                spec.clone(),
                (0..n).map(|_| (lean * rng.gen_range(0.0..1.0f64)).min(1.0)),
            )
        })
        .collect()
}

/// The non-uniform layout used below: ten bins, narrow at the bottom.
fn skewed_spec() -> BinSpec {
    let edges = [0.0, 0.01, 0.03, 0.07, 0.12, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0];
    BinSpec::from_edges(edges.to_vec()).unwrap()
}

/// Drive every averager through the same seeded insert/remove sequence
/// and require identical `average()` bits after every operation.
fn drive(averagers: &mut [PairwiseAverager<'_>], hists: &[Histogram], ops: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Live (slot, pool index) entries; all averagers hand out the same
    // slot ids, since they see the same operations.
    let mut live: Vec<(usize, usize)> = Vec::new();
    for op in 0..ops {
        let insert = live.len() < 3 || (live.len() < 40 && rng.gen_range(0..2u32) == 0);
        if insert {
            let at = rng.gen_range(0..hists.len());
            // Keys identify pool entries: a repeated entry may hit the
            // memo, and the key's top bit stays clear.
            let key = 1 + at as u128;
            let slots: Vec<usize> = averagers
                .iter_mut()
                .map(|a| a.insert_keyed(key, hists[at].clone()).unwrap())
                .collect();
            assert!(slots.iter().all(|&s| s == slots[0]), "op {op}");
            live.push((slots[0], at));
        } else {
            let (slot, at) = live.swap_remove(rng.gen_range(0..live.len()));
            for a in averagers.iter_mut() {
                let (key, _) = a.remove(slot).unwrap().expect("live slot");
                assert_eq!(key, 1 + at as u128);
            }
        }
        let want = averagers[0].average().to_bits();
        for (i, a) in averagers.iter().enumerate() {
            assert_eq!(a.average().to_bits(), want, "averager {i}, op {op}");
            assert_eq!(a.len(), averagers[0].len(), "averager {i}, op {op}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// More than 4096 operations, so the periodic exact rebuild runs at
    /// least once on every averager.
    #[test]
    fn closed_form_averager_matches_the_memo_path_bit_for_bit(
        seed in 0u64..1_000_000,
        pool_size in 8usize..48,
    ) {
        const OPS: usize = 4_500;
        let (table, scores) = toy_workers();
        let emd_ctx = AuditContext::new(&table, &scores, AuditConfig::default()).unwrap();
        let memo_ctx = AuditContext::new(
            &table,
            &scores,
            AuditConfig::with_distance(Arc::new(MemoEmd)),
        )
        .unwrap();
        let (emd_engine, memo_engine) = (EvalEngine::new(&emd_ctx), EvalEngine::new(&memo_ctx));
        prop_assert!(emd_engine.is_closed_form() && !memo_engine.is_closed_form());

        // The context's uniform layout: engine-keyed and plain averagers.
        let mut rng = StdRng::seed_from_u64(seed);
        let hists = pool(emd_ctx.spec(), pool_size, &mut rng);
        let mut averagers = vec![
            PairwiseAverager::keyed(&emd_engine),
            PairwiseAverager::keyed(&memo_engine),
            PairwiseAverager::for_layout(&Emd1d, emd_ctx.spec()),
            PairwiseAverager::for_layout(&MemoEmd, emd_ctx.spec()),
        ];
        let modes: Vec<bool> = averagers.iter().map(|a| a.is_closed_form()).collect();
        prop_assert_eq!(modes, vec![true, false, true, false]);
        drive(&mut averagers, &hists, OPS, seed);
        let (fast, memo) = (emd_engine.stats(), memo_engine.stats());
        prop_assert_eq!(fast.cache_hits, 0);
        prop_assert!(fast.closed_form > 0);
        prop_assert_eq!(fast.distances_computed, fast.closed_form);
        prop_assert!(memo.cache_hits > 0);
        prop_assert_eq!(memo.closed_form, 0);

        // A non-uniform layout: the positions closed form.
        let spec = skewed_spec();
        let hists = pool(&spec, pool_size, &mut rng);
        let mut averagers = vec![
            PairwiseAverager::for_layout(&Emd1d, &spec),
            PairwiseAverager::for_layout(&MemoEmd, &spec),
            PairwiseAverager::new(&Emd1d),
        ];
        prop_assert!(averagers[0].is_closed_form() && !averagers[1].is_closed_form());
        drive(&mut averagers, &hists, OPS, seed ^ 0x5eed);
    }
}

/// The default audit of a 10k population: the partition count and the
/// unfairness bits the memo path produced before the closed-form path
/// existed.
#[test]
fn default_balanced_audit_keeps_its_golden_bits() {
    let mut workers = generate_uniform(10_000, 1);
    bucketise_numeric_protected(&mut workers).unwrap();
    let scores = LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap();
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    ctx.seed_engine_caches(EngineCaches::new());
    let result = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
    assert_eq!(result.partitioning.len(), 1793);
    assert_eq!(
        result.unfairness.to_bits(),
        0x3fc2_ab69_9110_934a,
        "{}",
        result.unfairness
    );
    assert_eq!(result.engine.cache_hits, 0);
    assert_eq!(result.engine.exact_solves, 0);
    assert_eq!(result.engine.closed_form, result.engine.distances_computed);
    let caches = ctx.take_engine_caches().expect("caches handed back");
    assert_eq!(
        caches.distances(),
        0,
        "closed-form pairs are never memoised"
    );
    assert!(caches.splits() > 0);
}

/// Rebin a partition's scores onto `spec`.
fn rebinned(part: &Partition, scores: &[f64], spec: &BinSpec) -> Histogram {
    Histogram::from_values(spec.clone(), part.rows.iter().map(|r| scores[r]))
}

/// A greedy "worst attribute" audit on a non-uniform layout, scored once
/// by the closed-form averager and once per pair through the memo-path
/// wrapper: every round must pick the same attribute with the same bits.
#[test]
fn non_uniform_layout_audit_is_bit_identical_on_both_paths() {
    let mut workers = generate_uniform(1_500, 7);
    bucketise_numeric_protected(&mut workers).unwrap();
    let scores = LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap();
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    let spec = skewed_spec();
    let mut parts = vec![ctx.root()];
    let mut remaining: Vec<usize> = ctx.attributes().to_vec();
    let mut rounds = 0;
    while !remaining.is_empty() {
        let mut best: Option<(usize, u64, Vec<Partition>)> = None;
        for &attr in &remaining {
            let candidate: Vec<Partition> = parts
                .iter()
                .flat_map(|p| ctx.split(p, attr).unwrap_or_else(|| vec![p.clone()]))
                .collect();
            let hists: Vec<Histogram> = candidate
                .iter()
                .map(|p| rebinned(p, &scores, &spec))
                .collect();
            let mut fast = PairwiseAverager::for_layout(&Emd1d, &spec);
            let mut memo = PairwiseAverager::for_layout(&MemoEmd, &spec);
            assert!(fast.is_closed_form() && !memo.is_closed_form());
            for h in &hists {
                fast.insert(h.clone()).unwrap();
                memo.insert(h.clone()).unwrap();
            }
            let value = fast.average();
            assert_eq!(value.to_bits(), memo.average().to_bits(), "attr {attr}");
            if best
                .as_ref()
                .is_none_or(|(_, b, _)| value > f64::from_bits(*b))
            {
                best = Some((attr, value.to_bits(), candidate));
            }
        }
        let (attr, _, next) = best.expect("attributes remain");
        remaining.retain(|&a| a != attr);
        parts = next;
        rounds += 1;
    }
    assert_eq!(rounds, ctx.attributes().len());
    assert!(parts.len() > 100, "{} partitions", parts.len());
}
