//! `paged-2m`: write a 2M-row population as a `.fjp` paged store, then
//! repeatedly open it under a buffer budget of a quarter of the audited
//! working set and audit `gender, country` out of core — the
//! `fairjob snapshot` + `fairjob audit --paged --mem-budget` path.

use super::{
    engine_counters, put_engine_layers, put_span_median, repeat_setup, signature, SETUP_AFTER,
    SETUP_BEFORE,
};
use crate::measure::{median, Counters, RssSampler};
use crate::{Env, Outcome};
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob_store::paged::{write_paged, PagedColumn, PAGE_SIZE};
use fairjob_store::{PagedStore, Schema, Table};
use std::path::Path;
use std::time::{Duration, Instant};

const ROWS: usize = 2_000_000;
const ATTRS: &[&str] = &["gender", "country"];
/// The audited working set is this many times the buffer budget.
const OVER_BUDGET: usize = 4;

struct Audited {
    bits: u64,
    signature: Vec<(u128, usize)>,
    counters: Counters,
}

pub fn run(env: &Env) -> Result<Outcome, String> {
    let t = &env.tracer;
    let path = env.data_dir.join("workers.fjp");
    let config = AuditConfig {
        attributes: Some(ATTRS.iter().map(|a| a.to_string()).collect()),
        ..AuditConfig::default()
    };
    let mut out = Outcome::default();

    let (table, scores, working_set) = set_up(env, &path, &config, &mut out)?;
    repeat_setup(SETUP_BEFORE - 1, Duration::ZERO, || {
        set_up(env, &path, &config, &mut out).map(drop)
    })?;
    let budget = (working_set / OVER_BUDGET).max(1);

    // Reference (not part of set-up): the in-memory audit of the same
    // population, which every paged audit must reproduce bit for bit.
    let reference = {
        let ctx = AuditContext::new(&table, &scores, config.clone())
            .map_err(|e| format!("reference context: {e}"))?;
        let result = Balanced::new(AttributeChoice::Worst)
            .run(&ctx)
            .map_err(|e| format!("reference audit: {e}"))?;
        (result.unfairness.to_bits(), signature(&result.partitioning))
    };
    drop((table, scores));

    let algorithm = Balanced::new(AttributeChoice::Worst);
    let mut audits: Vec<Audited> = Vec::new();
    let rss = RssSampler::start();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < env.seconds {
        out.report.attempted += 1;
        let op = t.new_op();
        let (result, took) = t.span("audit", op, None, |id| {
            let (store, _) = t.span("store.paged_open", op, id, |_| {
                PagedStore::open(&path, budget)
            });
            let store = store.map_err(|e| format!("open: {e}"))?;
            let (ctx, _) = t.span("core.context_build", op, id, |_| {
                AuditContext::from_paged(&store, config.clone(), None, None)
            });
            let ctx = ctx.map_err(|e| format!("audit setup: {e}"))?;
            let (result, _) = t.span("core.search", op, id, |_| algorithm.run(&ctx));
            let result = result.map_err(|e| format!("balanced: {e}"))?;
            let (json, _) = t.span("core.report", op, id, |_| result.to_json(&ctx));
            std::hint::black_box(json);
            Ok::<_, String>(Audited {
                bits: result.unfairness.to_bits(),
                signature: signature(&result.partitioning),
                counters: engine_counters(&result.engine),
            })
        });
        match result {
            Ok(done) => {
                out.audit_s.push(took.as_secs_f64());
                audits.push(done);
            }
            Err(e) => {
                eprintln!("paged-2m: audit {op} failed: {e}");
                out.report.failed += 1;
            }
        }
    }
    out.peak_rss_mb = rss.stop();
    out.reads = audits.len() as u64;
    out.read_seconds = out.audit_s.iter().sum();

    for (i, a) in audits.iter().enumerate() {
        if a.bits != reference.0 {
            out.report.mismatch(format!(
                "audit {i}: unfairness bits {:016x}, in-memory {:016x}",
                a.bits, reference.0
            ));
        }
        if a.signature != reference.1 {
            out.report.mismatch(format!(
                "audit {i}: partitioning differs from the in-memory audit"
            ));
        }
    }

    repeat_setup(SETUP_AFTER, Duration::ZERO, || {
        set_up(env, &path, &config, &mut out).map(drop)
    })?;

    if t.enabled() {
        let r = &mut out.report;
        put_span_median(r, t, "marketplace.generate_s", "marketplace.generate");
        put_span_median(r, t, "marketplace.score_s", "marketplace.score");
        put_span_median(r, t, "store.paged_write_s", "store.paged_write");
        put_span_median(r, t, "store.paged_open_s", "store.paged_open");
        put_span_median(r, t, "core.context_build_s", "core.context_build");
        put_span_median(r, t, "core.search_s", "core.search");
        put_span_median(r, t, "core.report_s", "core.report");
        let counters: Vec<Counters> = audits.iter().map(|a| a.counters.clone()).collect();
        let counters = Counters::median_of(&counters);
        let search_s = median(&t.durations("core.search"));
        put_engine_layers(r, &counters, search_s);
        let build_s = median(&t.durations("core.context_build"));
        r.put_opt(
            "store.scan_mb_per_s",
            counters
                .get("pages_scanned")
                .map(|pages| crate::measure::ratio(pages * PAGE_SIZE as f64 / 1e6, build_s)),
            "MB/s",
        );
        r.put(
            "store.working_set_over_budget",
            working_set as f64 / budget as f64,
            "ratio",
        );
        r.put("bench.audits", out.audit_s.len() as f64, "count");
        r.put("bench.writes", out.write_s.len() as f64, "count");
        r.put("bench.reads", out.reads as f64, "count");
    }
    Ok(out)
}

/// Generate, score and write the population as a `.fjp` store, as
/// `fairjob snapshot` does; records one set-up and one write sample.
/// Returns the population and the audited working set in bytes.
fn set_up(
    env: &Env,
    path: &Path,
    config: &AuditConfig,
    out: &mut Outcome,
) -> Result<(Table, Vec<f64>, usize), String> {
    let t = &env.tracer;
    env.clear_data()?;
    let op = t.new_op();
    let (made, took) = t.span("setup", op, None, |id| {
        let (table, _) = t.span("marketplace.generate", op, id, |_| {
            let mut table = generate_uniform(ROWS, env.seed);
            bucketise_numeric_protected(&mut table).map(|()| table)
        });
        let table = table.map_err(|e| format!("bucketise: {e}"))?;
        let (scores, _) = t.span("marketplace.score", op, id, |_| {
            LinearScore::alpha("f1", 0.5).score_all(&table)
        });
        let scores = scores.map_err(|e| format!("scoring: {e}"))?;
        let (written, write) = t.span("store.paged_write", op, id, |_| {
            write_paged(path, &table, Some(&scores), None, 0, config.bins)
        });
        written.map_err(|e| format!("write {}: {e}", path.display()))?;
        out.write_s.push(write.as_secs_f64());
        let working_set = audited_working_set(path, table.schema())?;
        Ok::<_, String>((table, scores, working_set))
    });
    out.setup_s.push(took.as_secs_f64());
    made
}

/// Decoded bytes of the pages the audit reads — the score column and
/// the audited attribute columns — sized as the `paged_scan` bench
/// sizes its budget.
fn audited_working_set(path: &Path, schema: &Schema) -> Result<usize, String> {
    let store = PagedStore::open(path, 1).map_err(|e| format!("open for sizing: {e}"))?;
    let mut columns = vec![PagedColumn::Scores];
    for name in ATTRS {
        let index = schema
            .index_of(name)
            .map_err(|e| format!("attribute `{name}`: {e}"))?;
        columns.push(PagedColumn::Attribute(index));
    }
    Ok(columns
        .iter()
        .flat_map(|&column| store.pages_of(column))
        .map(|&id| {
            let meta = store.page_meta(id);
            meta.rows as usize * meta.kind.row_bytes()
        })
        .sum())
}
