//! `audit-1m`: `fairjob audit --alpha a --json` on a 1M-row CSV, call
//! for call — read the file, parse and bucketise, score, build the
//! context, run `balanced`, render the JSON report.

use super::{
    engine_counters, put_engine_layers, put_span_median, repeat_setup, SETUP_AFTER, SETUP_BEFORE,
};
use crate::measure::{median, release_free_heap, Counters, RssSampler};
use crate::{Env, Outcome};
use fairjob_core::algorithms::{self, Algorithm};
use fairjob_core::{AuditConfig, AuditContext, AuditResult};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_marketplace::{amt_schema, bucketise_numeric_protected, generate_uniform};
use fairjob_store::{csv, Table};
use std::path::Path;
use std::time::{Duration, Instant};

const ROWS: usize = 1_000_000;
/// Audit `i` scores with `alpha = 0.5 + i * ALPHA_STEP`, so no two
/// audits of a run share an input.
const ALPHA_STEP: f64 = 1e-4;

struct Audited {
    scores: Vec<f64>,
    result: AuditResult,
    json: String,
}

pub fn run(env: &Env) -> Result<Outcome, String> {
    let t = &env.tracer;
    let path = env.data_dir.join("workers.csv");
    let mut out = Outcome::default();

    set_up(env, &path, &mut out)?;
    repeat_setup(SETUP_BEFORE - 1, Duration::ZERO, || {
        set_up(env, &path, &mut out)
    })?;

    // `fairjob audit`'s defaults: 10 bins, `emd`, automatic shards.
    let config = AuditConfig::default();
    let algorithm = algorithms::by_name("balanced", 0xBEEF).ok_or("balanced is not registered")?;
    let mut audits: Vec<Audited> = Vec::new();
    // Every audit parses the same file; the checks need one copy.
    let mut table: Option<Table> = None;
    let rss = RssSampler::start();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < env.seconds {
        out.report.attempted += 1;
        let alpha = 0.5 + ALPHA_STEP * audits.len() as f64;
        // Each CLI audit is a fresh process: start from a trimmed heap.
        release_free_heap();
        let op = t.new_op();
        let (result, took) = t.span("audit", op, None, |id| {
            audit_once(env, &path, alpha, &config, &*algorithm, op, id)
        });
        match result {
            Ok((parsed, done)) => {
                out.audit_s.push(took.as_secs_f64());
                table.get_or_insert(parsed);
                audits.push(done);
            }
            Err(e) => {
                eprintln!("audit-1m: audit {op} failed: {e}");
                out.report.failed += 1;
            }
        }
    }
    out.peak_rss_mb = rss.stop();
    out.reads = audits.len() as u64;
    out.read_seconds = out.audit_s.iter().sum();

    // Checks: the reported unfairness is the plain average pairwise
    // distance of the reported partitioning, which covers every row.
    let mut search_counters = Vec::new();
    if let Some(table) = &table {
        for (i, a) in audits.iter().enumerate() {
            let op = t.new_op();
            let ctx = AuditContext::new(table, &a.scores, config.clone())
                .map_err(|e| format!("check context: {e}"))?;
            let parts = a.result.partitioning.partitions();
            let (recomputed, _) = t.span("core.final_pairs", op, None, |_| ctx.unfairness(parts));
            let recomputed = recomputed.map_err(|e| format!("check unfairness: {e}"))?;
            if (recomputed - a.result.unfairness).abs() > 1e-9 {
                out.report.mismatch(format!(
                    "audit {i}: reported unfairness {} but its partitioning averages {recomputed}",
                    a.result.unfairness
                ));
            }
            let covered: usize = parts.iter().map(|p| p.len()).sum();
            if covered != ROWS {
                out.report.mismatch(format!(
                    "audit {i}: partitions cover {covered} of {ROWS} rows"
                ));
            }
            if let Err(e) = a.result.partitioning.validate(ROWS) {
                out.report
                    .mismatch(format!("audit {i}: not a partitioning: {e}"));
            }
            let reported = format!("\"unfairness\":{:.6}", a.result.unfairness);
            if !a.json.contains(&reported) {
                out.report
                    .mismatch(format!("audit {i}: JSON report lacks {reported}"));
            }
            search_counters.push(engine_counters(&a.result.engine));
        }
    }

    repeat_setup(SETUP_AFTER, Duration::ZERO, || set_up(env, &path, &mut out))?;

    if t.enabled() {
        let r = &mut out.report;
        put_span_median(r, t, "store.csv_load_s", "store.csv_load");
        put_span_median(r, t, "store.csv_write_s", "store.csv_write");
        put_span_median(r, t, "marketplace.generate_s", "marketplace.generate");
        put_span_median(r, t, "marketplace.score_s", "marketplace.score");
        put_span_median(r, t, "core.context_build_s", "core.context_build");
        put_span_median(r, t, "core.search_s", "core.search");
        put_span_median(r, t, "core.report_s", "core.report");
        put_span_median(r, t, "core.final_pairs_s", "core.final_pairs");
        let search_s = median(&t.durations("core.search"));
        put_engine_layers(r, &Counters::median_of(&search_counters), search_s);
        r.put("bench.audits", out.audit_s.len() as f64, "count");
        r.put("bench.writes", out.write_s.len() as f64, "count");
        r.put("bench.reads", out.reads as f64, "count");
    }
    Ok(out)
}

/// Generate the population and write it as `fairjob generate --out`
/// does; records one set-up and one write sample.
fn set_up(env: &Env, path: &Path, out: &mut Outcome) -> Result<(), String> {
    let t = &env.tracer;
    env.clear_data()?;
    let op = t.new_op();
    let (written, took) = t.span("setup", op, None, |id| {
        let (table, _) = t.span("marketplace.generate", op, id, |_| {
            generate_uniform(ROWS, env.seed)
        });
        let (written, write) = t.span("store.csv_write", op, id, |_| {
            std::fs::write(path, csv::to_csv(&table))
        });
        written.map(|()| write.as_secs_f64())
    });
    out.write_s
        .push(written.map_err(|e| format!("write {}: {e}", path.display()))?);
    out.setup_s.push(took.as_secs_f64());
    Ok(())
}

/// One audit, exactly as `fairjob audit --workers FILE --alpha a --json`.
fn audit_once(
    env: &Env,
    path: &Path,
    alpha: f64,
    config: &AuditConfig,
    algorithm: &(dyn Algorithm + Send + Sync),
    op: u64,
    parent: Option<u64>,
) -> Result<(Table, Audited), String> {
    let t = &env.tracer;
    let (table, _) = t.span("store.csv_load", op, parent, |id| {
        let (text, _) = t.span("store.read_file", op, id, |_| std::fs::read_to_string(path));
        let text = text.map_err(|e| format!("read {}: {e}", path.display()))?;
        let (table, _) = t.span("store.csv_parse", op, id, |_| {
            let mut table = csv::from_csv(amt_schema(), &text).map_err(|e| e.to_string())?;
            if table.is_empty() {
                return Err("no rows".to_string());
            }
            bucketise_numeric_protected(&mut table).map_err(|e| format!("bucketise: {e}"))?;
            Ok::<_, String>(table)
        });
        table
    });
    let table = table?;
    let scorer = LinearScore::alpha(&format!("alpha-{alpha}"), alpha);
    let (scores, _) = t.span("marketplace.score", op, parent, |_| {
        scorer.score_all(&table)
    });
    let scores = scores.map_err(|e| format!("scoring: {e}"))?;
    let (result, json) = {
        let (ctx, _) = t.span("core.context_build", op, parent, |_| {
            AuditContext::new(&table, &scores, config.clone())
        });
        let ctx = ctx.map_err(|e| format!("audit setup: {e}"))?;
        let (result, _) = t.span("core.search", op, parent, |_| algorithm.run(&ctx));
        let result = result.map_err(|e| format!("{}: {e}", algorithm.name()))?;
        let (json, _) = t.span("core.report", op, parent, |_| {
            format!("{}\n", result.to_json(&ctx))
        });
        (result, std::hint::black_box(json))
    };
    Ok((
        table,
        Audited {
            scores,
            result,
            json,
        },
    ))
}
