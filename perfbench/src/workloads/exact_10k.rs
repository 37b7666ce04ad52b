//! `exact-10k`: one FairQL `AUDIT … METRIC emd-exact` statement per
//! distinct 10k-row population, through a fresh `fairql::Session` — the
//! `fairjob query --workers FILE -e …` path. Each population is written
//! as CSV and loaded before its statement, outside the statement's
//! timing.

use super::{engine_counters, put_engine_layers, put_span_median, repeat_setup};
use crate::measure::{median, Counters, RssSampler};
use crate::{Env, Outcome};
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_fairql::{AuditSummary, Defaults, QueryOutput, Session, Source};
use fairjob_hist::distance as hd;
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_marketplace::{amt_schema, bucketise_numeric_protected, generate_uniform};
use fairjob_store::{csv, Table};
use std::time::{Duration, Instant};

const ROWS: usize = 10_000;
const ATTRS: &[&str] = &[
    "gender",
    "country",
    "language",
    "ethnicity",
    "experience_band",
];
const STATEMENT: &str =
    "AUDIT workers PROTECT gender, country, language, ethnicity, experience_band METRIC emd-exact";
/// Set-up takes milliseconds, so it runs more often, spread out, for a
/// steadier median.
const SETUP_REPS: usize = 5;
const SETUP_GAP: Duration = Duration::from_millis(200);

struct Population {
    table: Table,
    scores: Vec<f64>,
}

pub fn run(env: &Env) -> Result<Outcome, String> {
    let t = &env.tracer;
    let mut out = Outcome::default();
    let mut populations = vec![set_up(env, &mut out)?];

    // Per statement: its summary and the seconds `execute` took, or
    // `None` when it failed.
    let mut results: Vec<Option<(AuditSummary, f64)>> = Vec::new();
    let rss = RssSampler::start();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < env.seconds {
        let k = results.len();
        if k == populations.len() {
            // The next population is written and loaded between
            // statements, as `fairjob generate` runs before each query.
            let op = t.new_op();
            let (population, write) = prepare(env, k, op, None)?;
            out.write_s.push(write);
            populations.push(population);
        }
        out.report.attempted += 1;
        let op = t.new_op();
        let pop = &populations[k];
        let (result, took) = t.span("audit", op, None, |id| {
            let source = Source::Batch {
                table: &pop.table,
                scores: &pop.scores,
            };
            let (session, _) = t.span("fairql.session", op, id, |_| {
                Session::new(source, Defaults::default())
            });
            let mut session = session.map_err(|e| format!("session: {e}"))?;
            let (outputs, execute) =
                t.span("fairql.execute", op, id, |_| session.execute(STATEMENT));
            let outputs = outputs.map_err(|e| format!("execute: {e}"))?;
            match outputs.as_slice() {
                [output @ QueryOutput::Audit { summary, .. }] => {
                    std::hint::black_box(output.render());
                    Ok((summary.clone(), execute.as_secs_f64()))
                }
                other => Err(format!("expected one audit output, got {}", other.len())),
            }
        });
        match result {
            Ok(done) => {
                out.audit_s.push(took.as_secs_f64());
                results.push(Some(done));
            }
            Err(e) => {
                eprintln!("exact-10k: statement {op} failed: {e}");
                out.report.failed += 1;
                results.push(None);
            }
        }
    }
    out.peak_rss_mb = rss.stop();
    out.reads = out.audit_s.len() as u64;
    out.read_seconds = out.audit_s.iter().sum();

    // Checks: each FairQL result equals the direct engine audit of its
    // population with the same configuration, counters included.
    let config = AuditConfig {
        distance: hd::by_name("emd-exact").ok_or("emd-exact is not registered")?,
        attributes: Some(ATTRS.iter().map(|a| a.to_string()).collect()),
        ..AuditConfig::default()
    };
    let checked: Vec<(usize, &AuditSummary)> = results
        .iter()
        .enumerate()
        .filter_map(|(k, r)| Some((k, &r.as_ref()?.0)))
        .collect();
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let halves: Vec<_> = checked
            .chunks(checked.len().div_ceil(2).max(1))
            .map(|half| {
                let (config, populations) = (&config, &populations);
                scope.spawn(move || {
                    half.iter()
                        .filter_map(|&(k, s)| {
                            let e = check(&populations[k], s, config).err()?;
                            Some(format!("statement {k}: {e}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for m in mismatches {
        out.report.mismatch(m);
    }

    repeat_setup(SETUP_REPS - 1, SETUP_GAP, || {
        set_up(env, &mut out).map(drop)
    })?;

    if t.enabled() {
        let ok: Vec<&(AuditSummary, f64)> = results.iter().flatten().collect();
        let engine_s: Vec<f64> = ok.iter().map(|(s, _)| s.elapsed_us as f64 / 1e6).collect();
        let overhead: Vec<f64> = ok
            .iter()
            .zip(&engine_s)
            .map(|((_, execute), engine)| execute - engine)
            .collect();
        let r = &mut out.report;
        put_span_median(r, t, "marketplace.generate_s", "marketplace.generate");
        put_span_median(r, t, "marketplace.score_s", "marketplace.score");
        put_span_median(r, t, "store.csv_write_s", "store.csv_write");
        put_span_median(r, t, "store.csv_load_s", "store.csv_load");
        put_span_median(r, t, "fairql.execute_s", "fairql.execute");
        r.put("fairql.overhead_s", median(&overhead), "s");
        r.put("core.search_s", median(&engine_s), "s");
        let counters: Vec<Counters> = ok.iter().map(|(s, _)| engine_counters(&s.engine)).collect();
        put_engine_layers(r, &Counters::median_of(&counters), median(&engine_s));
        r.put("bench.audits", out.audit_s.len() as f64, "count");
        r.put("bench.writes", out.write_s.len() as f64, "count");
        r.put("bench.reads", out.reads as f64, "count");
    }
    Ok(out)
}

/// Make the first population ready for its statement; records one
/// set-up and one write sample.
fn set_up(env: &Env, out: &mut Outcome) -> Result<Population, String> {
    env.clear_data()?;
    let op = env.tracer.new_op();
    let (made, took) = env
        .tracer
        .span("setup", op, None, |id| prepare(env, 0, op, id));
    let (population, write) = made?;
    out.setup_s.push(took.as_secs_f64());
    out.write_s.push(write);
    Ok(population)
}

/// Population `k` of this seed, written as CSV and loaded back the way
/// `fairjob query --workers FILE` loads it, and the seconds the write
/// took.
fn prepare(env: &Env, k: usize, op: u64, parent: Option<u64>) -> Result<(Population, f64), String> {
    let t = &env.tracer;
    let seed = env
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64);
    let path = env.data_dir.join(format!("population-{k}.csv"));
    let (raw, _) = t.span("marketplace.generate", op, parent, |_| {
        generate_uniform(ROWS, seed)
    });
    let (written, took) = t.span("store.csv_write", op, parent, |_| {
        std::fs::write(&path, csv::to_csv(&raw))
    });
    written.map_err(|e| format!("write {}: {e}", path.display()))?;
    let write = took.as_secs_f64();
    let (table, _) = t.span("store.csv_load", op, parent, |_| {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let mut table = csv::from_csv(amt_schema(), &text).map_err(|e| e.to_string())?;
        bucketise_numeric_protected(&mut table).map_err(|e| e.to_string())?;
        Ok::<_, String>(table)
    });
    let table = table.map_err(|e| format!("load {}: {e}", path.display()))?;
    let (scores, _) = t.span("marketplace.score", op, parent, |_| {
        LinearScore::alpha("f1", 0.5).score_all(&table)
    });
    let scores = scores.map_err(|e| format!("scoring: {e}"))?;
    Ok((Population { table, scores }, write))
}

fn check(pop: &Population, summary: &AuditSummary, config: &AuditConfig) -> Result<(), String> {
    let ctx = AuditContext::new(&pop.table, &pop.scores, config.clone())
        .map_err(|e| format!("check context: {e}"))?;
    let direct = Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .map_err(|e| format!("check audit: {e}"))?;
    if direct.unfairness.to_bits() != summary.unfairness_bits() {
        return Err(format!(
            "unfairness bits {:016x}, direct engine {:016x}",
            summary.unfairness_bits(),
            direct.unfairness.to_bits()
        ));
    }
    if direct.partitioning.len() != summary.partitions || summary.population != ROWS {
        return Err(format!(
            "{} partitions of {} rows, direct engine {} of {ROWS}",
            summary.partitions,
            summary.population,
            direct.partitioning.len()
        ));
    }
    // `ground_cache_hits` counts hits on a process-wide cache, so the
    // first solve of the process misses where later ones hit.
    let differing: Vec<String> = direct
        .engine
        .as_pairs()
        .iter()
        .zip(summary.engine.as_pairs())
        .filter(|(d, s)| d.1 != s.1 && d.0 != "ground_cache_hits")
        .map(|(d, s)| format!("{} {} vs {}", d.0, s.1, d.1))
        .collect();
    if !differing.is_empty() {
        return Err(format!(
            "engine counters differ from the direct engine run: {}",
            differing.join(", ")
        ));
    }
    Ok(())
}
