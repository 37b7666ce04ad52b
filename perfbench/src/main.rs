//! End-to-end benchmark of the fairjob library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload audit-1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) through the same public
//! functions the `fairjob` CLI and daemon call, checks every output
//! after the timed window, and prints one JSON object as the last line
//! of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run also writes its
//! spans to `perfbench/out/trace-<workload>-<seed>.json`.

mod measure;
mod workloads;

use measure::{median, Report, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What a workload hands back: raw samples, counts, checks and its
/// per-layer metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each audit, input to report.
    pub audit_s: Vec<f64>,
    /// Wall time of each write (CSV, `.fjp` or `EPOCH`; per-layer only).
    pub write_s: Vec<f64>,
    /// Read replies (audits, queries) counted towards `reads_per_s`.
    pub reads: u64,
    /// Seconds those reads took: summed latencies for the batch
    /// workloads, time to the end of the last whole reader cycle for the
    /// serve mix.
    pub read_seconds: f64,
    pub peak_rss_mb: f64,
    /// Per-layer metrics and failure accounting.
    pub report: Report,
}

/// Settings every workload sees.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory for the workload's input files.
    pub data_dir: PathBuf,
}

impl Env {
    /// Empty the scratch directory, so each set-up writes fresh files
    /// instead of overwriting ones still being flushed.
    pub fn clear_data(&self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.data_dir);
        std::fs::create_dir_all(&self.data_dir)
            .map_err(|e| format!("create {}: {e}", self.data_dir.display()))
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("audit_s", "s"),
    ("reads_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (zero where the workload bypasses the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("store.csv_load_s", "s"),
    ("store.csv_write_s", "s"),
    ("store.paged_write_s", "s"),
    ("store.paged_open_s", "s"),
    ("store.page_misses", "count"),
    ("store.page_hits", "count"),
    ("store.page_hit_ratio", "ratio"),
    ("store.page_evictions", "count"),
    ("store.pages_scanned", "count"),
    ("store.pages_skipped", "count"),
    ("store.scan_mb_per_s", "MB/s"),
    ("store.working_set_over_budget", "ratio"),
    ("marketplace.generate_s", "s"),
    ("marketplace.score_s", "s"),
    ("core.context_build_s", "s"),
    ("core.shard_tasks", "count"),
    ("core.rows_classified_parallel", "count"),
    ("core.search_s", "s"),
    ("core.distances_computed", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.search_ns_per_distance", "ns"),
    ("core.splits_computed", "count"),
    ("core.split_cache_hit_ratio", "ratio"),
    ("core.rows_scanned", "count"),
    ("core.histograms_built", "count"),
    ("core.bounds_screened", "count"),
    ("core.pool_tasks", "count"),
    ("core.final_pairs_s", "s"),
    ("core.report_s", "s"),
    ("emd.exact_solves", "count"),
    ("emd.ground_cache_hits", "count"),
    ("emd.scratch_reuses", "count"),
    ("emd.warm_starts", "count"),
    ("emd.us_per_exact_solve", "us"),
    ("fairql.execute_s", "s"),
    ("fairql.overhead_s", "s"),
    ("serve.audit_engine_ms", "ms"),
    ("serve.audit_overhead_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.select_p50_ms", "ms"),
    ("serve.protect_audit_p50_ms", "ms"),
    ("serve.filtered_audit_p50_ms", "ms"),
    ("serve.repeat_audit_share", "share"),
    ("serve.repeat_query_share", "share"),
    ("serve.audits_rejected", "count"),
    ("serve.errors", "count"),
    ("serve.max_epoch_lag", "count"),
    ("serve.epochs_applied", "count"),
    ("serve.epoch_p50_ms", "ms"),
    ("serve.writer_late_ms", "ms"),
    ("stream.epoch_changes", "count"),
    ("stream.distances_per_epoch", "count"),
    ("stream.rows_scanned_per_epoch", "count"),
    ("bench.audits", "count"),
    ("bench.writes", "count"),
    ("bench.reads", "count"),
    ("traced.setup_s", "s"),
    ("traced.audit_s", "s"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

/// Removes the workload's input files however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new("perfbench").join("out");
    let data = DataDir(out_dir.join(format!("data-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&data.0) {
        eprintln!("perfbench: cannot create {}: {e}", data.0.display());
        return ExitCode::from(3);
    }
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        data_dir: data.0.clone(),
    };
    let outcome = match workloads::run(&args.workload, &env) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(4);
        }
    };
    drop(data);
    if outcome.report.attempted == 0 {
        eprintln!("perfbench: {}: no operation completed", args.workload);
        return ExitCode::from(4);
    }

    let e2e = end_to_end(&outcome);
    let mut report = outcome.report;
    let layers = std::mem::take(&mut report.metrics);
    if args.trace {
        let trace_path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let spans = match env.tracer.write_chrome(&trace_path) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
                return ExitCode::from(3);
            }
        };
        eprintln!(
            "perfbench: {spans} spans written to {}",
            trace_path.display()
        );
        for (name, unit) in PER_LAYER {
            let value = match *name {
                "traced.setup_s" => e2e["setup_s"],
                "traced.audit_s" => e2e["audit_s"],
                "trace.spans" => spans as f64,
                _ => match layers.get(*name) {
                    Some(&(value, _)) => value,
                    None if report.absent.iter().any(|a| a == name) => continue,
                    None => 0.0,
                },
            };
            report.put(name, value, unit);
        }
        if !report.absent.is_empty() {
            eprintln!(
                "perfbench: absent (counter not reported by the program): {}",
                report.absent.join(", ")
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            report.put(name, e2e[*name], unit);
        }
    }

    for (name, (value, unit)) in &report.metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    eprintln!(
        "  samples: {} setups, {} audits, {} writes, {} reads; attempted {} failed {}",
        outcome.setup_s.len(),
        outcome.audit_s.len(),
        outcome.write_s.len(),
        outcome.reads,
        report.attempted,
        report.failed
    );
    let show = |v: &[f64]| {
        v.iter()
            .take(12)
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("  setup_s samples: {}", show(&outcome.setup_s));
    eprintln!("  audit_s samples: {}", show(&outcome.audit_s));
    eprintln!("  write_s samples: {}", show(&outcome.write_s));
    for m in &report.mismatches {
        eprintln!("  CHECK FAILED: {m}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

fn end_to_end(o: &Outcome) -> std::collections::BTreeMap<&'static str, f64> {
    let attempted = o.report.attempted.max(1) as f64;
    [
        ("setup_s", median(&o.setup_s)),
        ("audit_s", median(&o.audit_s)),
        (
            "reads_per_s",
            measure::ratio(o.reads as f64, o.read_seconds),
        ),
        ("peak_rss_mb", o.peak_rss_mb),
        ("ok_share", (attempted - o.report.failed as f64) / attempted),
    ]
    .into_iter()
    .collect()
}
