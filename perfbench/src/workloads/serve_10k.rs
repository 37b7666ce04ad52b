//! `serve-10k`: a `fairjob-serve` daemon over 10k workers, driven over
//! two connections — an open-loop writer appending one epoch on a fixed
//! schedule and a closed-loop reader cycling `AUDIT` and three `QUERY`
//! statements.

use super::{put_engine_layers, repeat_setup};
use crate::measure::{max, median, ratio, Counters, RssSampler};
use crate::{Env, Outcome};
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_marketplace::stream::{generate_stream, StreamConfig, StreamScenario};
use fairjob_serve::{protocol, ServeClient, ServeConfig, Server};
use fairjob_store::PagedStore;
use fairjob_stream::StreamView;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 10_000;
/// About 1% of the population per epoch.
const EVENTS_PER_EPOCH: usize = 100;
/// Epoch `e` falls due `e * EPOCH_PERIOD` after the window opens —
/// longer than one apply, so the writer is not saturated.
const EPOCH_PERIOD: Duration = Duration::from_secs(5);
/// Set-up takes milliseconds, so it runs more often, spread out, for a
/// steadier median.
const SETUP_REPS: usize = 9;
const SETUP_GAP: Duration = Duration::from_millis(200);
/// `fairjob serve --mem-budget` default.
const SNAPSHOT_BUDGET: usize = 64 << 20;

/// What the reader sends, in order, round and round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    Audit,
    Select,
    ProtectAudit,
    FilteredAudit,
}

const CYCLE: [Read; 4] = [
    Read::Audit,
    Read::Select,
    Read::ProtectAudit,
    Read::FilteredAudit,
];

impl Read {
    fn statement(self) -> &'static str {
        match self {
            Read::Audit => "AUDIT",
            Read::Select => {
                "SELECT gender, COUNT(*), MEAN(approval_rate) FROM workers GROUP BY gender"
            }
            Read::ProtectAudit => "AUDIT workers PROTECT gender, country",
            Read::FilteredAudit => "AUDIT workers WHERE country = 'India'",
        }
    }
}

/// One completed reader request.
struct ReadReply {
    kind: Read,
    latency_s: f64,
    /// Epoch the reply reports (or the last one seen, for `SELECT`).
    epoch: u64,
    /// `AUDIT` only.
    bits: Option<u64>,
    /// Engine microseconds, for replies that carry them.
    elapsed_us: Option<f64>,
    /// When the reply arrived, from the start of the window.
    done_at: Duration,
}

/// One completed `EPOCH`.
struct EpochReply {
    epoch: u64,
    bits: u64,
    changes: f64,
    /// From its due time to its reply.
    latency_s: f64,
    /// How long after its due time it was sent.
    late_s: f64,
    /// `METRICS` engine totals across the request (traced runs).
    delta: Option<Counters>,
}

struct Daemon {
    server: Server,
    writer: ServeClient,
    reader: ServeClient,
}

impl Daemon {
    fn stop(self) -> Result<(), String> {
        self.writer.quit();
        self.reader.quit();
        self.server.shutdown();
        self.server
            .join()
            .map(|_| ())
            .map_err(|e| format!("server drain: {e}"))
    }
}

pub fn run(env: &Env) -> Result<Outcome, String> {
    let t = &env.tracer;
    let config = AuditConfig::default();
    let epochs = (env.seconds / EPOCH_PERIOD.as_secs_f64()).ceil() as usize + 1;
    let mut out = Outcome::default();

    let (scenario, mut daemon) = set_up(env, &config, epochs, &mut out)?;

    let metrics = |client: &mut ServeClient| -> Option<Counters> {
        if !t.enabled() {
            return None;
        }
        client
            .request("METRICS")
            .ok()
            .map(|l| Counters::from_kv_line(&l))
    };
    let baseline = metrics(&mut daemon.writer);

    let schema = scenario.initial.schema();
    let rss = RssSampler::start();
    let started = Instant::now();
    let window = Duration::from_secs_f64(env.seconds);
    let (writes, write_errors, reads, read_errors) = std::thread::scope(|scope| {
        let writer = &mut daemon.writer;
        let writer_loop = scope.spawn(|| {
            let mut replies = Vec::new();
            let mut errors = 0u64;
            for (e, events) in scenario.events.epochs().iter().enumerate() {
                let due = EPOCH_PERIOD * e as u32;
                if due >= window {
                    break;
                }
                let due_at = started + due;
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let before = metrics(writer);
                let sent = Instant::now();
                let op = t.new_op();
                let (reply, _) = t.span("serve.epoch", op, None, |_| writer.epoch(events, schema));
                let done = Instant::now();
                let after = metrics(writer);
                let parsed = reply.map_err(|e| e.to_string()).and_then(|line| {
                    Ok(EpochReply {
                        epoch: field(&line, "epoch")?,
                        bits: bits(&line)?,
                        changes: field::<f64>(&line, "changes")?,
                        latency_s: (done - due_at).as_secs_f64(),
                        late_s: (sent - due_at).as_secs_f64(),
                        delta: after.zip(before).map(|(a, b)| a.since(&b)),
                    })
                });
                match parsed {
                    Ok(reply) => replies.push(reply),
                    Err(e) => {
                        eprintln!("serve-10k: EPOCH {e}");
                        errors += 1;
                    }
                }
            }
            (replies, errors)
        });

        let reader = &mut daemon.reader;
        let mut replies: Vec<ReadReply> = Vec::new();
        let mut errors = 0u64;
        let mut last_epoch = 0;
        for kind in CYCLE.iter().cycle() {
            if started.elapsed() >= window {
                break;
            }
            let op = t.new_op();
            let (reply, took) = t.span("serve.read", op, None, |_| read(reader, *kind));
            match reply {
                Ok((epoch, bits, elapsed_us)) => {
                    let epoch = epoch.unwrap_or(last_epoch);
                    last_epoch = epoch;
                    replies.push(ReadReply {
                        kind: *kind,
                        latency_s: took.as_secs_f64(),
                        epoch,
                        bits,
                        elapsed_us,
                        done_at: started.elapsed(),
                    });
                }
                Err(e) => {
                    eprintln!("serve-10k: {} {e}", kind.statement());
                    errors += 1;
                }
            }
        }
        let (writes, write_errors) = writer_loop.join().expect("writer thread panicked");
        (writes, write_errors, replies, errors)
    });
    out.peak_rss_mb = rss.stop();
    let final_metrics = metrics(&mut daemon.writer);
    daemon.stop()?;

    out.report.attempted = (writes.len() + reads.len()) as u64 + write_errors + read_errors;
    out.report.failed = write_errors + read_errors;
    out.write_s = writes.iter().map(|w| w.latency_s).collect();
    let audits: Vec<&ReadReply> = reads.iter().filter(|r| r.kind == Read::Audit).collect();
    out.audit_s = audits.iter().map(|r| r.latency_s).collect();
    // The reader's rate over whole cycles only, so it does not depend on
    // where in the cycle the window closed.
    let whole = reads
        .iter()
        .rposition(|r| r.kind == Read::FilteredAudit)
        .map_or(reads.len(), |last| last + 1);
    out.reads = whole as u64;
    out.read_seconds = reads[..whole]
        .last()
        .map_or(0.0, |r| r.done_at.as_secs_f64());

    // Checks: every AUDIT and EPOCH reply carries the unfairness bits of
    // a cold offline audit of its epoch.
    let last = audits
        .iter()
        .map(|r| r.epoch)
        .chain(writes.iter().map(|w| w.epoch))
        .max()
        .unwrap_or(0);
    let expected = cold_bits(&scenario, &config, last as usize)?;
    for w in &writes {
        if expected.get(w.epoch as usize) != Some(&w.bits) {
            out.report.mismatch(format!(
                "EPOCH reply for epoch {} has bits {:016x}, cold audit {:?}",
                w.epoch,
                w.bits,
                expected.get(w.epoch as usize)
            ));
        }
    }
    for a in &audits {
        if a.bits.is_none() || expected.get(a.epoch as usize) != a.bits.as_ref() {
            out.report.mismatch(format!(
                "AUDIT of epoch {} has bits {:?}, cold audit {:?}",
                a.epoch,
                a.bits,
                expected.get(a.epoch as usize)
            ));
        }
    }

    repeat_setup(SETUP_REPS - 1, SETUP_GAP, || {
        set_up(env, &config, epochs, &mut out)?.1.stop()
    })?;

    if t.enabled() {
        put_serve_layers(&mut out, &reads, &writes, baseline, final_metrics);
    }
    Ok(out)
}

/// Generate the scenario, persist epoch 0 as a snapshot and boot a
/// daemon from it as `fairjob serve --snapshot FILE` does, then connect
/// the writer and the reader; records one set-up sample.
fn set_up(
    env: &Env,
    config: &AuditConfig,
    epochs: usize,
    out: &mut Outcome,
) -> Result<(StreamScenario, Daemon), String> {
    let t = &env.tracer;
    let path = env.data_dir.join("snapshot.fjp");
    env.clear_data()?;
    let op = t.new_op();
    let (made, took) = t.span("setup", op, None, |id| {
        let (scenario, _) = t.span("marketplace.generate", op, id, |_| {
            generate_stream(&StreamConfig {
                initial: WORKERS,
                epochs,
                events_per_epoch: EVENTS_PER_EPOCH,
                seed: env.seed,
                alpha: 0.5,
            })
        });
        let (written, _) = t.span("stream.snapshot_write", op, id, |_| {
            let view = StreamView::new(
                scenario.initial.clone(),
                scenario.scores.clone(),
                config.bins,
            )?;
            view.snapshot().write_paged(&path)
        });
        written.map_err(|e| format!("snapshot write: {e}"))?;
        let (store, _) = t.span("store.paged_open", op, id, |_| {
            PagedStore::open(&path, SNAPSHOT_BUDGET)
        });
        let store = store.map_err(|e| format!("snapshot open: {e}"))?;
        let (view, _) = t.span("stream.view_restore", op, id, |_| {
            StreamView::from_paged(&store)
        });
        let view = view.map_err(|e| format!("snapshot restore: {e}"))?;
        let (server, _) = t.span("serve.start", op, id, |_| {
            Server::start(
                view,
                Arc::new(Balanced::new(AttributeChoice::Worst)),
                config.clone(),
                ServeConfig::default(),
            )
        });
        let server = server.map_err(|e| format!("server start: {e}"))?;
        let (clients, _) = t.span("serve.connect", op, id, |_| {
            Ok::<_, fairjob_serve::ServeError>((
                ServeClient::connect(server.addr())?,
                ServeClient::connect(server.addr())?,
            ))
        });
        let (writer, reader) = clients.map_err(|e| format!("connect: {e}"))?;
        Ok::<_, String>((
            scenario,
            Daemon {
                server,
                writer,
                reader,
            },
        ))
    });
    out.setup_s.push(took.as_secs_f64());
    made
}

/// The epoch, `AUDIT` unfairness bits and engine microseconds a reader
/// reply carries.
type ReadFields = (Option<u64>, Option<u64>, Option<f64>);

/// Send one reader request and pull its fields.
fn read(client: &mut ServeClient, kind: Read) -> Result<ReadFields, String> {
    if kind == Read::Audit {
        let line = client.audit().map_err(|e| e.to_string())?;
        return Ok((
            Some(field(&line, "epoch")?),
            Some(bits(&line)?),
            Some(field(&line, "elapsed_us")?),
        ));
    }
    let (_, lines) = client.query(kind.statement()).map_err(|e| e.to_string())?;
    match lines.iter().find(|l| l.starts_with("audit ")) {
        Some(line) => Ok((
            Some(field(line, "epoch")?),
            None,
            Some(field(line, "elapsed_us")?),
        )),
        None if kind == Read::Select && !lines.is_empty() => Ok((None, None, None)),
        None => Err(format!("reply has no audit line: {lines:?}")),
    }
}

fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    protocol::kv(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("reply lacks `{key}`: {line}"))
}

fn bits(line: &str) -> Result<u64, String> {
    protocol::kv(line, "unfairness_bits")
        .and_then(protocol::parse_f64_bits)
        .map(f64::to_bits)
        .ok_or_else(|| format!("reply lacks unfairness bits: {line}"))
}

/// Unfairness bits of a cold audit of each epoch `0..=last`, computed
/// on two threads.
fn cold_bits(
    scenario: &StreamScenario,
    config: &AuditConfig,
    last: usize,
) -> Result<Vec<u64>, String> {
    let mut view = StreamView::new(
        scenario.initial.clone(),
        scenario.scores.clone(),
        config.bins,
    )
    .map_err(|e| format!("check view: {e}"))?;
    let mut states = vec![view.compact().map_err(|e| format!("compact: {e}"))?];
    for events in scenario.events.epochs().iter().take(last) {
        view.apply_epoch(events)
            .map_err(|e| format!("check epoch: {e}"))?;
        states.push(view.compact().map_err(|e| format!("compact: {e}"))?);
    }
    let audit = |(table, scores): &(fairjob_store::Table, Vec<f64>)| {
        let ctx = AuditContext::new(table, scores, config.clone())
            .map_err(|e| format!("check context: {e}"))?;
        Balanced::new(AttributeChoice::Worst)
            .run(&ctx)
            .map(|r| r.unfairness.to_bits())
            .map_err(|e| format!("check audit: {e}"))
    };
    std::thread::scope(|scope| {
        let odd = scope.spawn(|| {
            states
                .iter()
                .skip(1)
                .step_by(2)
                .map(audit)
                .collect::<Result<Vec<_>, _>>()
        });
        let even: Vec<u64> = states
            .iter()
            .step_by(2)
            .map(audit)
            .collect::<Result<_, _>>()?;
        let odd = odd.join().expect("check thread panicked")?;
        let mut merged = Vec::with_capacity(states.len());
        for i in 0..states.len() {
            merged.push(if i % 2 == 0 { even[i / 2] } else { odd[i / 2] });
        }
        Ok(merged)
    })
}

fn put_serve_layers(
    out: &mut Outcome,
    reads: &[ReadReply],
    writes: &[EpochReply],
    baseline: Option<Counters>,
    final_metrics: Option<Counters>,
) {
    let counts = [
        ("bench.audits", out.audit_s.len() as f64),
        ("bench.writes", out.write_s.len() as f64),
        ("bench.reads", out.reads as f64),
    ];
    let r = &mut out.report;
    for (name, n) in counts {
        r.put(name, n, "count");
    }
    let ms = |v: &[f64]| median(v) * 1e3;
    let of = |kind: Read| -> Vec<f64> {
        reads
            .iter()
            .filter(|x| x.kind == kind)
            .map(|x| x.latency_s)
            .collect()
    };
    let audits: Vec<&ReadReply> = reads.iter().filter(|x| x.kind == Read::Audit).collect();
    let engine_s: Vec<f64> = audits
        .iter()
        .filter_map(|a| a.elapsed_us)
        .map(|us| us / 1e6)
        .collect();
    let overhead: Vec<f64> = audits
        .iter()
        .filter_map(|a| Some(a.latency_s - a.elapsed_us? / 1e6))
        .collect();
    r.put("serve.audit_engine_ms", ms(&engine_s), "ms");
    r.put("serve.audit_overhead_ms", ms(&overhead), "ms");
    let queries: Vec<&ReadReply> = reads.iter().filter(|x| x.kind != Read::Audit).collect();
    let query_s: Vec<f64> = queries.iter().map(|q| q.latency_s).collect();
    r.put("serve.query_p50_ms", ms(&query_s), "ms");
    r.put("serve.select_p50_ms", ms(&of(Read::Select)), "ms");
    r.put(
        "serve.protect_audit_p50_ms",
        ms(&of(Read::ProtectAudit)),
        "ms",
    );
    r.put(
        "serve.filtered_audit_p50_ms",
        ms(&of(Read::FilteredAudit)),
        "ms",
    );
    let repeats = audits
        .windows(2)
        .filter(|w| w[0].epoch == w[1].epoch)
        .count();
    r.put(
        "serve.repeat_audit_share",
        ratio(repeats as f64, audits.len() as f64),
        "share",
    );
    let mut seen = HashSet::new();
    let repeated_queries = queries
        .iter()
        .filter(|q| !seen.insert((q.kind.statement(), q.epoch)))
        .count();
    r.put(
        "serve.repeat_query_share",
        ratio(repeated_queries as f64, queries.len() as f64),
        "share",
    );
    let epoch_s: Vec<f64> = writes.iter().map(|w| w.latency_s).collect();
    r.put("serve.epoch_p50_ms", ms(&epoch_s), "ms");
    let late: Vec<f64> = writes.iter().map(|w| w.late_s * 1e3).collect();
    r.put("serve.writer_late_ms", max(&late), "ms");
    let changes: Vec<f64> = writes.iter().map(|w| w.changes).collect();
    r.put("stream.epoch_changes", median(&changes), "count");

    let per_epoch = |name: &str| -> Option<f64> {
        let values: Option<Vec<f64>> = writes
            .iter()
            .map(|w| w.delta.as_ref().and_then(|d| d.get(name)))
            .collect();
        values.map(|v| median(&v))
    };
    r.put_opt(
        "stream.distances_per_epoch",
        per_epoch("distances_computed"),
        "count",
    );
    r.put_opt(
        "stream.rows_scanned_per_epoch",
        per_epoch("rows_scanned"),
        "count",
    );

    if let (Some(end), Some(start)) = (final_metrics, baseline) {
        let delta = end.since(&start);
        for (metric, name) in [
            ("serve.audits_rejected", "audits_rejected"),
            ("serve.errors", "errors"),
            ("serve.epochs_applied", "epochs_applied"),
        ] {
            r.put_opt(metric, delta.get(name), "count");
        }
        r.put_opt("serve.max_epoch_lag", end.get("max_epoch_lag"), "count");
        // Engine totals per engine run (AUDIT, audit queries, EPOCH).
        let runs = delta
            .get("audits_ok")
            .zip(delta.get("epochs_applied"))
            .map(|(a, e)| a + e);
        let per_run = Counters(
            delta
                .0
                .iter()
                .map(|(k, v)| (k.clone(), ratio(*v, runs.unwrap_or(0.0))))
                .collect(),
        );
        put_engine_layers(r, &per_run, median(&engine_s));
    }
    r.put("core.search_s", median(&engine_s), "s");
}
