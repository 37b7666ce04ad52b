//! Measurement plumbing shared by every workload: spans, the resident
//! memory sampler, order statistics and the metric report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One recorded span: a call into one layer of the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The operation (audit, write, request) the span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder. Disabled, it records nothing and only
/// times the closure; enabled, every [`Tracer::span`] call also keeps a
/// [`Span`] until [`Tracer::write_chrome`] runs at the end of the run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh operation id; spans of one operation share it.
    pub fn new_op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span named `name`, returning its result and
    /// wall time. `f` receives the span's id (when tracing) to parent
    /// the spans it opens.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> (T, Duration) {
        let id = self
            .enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            let span = Span {
                id,
                parent,
                op,
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            };
            self.spans.lock().expect("span list poisoned").push(span);
        }
        (out, end - start)
    }

    /// Durations (seconds) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, `tid` = operation id.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                s.op
            ));
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

/// Peak resident set size over a window, in MiB. When the kernel's
/// high-water mark rises inside the window, that mark is the exact peak;
/// otherwise (set-up held more than the window does) the highest value
/// a background thread sampled stands in for it.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<f64>,
    hwm_before: f64,
}

const RSS_PERIOD: Duration = Duration::from_millis(5);

impl RssSampler {
    /// Start sampling, after handing heap memory that set-up freed back
    /// to the OS, so the peak reflects what the timed work holds.
    pub fn start() -> Self {
        release_free_heap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = status_mib("VmRSS:");
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(RSS_PERIOD);
                peak = peak.max(status_mib("VmRSS:"));
            }
            peak.max(status_mib("VmRSS:"))
        });
        RssSampler {
            stop,
            handle,
            hwm_before: status_mib("VmHWM:"),
        }
    }

    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        let sampled = self.handle.join().expect("rss sampler panicked");
        let hwm = status_mib("VmHWM:");
        if hwm > self.hwm_before {
            hwm
        } else {
            sampled
        }
    }
}

/// Hand heap memory the allocator holds free back to the OS (glibc
/// only), as if the next operation started in a fresh process.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
    // free pages at the top of the heap and in free chunks to the OS.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`) in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Engine counters by name, from `EngineStats::as_pairs` or a serve
/// `key=value` line. A name the program no longer reports is absent,
/// not zero.
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<String, f64>);

impl Counters {
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, u64)>) -> Self {
        Counters(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v as f64))
                .collect(),
        )
    }

    /// Every numeric `key=value` field of a serve response line.
    pub fn from_kv_line(line: &str) -> Self {
        Counters(
            line.split_whitespace()
                .filter_map(|tok| {
                    let (k, v) = tok.split_once('=')?;
                    Some((k.to_string(), v.parse::<f64>().ok()?))
                })
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Counter-wise `self - earlier` over the names both carry.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v - earlier.0.get(k)?)))
                .collect(),
        )
    }

    /// Per-name median across `samples`; a name missing from any
    /// sample is left out.
    pub fn median_of(samples: &[Counters]) -> Counters {
        let Some(first) = samples.first() else {
            return Counters::default();
        };
        Counters(
            first
                .0
                .keys()
                .filter_map(|k| {
                    let values: Option<Vec<f64>> = samples.iter().map(|c| c.get(k)).collect();
                    Some((k.clone(), median(&values?)))
                })
                .collect(),
        )
    }
}

/// Metrics of one run, printed as the final JSON line.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Metrics whose source counter the program did not report.
    pub absent: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record a metric derived from a counter that may be absent.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.put(name, v, unit),
            None => self.absent.push(name.to_string()),
        }
    }

    /// Record an output-check failure.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
