//! Measurement helpers: process CPU time, peak RSS, quantiles, host
//! facts, and the benchmark-side span recorder of the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// User plus system CPU time of the whole process, in seconds.
pub fn cpu_seconds() -> f64 {
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `RUsage` has the layout of the 64-bit Linux `struct
    // rusage` (two `timeval`s of two `i64`s, then fourteen `long`s), and
    // the pointer is to a live, writable value of it for the call.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(usage.utime) + tv(usage.stime)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The `q`-quantile of `values` by the nearest-rank rule (sorts in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Waits until `due` by yielding the CPU in a loop. An idle vCPU of a
/// virtual machine takes tens of microseconds to wake, a delay that
/// moves with the other guests' load; with a sleep here that wake-up set
/// the latency of a lightly paced workload more than the program did.
/// Yielding keeps the vCPU awake and leaves it to the program's threads
/// whenever they can run.
pub fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time the hypervisor gave to other guests, in `USER_HZ` ticks
/// summed over all CPUs (the `steal` column of `/proc/stat`).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Host state when the run started.
pub struct Start {
    load: String,
    steal: Option<u64>,
}

impl Start {
    pub fn now() -> Start {
        Start { load: loadavg(), steal: steal_ticks() }
    }
}

/// Host facts printed with every result. `steal_ticks` is the CPU time
/// stolen by other guests during the run: on a shared host it explains
/// a slow run.
pub fn host_facts(start: &Start) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // `--git-dir` keeps git from searching parent directories when the
    // benchmark runs from a checkout that is not a repository.
    let commit = first_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]);
    let rustc = first_line("rustc", &["-V"]);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let steal = match (start.steal, steal_ticks()) {
        (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
        _ => "null".to_string(),
    };
    format!(
        "{{\"commit\":{},\"nproc\":{nproc},\"cpu\":{},\"profile\":\"{profile}\",\"rustc\":{},\"loadavg_start\":{},\"loadavg_end\":{},\"steal_ticks\":{steal}}}",
        json_str(&commit),
        json_str(&cpu),
        json_str(&rustc),
        json_str(&start.load),
        json_str(&loadavg())
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (an undefined ratio) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------
// Spans of the traced run.

/// One timed interval of benchmark code around a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub query: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

/// Span recorder: spans stay in memory (up to a cap; past it only the
/// per-name totals grow) and are written out when the run ends.
pub struct Tracer {
    base: Instant,
    enabled: bool,
    next: std::sync::atomic::AtomicU32,
    store: Mutex<Store>,
}

/// Spans kept for the JSONL file; totals keep counting past it.
const SPAN_CAP: usize = 200_000;

/// An open parent span.
#[derive(Clone, Copy)]
pub struct Open {
    pub id: u32,
    name: &'static str,
    start: Instant,
}

/// Per-thread span buffer, merged into the tracer when dropped.
pub struct SpanBuf<'a> {
    tracer: &'a Tracer,
    on: bool,
    spans: Vec<Span>,
    child: Vec<(&'static str, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            base: Instant::now(),
            enabled,
            next: std::sync::atomic::AtomicU32::new(1),
            store: Mutex::new(Store::default()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    fn id(&self) -> u32 {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    pub fn open(&self, name: &'static str) -> Open {
        Open { id: self.id(), name, start: Instant::now() }
    }

    /// Closes a parent span opened with [`Tracer::open`] under `parent`.
    pub fn close(&self, span: Open, parent: Option<Open>) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let mut buf = self.buf();
        buf.record(span.id, parent, span.name, 0, span.start, end);
    }

    pub fn buf(&self) -> SpanBuf<'_> {
        self.buf_when(true)
    }

    /// A buffer that records only when `on` and the tracer is enabled.
    pub fn buf_when(&self, on: bool) -> SpanBuf<'_> {
        SpanBuf { tracer: self, on: on && self.enabled, spans: Vec::new(), child: Vec::new() }
    }

    /// `(name, count, total_ns, self_ns)` for every span name.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let store = self.store.lock().expect("span store poisoned");
        store
            .agg
            .iter()
            .map(|(&name, a)| (name, a.count, a.total_ns, a.total_ns.saturating_sub(a.child_ns)))
            .collect()
    }

    /// Writes the kept spans as JSONL: one object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<u64> {
        use std::io::Write;
        let store = self.store.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &store.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.query, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(store.dropped)
    }
}

impl SpanBuf<'_> {
    /// Records a finished span. Its duration also counts as child time
    /// of `parent`'s name, so self time is span time minus child time.
    pub fn record(
        &mut self,
        id: u32,
        parent: Option<Open>,
        name: &'static str,
        query: u64,
        start: Instant,
        end: Instant,
    ) {
        let t = self.tracer;
        let span = Span {
            id,
            parent: parent.map_or(0, |p| p.id),
            name,
            query,
            start_ns: t.ns(start),
            end_ns: t.ns(end),
        };
        if let Some(p) = parent {
            self.child.push((p.name, span.end_ns - span.start_ns));
        }
        self.spans.push(span);
        if self.spans.len() >= 4096 {
            self.flush();
        }
    }

    /// Times `f` as a span named `name` under `parent` when tracing is
    /// on; otherwise just calls it.
    pub fn time<T>(
        &mut self,
        parent: Option<Open>,
        name: &'static str,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.tracer.id();
        let start = Instant::now();
        let out = f();
        self.record(id, parent, name, query, start, Instant::now());
        out
    }

    fn flush(&mut self) {
        // Also runs from `Drop`, which must not panic.
        let Ok(mut store) = self.tracer.store.lock() else { return };
        for s in self.spans.drain(..) {
            let a = store.agg.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end_ns - s.start_ns;
            if store.spans.len() < SPAN_CAP {
                store.spans.push(s);
            } else {
                store.dropped += 1;
            }
        }
        for (name, ns) in self.child.drain(..) {
            store.agg.entry(name).or_default().child_ns += ns;
        }
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}
