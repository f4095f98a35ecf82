//! The load phases (closed loop and paced open loop) and the
//! end-of-run chi-square probe.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use iqs_stats::chi_square_gof;

use crate::inputs::{Inputs, Query, OPS_PER_WRITE};
use crate::measure::{cpu_seconds, us, wait_until, Open, Tracer};
use crate::workloads::{check_read, Kind, System, Workload, MAINTAIN_EVERY, WRITE_PERIOD_MS};

/// Client threads: one per vCPU of the reference host.
const CLIENTS: usize = 2;
/// Significance level of the end-of-run probe.
const PROBE_ALPHA: f64 = 1e-6;
const PROBE_CALLS: usize = 400;
const PROBE_S: u32 = 64;

/// Operations attempted and failed, with the first few failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.failed += other.failed;
    }
}

/// Outcome of the write stream.
#[derive(Default)]
pub struct Writes {
    /// Writes issued (the prefix of the write stream applied).
    pub issued: usize,
    /// Version the last successful write reported.
    pub last_version: u64,
    /// Latency of each write from its due time, µs.
    pub lat_us: Vec<f64>,
    pub tally: Tally,
}

/// Everything the phases of one run share.
pub struct Run<'a> {
    pub w: &'a Workload,
    pub inputs: &'a Inputs,
    pub sys: &'a System,
    pub tracer: &'a Tracer,
    next_read: AtomicUsize,
}

#[derive(Default)]
pub struct PhaseOut {
    pub reads: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Paced reads' latency from their due time, µs.
    pub lat_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub tally: Tally,
}

impl PhaseOut {
    /// Adds `other`'s reads, latencies and tally (not its times).
    pub fn absorb(&mut self, other: PhaseOut) {
        self.reads += other.reads;
        self.lat_us.extend(other.lat_us);
        self.lag_us.extend(other.lag_us);
        self.tally.absorb(other.tally);
    }
}

impl<'a> Run<'a> {
    pub fn new(
        w: &'a Workload,
        inputs: &'a Inputs,
        sys: &'a System,
        tracer: &'a Tracer,
    ) -> Run<'a> {
        Run { w, inputs, sys, tracer, next_read: AtomicUsize::new(0) }
    }

    /// The writer of `node_rw_s256`: the next `Update`s of the write
    /// stream after `out.issued`, one every `WRITE_PERIOD_MS` from now
    /// while they fall due before `end`, each timed from its due time and
    /// checked for its applied count and a version above every earlier
    /// one. It runs on its own thread, so both read clients keep their
    /// schedule while a write waits for its rebuild.
    pub fn writer(&self, end: Instant, out: &mut Writes) {
        let mut caller = self.sys.caller();
        let mut buf = self.tracer.buf();
        let period = Duration::from_millis(WRITE_PERIOD_MS);
        let start = Instant::now();
        let first = out.issued;
        for (k, batch) in self.inputs.writes.iter().enumerate().skip(first) {
            let due = start + period * (k - first) as u32;
            if due >= end {
                break;
            }
            // A write takes tens of milliseconds; a sleep's wake-up is
            // noise against that, and the writer need not spin.
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            out.issued += 1;
            out.tally.attempted += 1;
            let outcome = buf
                .time(None, "serve.Client::call(Update)", k as u64, || caller.write(batch.clone()));
            out.lat_us.push(us(due.elapsed()));
            match outcome {
                Ok((applied, version))
                    if applied == OPS_PER_WRITE && version > out.last_version =>
                {
                    out.last_version = version;
                }
                Ok((applied, version)) => out.tally.fail(format!(
                    "update applied {applied} of {OPS_PER_WRITE} at version {version} after {}",
                    out.last_version
                )),
                Err(e) => out.tally.fail(e),
            }
        }
    }

    /// Runs one phase for `dur` with [`CLIENTS`] threads: back to back
    /// (`paced == false`) or on one shared schedule at the workload's
    /// fixed rate, each read timed from its due time.
    pub fn phase(
        &self,
        dur: Duration,
        paced: bool,
        traced: bool,
        parent: Option<Open>,
    ) -> PhaseOut {
        let period = Duration::from_secs_f64(1.0 / self.w.paced_qps);
        let slot = AtomicU64::new(0);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let end = start + dur;
        let outs: Vec<PhaseOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let slot = &slot;
                    scope.spawn(move || {
                        self.client(end, paced.then_some((start, period, slot)), traced, parent)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut total = PhaseOut {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu0,
            ..PhaseOut::default()
        };
        for out in outs {
            total.absorb(out);
        }
        total
    }

    fn client(
        &self,
        end: Instant,
        pacing: Option<(Instant, Duration, &AtomicU64)>,
        traced: bool,
        parent: Option<Open>,
    ) -> PhaseOut {
        let mut buf = self.tracer.buf_when(traced);
        let read_span = match self.w.kind {
            Kind::Scatter | Kind::Remote => "shard.ClusterClient::sample_wr",
            Kind::NodeRw | Kind::Cold => "serve.Client::call",
        };
        let mut caller = self.sys.caller();
        let mut out = PhaseOut::default();
        let reads = &self.inputs.reads;
        let id_limit = self.w.id_limit();
        loop {
            let due = match pacing {
                Some((start, period, slot)) => {
                    let k = slot.fetch_add(1, Ordering::Relaxed);
                    let due = start + period.mul_f64(k as f64);
                    if due >= end {
                        break;
                    }
                    wait_until(due);
                    Some(due)
                }
                None if Instant::now() >= end => break,
                None => None,
            };
            let i = self.next_read.fetch_add(1, Ordering::Relaxed);
            let q: &Query = &reads[i % reads.len()];
            let t0 = Instant::now();
            let reply = buf.time(parent, read_span, i as u64, || caller.read(q));
            let t1 = Instant::now();
            out.tally.attempted += 1;
            match reply.and_then(|ids| check_read(q, &ids, id_limit)) {
                Ok(()) => out.reads += 1,
                Err(e) => out.tally.fail(e),
            }
            if let Some(due) = due {
                out.lat_us.push(us(t1 - due));
                out.lag_us.push(us(t0.saturating_duration_since(due)));
            }
            if self.w.kind == Kind::Cold && (i + 1).is_multiple_of(MAINTAIN_EVERY) {
                self.maintain(&mut buf, parent, i as u64);
            }
        }
        out
    }

    /// Runs the tiered index's maintenance pass as a span.
    pub fn maintain(
        &self,
        buf: &mut crate::measure::SpanBuf<'_>,
        parent: Option<Open>,
        query: u64,
    ) {
        if let Some(index) = self.sys.tiered() {
            buf.time(parent, "tier.TieredIndex::maintain", query, || index.maintain());
        }
    }

    /// Draws `PROBE_CALLS × PROBE_S` samples from the fixed probe range
    /// through the workload's own entry point and tests them against the
    /// weights of the benchmark's copy of the data (`current`).
    pub fn probe(&self, current: &[(u64, f64, f64)]) -> Tally {
        let (x, y) = self.inputs.probe;
        let cells: Vec<(u64, f64)> =
            current.iter().filter(|e| (x..=y).contains(&e.1)).map(|&(id, _, w)| (id, w)).collect();
        let total: f64 = cells.iter().map(|c| c.1).sum();
        let probs: Vec<f64> = cells.iter().map(|c| c.1 / total).collect();
        let mut observed = vec![0u64; cells.len()];
        let mut tally = Tally::default();
        let mut caller = self.sys.caller();
        let q = Query { x, y, s: PROBE_S };
        for _ in 0..PROBE_CALLS {
            tally.attempted += 1;
            let ids = match caller
                .read(&q)
                .and_then(|ids| check_read(&q, &ids, self.w.id_limit()).map(|()| ids))
            {
                Ok(ids) => ids,
                Err(e) => {
                    tally.fail(e);
                    continue;
                }
            };
            for id in ids {
                match cells.binary_search_by_key(&id, |c| c.0) {
                    Ok(at) => observed[at] += 1,
                    Err(_) => {
                        tally.fail(format!("probe drew id {id}, which holds no weight"));
                        break;
                    }
                }
            }
        }
        tally.attempted += 1;
        if observed.iter().sum::<u64>() == 0 {
            tally.fail("probe drew nothing".into());
            return tally;
        }
        let gof = chi_square_gof(&observed, &probs);
        if !gof.consistent_at(PROBE_ALPHA) {
            tally.fail(format!("chi-square probe rejects the weighted law: p = {:e}", gof.p_value));
        }
        tally
    }
}
