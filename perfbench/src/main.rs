//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload (see `BENCHMARK.json` for why each exists) from
//! seeded inputs, warms it up, and measures alternating windows of a
//! closed-loop phase (two clients back to back: throughput and CPU per
//! query) and a paced open-loop phase (two generators on one fixed
//! schedule: latency from each request's due time). Every reply is
//! checked, server-side faults are counted, and a chi-square
//! probe ends the run. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` records spans around every call, runs the per-layer
//! ladder, writes the spans and a self-time summary under
//! `.bench_out/`, and reports the per-layer metrics. The last line of
//! standard output is the JSON result; the exit code is non-zero when
//! any output check failed.

mod inputs;
mod ladder;
mod measure;
mod run;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use measure::{json_num, json_str, median, quantile, Tracer};
use run::{PhaseOut, Run, Tally, Writes};
use workloads::{Kind, System, Workload};

/// Untimed closed-loop warm-up before the measured phases.
const WARMUP: Duration = Duration::from_millis(2000);
/// One window of either phase; `--seconds` is spent in pairs of a
/// closed-loop and a paced window (closed-loop windows alternate
/// untraced and traced in the traced run).
const WINDOW: Duration = Duration::from_millis(625);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 || seconds > 60 {
        return Err("--seconds must be within 1..=60".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <1-60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let start = measure::Start::now();
    let w = args.workload;
    let inputs = inputs::generate(w, args.seed);
    println!(
        "workload {} seed {} n {} s {} paced_qps {} stream_digest {:016x}",
        w.name, args.seed, w.n, w.s, w.paced_qps, inputs.digest
    );
    let tracer = Tracer::new(args.trace);

    // Set-up: several builds, each timed until the system can serve;
    // the last one is kept.
    let setup_span = tracer.open("bench.setup");
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if args.trace { 1 } else { w.setups } {
        drop(built.take());
        let t0 = Instant::now();
        let sys = System::build(w, &inputs, args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(sys);
    }
    tracer.close(setup_span, None);
    let sys = built.expect("at least one set-up");
    let run = Run::new(w, &inputs, &sys, &tracer);

    // Faults the layers count but a reply may hide (a router fails a
    // rejected or late leg over to another replica), from here to the end.
    let faults0 = (sys.serve_metrics(), sys.failovers());
    let mut tally = Tally::default();
    let warm = tracer.open("bench.warmup");
    tally.absorb(run.phase(WARMUP, false, false, None).tally);
    if w.kind == Kind::Cold {
        run.maintain(&mut tracer.buf_when(false), None, 0);
    }
    tracer.close(warm, None);

    let serve0 = sys.serve_metrics();
    let failovers0 = sys.failovers();
    let windows = ((args.seconds as f64 / (2.0 * WINDOW.as_secs_f64())) as u32).max(2);

    // Closed-loop and paced windows alternate through the run, so both
    // phases sample the whole run: a shared host's speed drifts over
    // seconds, and a phase held in one half of the run took that half's
    // drift. Each closed-loop metric is the median over its windows, so
    // a burst of host noise moves one window, not the run. The traced
    // run alternates untraced and traced closed-loop windows so the span
    // recorder's own cost shows as `bench.trace_overhead_pct`; its
    // closed-loop figures come from the untraced windows.
    //
    // Writes (node_rw_s256 only) run on their own thread through the
    // paced windows: a rebuild takes one of the two workers for tens of
    // milliseconds, and how reads fare meanwhile is what the phase shows.
    // In the closed loop the same rebuilds swung read throughput by a
    // factor of two between runs, so writes stay out of it.
    let (mut plain_qps, mut traced_qps, mut cpu_per_read) = (Vec::new(), Vec::new(), Vec::new());
    let mut paced = PhaseOut::default();
    let mut writes = Writes::default();
    for k in 0..windows {
        let traced = args.trace && k % 2 == 1;
        let span = tracer.open("bench.closed_loop");
        let out = run.phase(WINDOW, false, traced, Some(span));
        tracer.close(span, None);
        let qps = out.reads as f64 / out.wall_s;
        if traced {
            traced_qps.push(qps);
        } else {
            plain_qps.push(qps);
            cpu_per_read.push(out.cpu_s / out.reads as f64 * 1e6);
        }
        tally.absorb(out.tally);

        let span = tracer.open("bench.paced");
        let end = Instant::now() + WINDOW;
        let out = std::thread::scope(|scope| {
            if !inputs.writes.is_empty() {
                scope.spawn(|| run.writer(end, &mut writes));
            }
            run.phase(WINDOW, true, args.trace, Some(span))
        });
        tracer.close(span, None);
        paced.absorb(out);
    }
    tally.absorb(std::mem::take(&mut paced.tally));
    let serve = sys.serve_metrics().minus(&serve0).expect("serve counters are monotone");
    let failovers = sys.failovers() - failovers0;

    let span = tracer.open("bench.check");
    let mut write_lat = writes.lat_us;
    tally.absorb(writes.tally);
    let current = inputs::apply_writes(&inputs.elements, &inputs.writes[..writes.issued]);
    tally.absorb(run.probe(&current));
    tally.absorb(hidden_faults(&sys, faults0));
    tracer.close(span, None);

    let throughput = median(&mut plain_qps.clone());
    let cpu_us = median(&mut cpu_per_read);
    let samples = paced.lat_us.len();
    let p50 = quantile(&mut paced.lat_us, 0.50);
    let p99 = quantile(&mut paced.lat_us, 0.99);
    let error_rate = tally.failed as f64 / tally.attempted as f64;

    let mut report = String::new();
    line(&mut report, "throughput_qps", throughput, "queries/s");
    line(&mut report, "cpu_us_per_query", cpu_us, "us");
    line(&mut report, "latency_p50_us", p50, "us");
    line(&mut report, "latency_p99_us", p99, "us");
    line(&mut report, "latency_samples", samples as f64, "count");
    if !inputs.writes.is_empty() {
        let writes = write_lat.len();
        line(&mut report, "write_p50_us", quantile(&mut write_lat, 0.50), "us");
        line(&mut report, "write_p90_us", quantile(&mut write_lat, 0.90), "us");
        line(&mut report, "write_samples", writes as f64, "count");
    }
    line(&mut report, "error_rate", error_rate, "fraction");
    line(&mut report, "setup_s", median(&mut setups.clone()), "s");
    let builds: Vec<String> = setups.iter().map(|t| format!("{t:.4}")).collect();
    let _ = writeln!(report, "{:<28} {} s", "setup_builds", builds.join(" "));

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        drop(sys);
        let mut m = ladder::Metrics::new();
        let span = tracer.open("bench.ladder");
        let rungs = ladder::run(&inputs, &tracer, Some(span), args.seed, &mut m);
        tracer.close(span, None);
        let queue_wait = serve.queue_wait.quantile(0.5).map_or(f64::NAN, measure::us);
        m.insert("serve.queue_wait_p50_us", (queue_wait, "us"));
        m.insert("serve.rejected", (serve.rejected_overload as f64, "count"));
        m.insert("serve.deadline_missed", (serve.deadline_missed as f64, "count"));
        if matches!(w.kind, Kind::Scatter | Kind::Remote) {
            m.insert("shard.failovers", (failovers as f64, "count"));
        }
        m.insert("bench.gen_lag_p99_us", (quantile(&mut paced.lag_us, 0.99), "us"));
        // Not an end-to-end metric: other tenants' CPU steal sets it on a
        // shared host (see perfbench/README.md), so it is tracked unbounded.
        m.insert("bench.latency_p99_us", (p99, "us"));
        let (plain, traced) = (median(&mut plain_qps), median(&mut traced_qps));
        m.insert("bench.trace_overhead_pct", ((plain - traced) / plain * 100.0, "%"));
        let summary = summarize(w, &args, &inputs, &tracer, &m, &rungs, &start);
        write_outputs(w, &args, &tracer, &summary);
        for (&name, &(value, unit)) in &m {
            line(&mut report, name, value, unit);
        }
        metrics.extend(m.iter().map(|(&name, &(value, unit))| (name, value, unit)));
    } else {
        metrics = vec![
            ("throughput_qps", throughput, "queries/s"),
            ("cpu_us_per_query", cpu_us, "us"),
            ("latency_p50_us", p50, "us"),
            ("setup_s", median(&mut setups), "s"),
            ("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
        ];
        line(&mut report, "peak_rss_mb", metrics[4].1, "MiB");
        drop(sys);
    }
    print!("{report}");
    for e in &tally.errors {
        println!("failure: {e}");
    }
    println!("host {}", measure::host_facts(&start));

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if tally.failed > 0 {
        std::process::exit(1);
    }
}

/// Overload rejections, deadline misses and router failovers since
/// `since`, each counted as one more attempted and failed operation. A
/// fault the client also saw as an error counts twice; either way the
/// run fails.
fn hidden_faults(sys: &System, since: (iqs_serve::MetricsSnapshot, u64)) -> Tally {
    let serve = sys.serve_metrics().minus(&since.0).expect("serve counters are monotone");
    let failovers = sys.failovers() - since.1;
    let faults = serve.rejected_overload + serve.deadline_missed + failovers;
    let mut tally = Tally::default();
    if faults > 0 {
        tally.attempted = faults;
        tally.fail(format!(
            "servers rejected {} and missed the deadline of {} requests; the router failed over {failovers} legs",
            serve.rejected_overload, serve.deadline_missed
        ));
        tally.failed = faults;
    }
    tally
}

/// One human-readable metric line.
fn line(report: &mut String, name: &str, value: f64, unit: &str) {
    let _ = writeln!(report, "{name:<28} {value:>14.4} {unit}");
}

/// The traced run's summary: host facts, the stream digest, self time
/// per span name and per layer, and for the scatter and remote
/// workloads the share of the per-query cost the layer metrics explain.
fn summarize(
    w: &Workload,
    args: &Args,
    inputs: &inputs::Inputs,
    tracer: &Tracer,
    m: &ladder::Metrics,
    rungs: &ladder::Rungs,
    start: &measure::Start,
) -> String {
    let get = |name: &str| m.get(name).map_or(f64::NAN, |v| v.0);
    let totals = tracer.totals();
    let mut layers: std::collections::BTreeMap<&str, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut spans = String::new();
    for (i, &(name, count, total_ns, self_ns)) in totals.iter().enumerate() {
        let layer = name.split(['.', ':']).next().unwrap_or(name);
        let entry = layers.entry(layer).or_default();
        entry.0 += count;
        entry.1 += self_ns;
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            spans,
            "{sep}\n    {{\"name\":{},\"layer\":{},\"count\":{count},\"total_us\":{},\"self_us\":{}}}",
            json_str(name),
            json_str(layer),
            total_ns as f64 / 1e3,
            self_ns as f64 / 1e3
        );
    }
    let layer_json: Vec<String> = layers
        .iter()
        .map(|(layer, (count, self_ns))| {
            format!(
                "\n    {{\"layer\":{},\"spans\":{count},\"self_us\":{}}}",
                json_str(layer),
                *self_ns as f64 / 1e3
            )
        })
        .collect();
    let (kernel, split, hop) = (get("core.kernel_us"), get("alias.split_us"), get("serve.hop_us"));
    let attribution = match w.kind {
        Kind::Scatter => {
            let named = kernel + split + get("shard.legs_per_query") * hop;
            format!(
                "{{\"query\":\"in-process S=4 ladder rung\",\"per_query_us\":{},\"named_us\":{},\"share\":{},\"formula\":\"core.kernel_us + alias.split_us + shard.legs_per_query * serve.hop_us\"}}",
                json_num(rungs.s4_us),
                json_num(named),
                json_num(named / rungs.s4_us)
            )
        }
        Kind::Remote => {
            let wire = rungs.tcp_us - rungs.local2_us;
            let named = kernel + split + rungs.legs2 * hop + wire;
            format!(
                "{{\"query\":\"loopback-TCP S=2 ladder rung\",\"per_query_us\":{},\"named_us\":{},\"share\":{},\"formula\":\"core.kernel_us + alias.split_us + legs * serve.hop_us + wire round trips * (net.simnet_leg_us + net.socket_us)\"}}",
                json_num(rungs.tcp_us),
                json_num(named),
                json_num(named / rungs.tcp_us)
            )
        }
        Kind::NodeRw | Kind::Cold => "null".to_string(),
    };
    format!(
        "{{\n  \"workload\":{},\n  \"seed\":{},\n  \"stream_digest\":\"{:016x}\",\n  \"host\":{},\n  \"per_leg_basis\":{},\n  \"attribution\":{attribution},\n  \"layers\":[{}\n  ],\n  \"spans\":[{spans}\n  ]\n}}\n",
        json_str(w.name),
        args.seed,
        inputs.digest,
        measure::host_facts(start),
        json_str(rungs.per_leg_basis),
        layer_json.join(",")
    )
}

/// Writes `.bench_out/<workload>-seed<seed>.{spans.jsonl,summary.json}`.
fn write_outputs(w: &Workload, args: &Args, tracer: &Tracer, summary: &str) {
    let dir = std::path::Path::new(".bench_out");
    let stem = format!("{}-seed{}", w.name, args.seed);
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl"))))
        .and_then(|dropped| {
            std::fs::write(dir.join(format!("{stem}.summary.json")), summary)?;
            Ok(dropped)
        });
    match result {
        Ok(dropped) => println!(
            "trace written to {}/{stem}.spans.jsonl ({dropped} spans past the in-memory cap counted only in totals)",
            dir.display()
        ),
        Err(e) => eprintln!("perfbench: writing the trace failed: {e}"),
    }
}
