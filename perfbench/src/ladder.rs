//! The per-layer ladder of the traced run: single-threaded passes of
//! the workload's own query stream through each layer's public entry
//! point in turn, each call timed as a span, plus the counters the
//! layers already export. Differences between adjacent rungs price the
//! layer in between.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use iqs_alias::split::split_samples_with;
use iqs_alias::AliasTable;
use iqs_core::{ChunkedRange, RangeSampler};
use iqs_net::{frame, msg};
use iqs_obs::{recorder, Ctx, Phase, Record};
use iqs_serve::{IndexRegistry, Request, Response, Server, ServerConfig, UpdateOp};
use iqs_shard::{ShardConfig, ShardedService, SHARD_INDEX};
use iqs_slo::TelemetryShipper;
use iqs_testkit::ClockHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{Inputs, Query};
use crate::measure::{median, us, Open, SpanBuf, Tracer};
use crate::workloads::{remote_cluster, tiered_index, Net, NODE_INDEX};

/// Queries per rung: a prefix of the workload's read stream.
const QUERIES: usize = 2000;
/// Untimed calls before each timed pass.
const WARMUP: usize = 200;
/// Queries between two `maintain()` calls on the tier rung.
const TIER_MAINTAIN_EVERY: usize = 500;
/// Queries per shipped telemetry batch on the slo rung.
const SHIP_EVERY: usize = 50;

/// Per-layer metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Rung timings the attribution summary needs besides the metrics.
pub struct Rungs {
    /// Median in-process S=4 (default topology) query, µs.
    pub s4_us: f64,
    /// Median loopback-TCP two-shard query, µs.
    pub tcp_us: f64,
    /// Median in-process two-shard query, µs.
    pub local2_us: f64,
    /// Legs per query of the two-shard topologies.
    pub legs2: f64,
    /// Which stream `shard.per_leg_us` was measured on.
    pub per_leg_basis: &'static str,
}

/// Times one call per query of `qs` as spans named `name` under
/// `parent`; returns the per-call durations in µs.
fn pass(
    buf: &mut SpanBuf<'_>,
    parent: Option<Open>,
    name: &'static str,
    qs: &[Query],
    mut call: impl FnMut(usize, &Query),
) -> Vec<f64> {
    for (i, q) in qs.iter().enumerate().take(WARMUP) {
        call(i, q);
    }
    qs.iter()
        .enumerate()
        .map(|(i, q)| {
            let t0 = Instant::now();
            buf.time(parent, name, i as u64, || call(i, q));
            us(t0.elapsed())
        })
        .collect()
}

fn node(elements: &[(u64, f64, f64)], dynamic: bool, seed: u64) -> Server {
    let mut registry = IndexRegistry::new();
    if dynamic {
        registry.register_range_dynamic(NODE_INDEX, elements.to_vec()).expect("valid index");
    } else {
        registry.register_range_keyed(NODE_INDEX, elements.to_vec()).expect("valid index");
    }
    Server::start(registry, ServerConfig { workers: 1, seed, ..ServerConfig::default() })
}

fn sample_request(index: &str, q: &Query) -> Request {
    Request::SampleWr { index: index.to_string(), range: Some((q.x, q.y)), s: q.s }
}

fn expect_samples(reply: Result<Response, iqs_serve::ServeError>, s: u32) {
    match reply {
        Ok(Response::Samples(ids)) if ids.len() == s as usize => {}
        other => panic!("ladder call failed: {other:?}"),
    }
}

/// Median per-query time of a cluster over `qs`, plus router deltas
/// `(legs, live probes, failovers)` per query.
fn cluster_pass(
    buf: &mut SpanBuf<'_>,
    parent: Option<Open>,
    name: &'static str,
    svc: &ShardedService,
    qs: &[Query],
    full_range: bool,
) -> (f64, f64, f64, u64) {
    let mut client = svc.client();
    let before = svc.metrics().router;
    let mut times = pass(buf, parent, name, qs, |_, q| {
        let range = (!full_range).then_some((q.x, q.y));
        let drawn = client.sample_wr(range, q.s).expect("ladder cluster query");
        assert!(
            !drawn.degraded && drawn.ids.len() == q.s as usize,
            "ladder cluster reply is short"
        );
    });
    let after = svc.metrics().router;
    let queries = (after.queries - before.queries) as f64;
    (
        median(&mut times),
        (after.legs - before.legs) as f64 / queries,
        (after.probes_live - before.probes_live) as f64 / queries,
        after.failovers - before.failovers,
    )
}

/// Runs every rung on the first [`QUERIES`] reads of the stream.
pub fn run(
    inputs: &Inputs,
    tracer: &Tracer,
    root: Option<Open>,
    seed: u64,
    m: &mut Metrics,
) -> Rungs {
    let qs = &inputs.reads[..QUERIES.min(inputs.reads.len())];
    let elements = &inputs.elements;
    let n = elements.len();
    let mut buf = tracer.buf();
    let mut rng = StdRng::seed_from_u64(seed);

    // core: build and raw batch kernel.
    let rung = tracer.open("bench.ladder.core");
    let pairs: Vec<(f64, f64)> = elements.iter().map(|&(_, k, w)| (k, w)).collect();
    let mut builds: Vec<f64> = (0..3)
        .map(|_| {
            let input = pairs.clone();
            let t0 = Instant::now();
            let built =
                buf.time(Some(rung), "core.ChunkedRange::new", 0, || ChunkedRange::new(input));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(built);
            ms
        })
        .collect();
    m.insert("core.build_ms", (median(&mut builds), "ms"));
    let sampler = ChunkedRange::new(pairs).expect("valid pairs");
    let mut out = vec![0u32; qs.iter().map(|q| q.s as usize).max().unwrap_or(1)];
    let mut replies: Vec<Vec<u64>> = vec![Vec::new(); qs.len()];
    let mut kernel =
        pass(&mut buf, Some(rung), "core.ChunkedRange::sample_wr_batch", qs, |i, q| {
            let dst = &mut out[..q.s as usize];
            sampler.sample_wr_batch(q.x, q.y, &mut rng, dst).expect("non-empty range");
            // Static ranks equal ids here: ids are assigned in key order.
            replies[i] = dst.iter().map(|&r| u64::from(r)).collect();
        });
    let kernel_us = median(&mut kernel);
    m.insert("core.kernel_us", (kernel_us, "us"));
    tracer.close(rung, root);

    // alias: the router's split over the default four shards' weights.
    let rung = tracer.open("bench.ladder.alias");
    let cuts: Vec<(f64, f64)> =
        (0..4).map(|k| (elements[k * n / 4].1, elements[(k + 1) * n / 4 - 1].1)).collect();
    let weights: Vec<Vec<f64>> = qs
        .iter()
        .map(|q| {
            cuts.iter()
                .filter(|&&(lo, hi)| q.x <= hi && q.y >= lo)
                .map(|&(lo, hi)| sampler.range_weight(q.x.max(lo), q.y.min(hi)))
                .filter(|&w| w > 0.0)
                .collect()
        })
        .collect();
    let mut split = pass(&mut buf, Some(rung), "alias::split_samples_with", qs, |i, q| {
        let table = AliasTable::new(&weights[i]).expect("positive shard weights");
        std::hint::black_box(split_samples_with(&table, q.s as usize, &mut rng));
    });
    m.insert("alias.split_us", (median(&mut split), "us"));
    tracer.close(rung, root);

    // serve: a standalone one-worker node over the same elements.
    let rung = tracer.open("bench.ladder.serve");
    let server = node(elements, false, seed);
    let client = server.client();
    let before = server.metrics();
    let mut call = pass(&mut buf, Some(rung), "serve.Client::call", qs, |_, q| {
        expect_samples(client.call(sample_request(NODE_INDEX, q)), q.s);
    });
    let d = server.metrics().minus(&before).expect("monotone metrics");
    let samples: f64 = qs.iter().take(WARMUP).chain(qs).map(|q| f64::from(q.s)).sum();
    let call_us = median(&mut call);
    m.insert("serve.call_us", (call_us, "us"));
    m.insert("serve.hop_us", (call_us - kernel_us, "us"));
    m.insert("alias.rng_words_per_sample", (d.rng_words as f64 / samples, "words"));
    m.insert("alias.stall_ratio", (d.window_stalls as f64 / d.prefetches.max(1) as f64, "ratio"));
    drop(client);
    drop(server);
    let dynamic = node(elements, true, seed);
    let client = dynamic.client();
    let mut updates: Vec<f64> = (0..5u64)
        .map(|round| {
            let ops: Vec<UpdateOp> = (0..64u64)
                .map(|i| {
                    let (id, key, w) = elements[(round * 64 + i) as usize % n];
                    UpdateOp::Upsert { id, key, weight: w + 1.0 }
                })
                .collect();
            let t0 = Instant::now();
            let reply = buf.time(Some(rung), "serve.Client::call(Update)", round, || {
                client.call(Request::Update { index: NODE_INDEX.into(), ops })
            });
            assert!(
                matches!(reply, Ok(Response::Updated { applied: 64, .. })),
                "ladder update failed: {reply:?}"
            );
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.insert("serve.update_ms", (median(&mut updates), "ms"));
    drop(client);
    drop(dynamic);
    tracer.close(rung, root);

    // shard: S=1 then the default S=4, R=2 topology, in process.
    let rung = tracer.open("bench.ladder.shard");
    let cluster = |shards: usize, replicas: usize| {
        ShardedService::new(
            elements.clone(),
            ShardConfig { shards, replicas, seed, ..ShardConfig::default() },
        )
        .expect("valid cluster")
    };
    let s1 = cluster(1, 1);
    let s4 = cluster(4, 2);
    let (s1_us, _, _, _) =
        cluster_pass(&mut buf, Some(rung), "shard.ClusterClient::sample_wr[S=1]", &s1, qs, false);
    let (s4_us, legs4, _, failovers) =
        cluster_pass(&mut buf, Some(rung), "shard.ClusterClient::sample_wr[S=4]", &s4, qs, false);
    m.insert("shard.s1_overhead_us", (s1_us - call_us, "us"));
    m.insert("shard.legs_per_query", (legs4, "legs"));
    m.insert("shard.failovers", (failovers as f64, "count"));
    // Streams whose queries mostly stay inside one shard give no leg
    // difference to divide by; those price the extra legs on
    // whole-range queries (4 legs against 1) instead.
    let per_leg_basis = if legs4 >= 1.25 {
        m.insert("shard.per_leg_us", ((s4_us - s1_us) / (legs4 - 1.0), "us"));
        "stream"
    } else {
        let (f1, _, _, _) = cluster_pass(
            &mut buf,
            Some(rung),
            "shard.ClusterClient::sample_wr[S=1,all]",
            &s1,
            qs,
            true,
        );
        let (f4, fl4, _, _) = cluster_pass(
            &mut buf,
            Some(rung),
            "shard.ClusterClient::sample_wr[S=4,all]",
            &s4,
            qs,
            true,
        );
        m.insert("shard.per_leg_us", ((f4 - f1) / (fl4 - 1.0), "us"));
        "whole-range"
    };
    drop(s1);
    tracer.close(rung, root);

    // obs: the same S=4 cluster with the flight recorder off and on,
    // interleaved so drift hits both arms alike.
    let rung = tracer.open("bench.ladder.obs");
    let (mut off, mut on, mut records, mut traced) = (Vec::new(), Vec::new(), 0usize, 0usize);
    let chunk = &qs[..qs.len().min(500)];
    for _ in 0..4 {
        recorder::disable();
        let (t, _, _, _) = cluster_pass(
            &mut buf,
            Some(rung),
            "shard.ClusterClient::sample_wr[recorder off]",
            &s4,
            chunk,
            false,
        );
        off.push(t);
        recorder::install(&ClockHandle::real(), 1 << 16);
        let (t, _, _, _) = cluster_pass(
            &mut buf,
            Some(rung),
            "shard.ClusterClient::sample_wr[recorder on]",
            &s4,
            chunk,
            false,
        );
        recorder::disable();
        on.push(t);
        records += recorder::drain().len();
        traced += chunk.len() + WARMUP.min(chunk.len());
    }
    m.insert("obs.recorder_us_per_query", (median(&mut on) - median(&mut off), "us"));
    m.insert("obs.records_per_query", (records as f64 / traced as f64, "records"));
    drop(s4);
    tracer.close(rung, root);

    // net: the frame codecs on this stream's requests and replies.
    let rung = tracer.open("bench.ladder.net");
    let mut bytes = 0usize;
    let (mut enc, mut dec) = (Vec::with_capacity(qs.len()), Vec::with_capacity(qs.len()));
    for (i, q) in qs.iter().enumerate() {
        let request = sample_request(SHARD_INDEX, q);
        let reply = Ok(Response::Samples(replies[i].clone()));
        let t0 = Instant::now();
        let req_frame = buf.time(Some(rung), "net::msg::encode_request", i as u64, || {
            msg::encode_request(&request, 1, 1, 0)
        });
        let rep_frame = buf.time(Some(rung), "net::msg::encode_reply", i as u64, || {
            msg::encode_reply(&reply, 1, 1)
        });
        let t1 = Instant::now();
        let decoded =
            buf.time(Some(rung), "net::frame::decode_frame+msg::decode_reply", i as u64, || {
                let (_, payload) =
                    frame::decode_frame(&req_frame, frame::DEFAULT_MAX_PAYLOAD).expect("own frame");
                let back: Request = msg::from_json(payload).expect("own request");
                let (header, payload) =
                    frame::decode_frame(&rep_frame, frame::DEFAULT_MAX_PAYLOAD).expect("own frame");
                (back, msg::decode_reply(header.kind, payload).expect("own reply"))
            });
        let t2 = Instant::now();
        assert!(decoded.0 == request && decoded.1 == reply, "codec round trip changed a message");
        enc.push(us(t1 - t0));
        dec.push(us(t2 - t1));
        bytes += req_frame.len() + rep_frame.len();
    }
    m.insert("net.encode_us", (median(&mut enc), "us"));
    m.insert("net.decode_us", (median(&mut dec), "us"));
    m.insert("net.bytes_per_query", (bytes as f64 / qs.len() as f64, "bytes"));

    // Two shards in process, over SimNet, and over loopback TCP.
    let local2 = cluster(2, 1);
    let (local2_us, legs2, _, _) = cluster_pass(
        &mut buf,
        Some(rung),
        "shard.ClusterClient::sample_wr[S=2]",
        &local2,
        qs,
        false,
    );
    drop(local2);
    let sim = remote_cluster(elements, 2, Net::Sim, seed);
    let (sim_us, _, probes2, _) =
        cluster_pass(&mut buf, Some(rung), "net::SimNet[S=2]", &sim.svc, qs, false);
    drop(sim);
    let tcp = remote_cluster(elements, 2, Net::Tcp, seed);
    let (tcp_us, _, _, _) =
        cluster_pass(&mut buf, Some(rung), "net::TcpTransport[S=2]", &tcp.svc, qs, false);
    // Every scatter leg and every partial-overlap weight probe is one
    // wire round trip.
    let trips = legs2 + probes2;
    m.insert("net.simnet_leg_us", ((sim_us - local2_us) / trips, "us"));
    m.insert("net.socket_us", ((tcp_us - sim_us) / trips, "us"));
    tracer.close(rung, root);

    // slo: fold, diff and encode the replica records of the TCP pass.
    let rung = tracer.open("bench.ladder.slo");
    let mut shippers: Vec<TelemetryShipper> = (0..tcp.servers.len())
        .map(|k| {
            TelemetryShipper::new(&format!("s{k}"), k as u32, 0, 1 << 14).expect("valid shipper")
        })
        .collect();
    let mut ship = Vec::new();
    recorder::install(&ClockHandle::real(), 1 << 16);
    let mut client = tcp.svc.client();
    for (b, batch) in qs.chunks(SHIP_EVERY).enumerate() {
        for q in batch {
            client.sample_wr(Some((q.x, q.y)), q.s).expect("ladder TCP query");
        }
        let drained = recorder::drain();
        for (k, shipper) in shippers.iter_mut().enumerate() {
            let mine: Vec<Record> = drained
                .iter()
                .filter(|r| ships(r) && r.shard() == Some(k as u32))
                .copied()
                .collect();
            let now = tcp.servers[k].metrics();
            let t0 = Instant::now();
            buf.time(
                Some(rung),
                "slo::TelemetryShipper::absorb+next_batch+encode",
                b as u64,
                || {
                    shipper.absorb(&mine);
                    let batch = shipper.next_batch(&now).expect("monotone metrics");
                    let frame = iqs_net::msg::encode_telemetry(&batch);
                    shipper.commit();
                    std::hint::black_box(frame.len())
                },
            );
            ship.push(us(t0.elapsed()));
        }
    }
    recorder::disable();
    drop(client);
    m.insert("slo.ship_us_per_batch", (median(&mut ship), "us"));
    drop(tcp);
    tracer.close(rung, root);

    // tier + em: the tiered index called directly, single-threaded so
    // the I/O counts are exact.
    let rung = tracer.open("bench.ladder.tier");
    let index = Arc::new(tiered_index(inputs));
    for q in &qs[..qs.len() / 4] {
        index
            .sample_wr(Some((q.x, q.y)), q.s as usize, &mut rng, Ctx::none())
            .expect("warm-up draw");
    }
    let mut maintain = Vec::new();
    let mut timed_maintain = |buf: &mut SpanBuf<'_>, i: usize| {
        let t0 = Instant::now();
        buf.time(Some(rung), "tier.TieredIndex::maintain", i as u64, || index.maintain());
        maintain.push(t0.elapsed().as_secs_f64() * 1e3);
    };
    timed_maintain(&mut buf, 0);
    let (io0, c0) = (index.io_stats(), index.counters());
    let mut sample = Vec::with_capacity(qs.len());
    for (i, q) in qs.iter().enumerate() {
        let t0 = Instant::now();
        let (ids, _) = buf
            .time(Some(rung), "tier.TieredIndex::sample_wr", i as u64, || {
                index.sample_wr(Some((q.x, q.y)), q.s as usize, &mut rng, Ctx::none())
            })
            .expect("tier draw");
        sample.push(us(t0.elapsed()));
        assert_eq!(ids.len(), q.s as usize, "tier reply is short");
        if (i + 1).is_multiple_of(TIER_MAINTAIN_EVERY) {
            timed_maintain(&mut buf, i + 1);
        }
    }
    let io = index.io_stats().minus(&io0).expect("monotone I/O counters");
    let c = index.counters();
    let (hot, cold) = (c.hot_draws - c0.hot_draws, c.cold_draws - c0.cold_draws);
    m.insert("tier.sample_us", (median(&mut sample), "us"));
    m.insert("tier.hot_share", (hot as f64 / (hot + cold).max(1) as f64, "fraction"));
    m.insert("tier.maintain_ms", (maintain.iter().sum::<f64>() / maintain.len() as f64, "ms"));
    m.insert("em.hit_rate", (io.hit_rate(), "fraction"));
    m.insert("em.reads_per_query", (io.reads as f64 / qs.len() as f64, "blocks"));
    tracer.close(rung, root);

    Rungs { s4_us, tcp_us, local2_us, legs2, per_leg_basis }
}

/// Replica-side phases that reach the router only through telemetry.
fn ships(r: &Record) -> bool {
    r.replica().is_some()
        && matches!(
            r.phase,
            Phase::Enqueue
                | Phase::Pickup
                | Phase::DeadlineMiss
                | Phase::RngCost
                | Phase::WorkDone
                | Phase::ColdDraw
        )
}
