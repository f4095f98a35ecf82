//! The four workloads: what each builds, how a client thread calls it,
//! and how every reply is checked.

use std::sync::Arc;

use iqs_em::EvictionPolicy;
use iqs_net::{ReplicaServer, SimNet, TcpConfig, TcpServer, TcpTransport, Transport};
use iqs_serve::{
    IndexRegistry, MetricsSnapshot, Request, Response, Server, ServerConfig, UpdateOp,
};
use iqs_shard::{ClusterClient, ReplicaLink, ShardConfig, ShardSpec, ShardedService, SHARD_INDEX};
use iqs_testkit::ClockHandle;
use iqs_tier::{ShardTier, TierConfig, TieredIndex};

use crate::inputs::{key_of, Inputs, Query, OPS_PER_WRITE, WRITE_BATCHES};

/// Shards of the tiered index (the cold workload and the ladder's tier rung).
pub const TIER_SHARDS: usize = 16;
/// The cold workload runs `maintain()` after this many reads.
pub const MAINTAIN_EVERY: usize = 4096;
/// `node_rw_s256` issues one `Update` per this interval (8 per second).
pub const WRITE_PERIOD_MS: u64 = 125;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scatter,
    Remote,
    NodeRw,
    Cold,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Elements at the start of the run.
    pub n: usize,
    /// Samples per read.
    pub s: u32,
    /// Fixed rate of the paced phase, a twentieth to a quarter of the
    /// closed-loop throughput of the parent commit on a 2-vCPU host (see
    /// `perfbench/README.md`). A constant, so a faster program shows up
    /// as lower latency, not a higher rate.
    pub paced_qps: f64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scatter_s16",
        kind: Kind::Scatter,
        n: 1 << 16,
        s: 16,
        paced_qps: 9000.0,
        setups: 31,
    },
    Workload {
        name: "remote_tcp_s64",
        kind: Kind::Remote,
        n: 1 << 16,
        s: 64,
        paced_qps: 2000.0,
        setups: 31,
    },
    Workload {
        name: "node_rw_s256",
        kind: Kind::NodeRw,
        n: 1 << 18,
        s: 256,
        paced_qps: 12000.0,
        setups: 9,
    },
    Workload {
        name: "cold_archive_s64",
        kind: Kind::Cold,
        n: 1 << 20,
        s: 64,
        paced_qps: 1000.0,
        setups: 15,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Mixed into the seed so workloads never share an input stream.
    pub fn salt(&self) -> u64 {
        self.name.bytes().fold(0u64, |h, b| h.rotate_left(8) ^ u64::from(b))
    }

    /// Largest id any write can create (reads are checked against it).
    pub fn id_limit(&self) -> u64 {
        match self.kind {
            Kind::NodeRw => (self.n + WRITE_BATCHES * OPS_PER_WRITE) as u64,
            _ => self.n as u64,
        }
    }
}

/// Node index names.
pub const NODE_INDEX: &str = "keys";

/// How the remote-shard topology reaches its replicas.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Net {
    Sim,
    Tcp,
}

/// A sharded service over replica servers reached through a transport.
/// Fields drop in order: router first, then listeners, then servers.
pub struct RemoteCluster {
    pub svc: ShardedService,
    /// Held so the loopback listeners live as long as the router.
    pub _listeners: Vec<TcpServer>,
    pub servers: Vec<Server>,
}

/// `shards` equal-count replica servers (one worker each) behind
/// `ReplicaServer`s, routed by `ShardedService::from_links`.
pub fn remote_cluster(
    elements: &[(u64, f64, f64)],
    shards: usize,
    net: Net,
    seed: u64,
) -> RemoteCluster {
    let clock = ClockHandle::real();
    let sim = SimNet::new(clock.clone());
    let transport: Arc<dyn Transport> = match net {
        Net::Sim => sim.transport(),
        Net::Tcp => Arc::new(TcpTransport::new(TcpConfig::default())),
    };
    let n = elements.len();
    let mut specs = Vec::new();
    let mut listeners = Vec::new();
    let mut servers = Vec::new();
    for k in 0..shards {
        let slice = elements[k * n / shards..(k + 1) * n / shards].to_vec();
        let (lo_key, hi_key) = (slice[0].1, slice[slice.len() - 1].1);
        let mut registry = IndexRegistry::new();
        registry.register_range_keyed(SHARD_INDEX, slice).expect("valid shard slice");
        let server = Server::start(
            registry,
            ServerConfig { workers: 1, seed: seed ^ (k as u64 + 1), ..ServerConfig::default() },
        );
        let total_weight = server.registry().total_weight(SHARD_INDEX).expect("range index");
        let handler = Arc::new(ReplicaServer::new(server.client(), clock.clone()));
        let addr = match net {
            Net::Sim => {
                let addr = format!("sim://s{k}");
                sim.bind(&addr, handler);
                addr
            }
            Net::Tcp => {
                let listener =
                    TcpServer::spawn("127.0.0.1:0", handler, iqs_net::frame::DEFAULT_MAX_PAYLOAD)
                        .expect("bind a loopback listener");
                let addr = listener.addr();
                listeners.push(listener);
                addr
            }
        };
        let link: Arc<dyn ReplicaLink> =
            Arc::new(iqs_net::RemoteReplica::new(Arc::clone(&transport), addr));
        specs.push(ShardSpec { lo_key, hi_key, total_weight, links: vec![link] });
        servers.push(server);
    }
    let svc = ShardedService::from_links(specs, ShardConfig { seed, ..ShardConfig::default() })
        .expect("valid remote topology");
    RemoteCluster { svc, _listeners: listeners, servers }
}

/// The tiered index of the cold workload: `TIER_SHARDS` key-span shards,
/// all starting cold; two shards fit the hot budget; the block cache is
/// 64 blocks of 256 words, far below the working set.
pub fn tiered_index(inputs: &Inputs) -> TieredIndex {
    let per = inputs.elements.len() / TIER_SHARDS;
    let mut builder = TieredIndex::builder(TierConfig {
        block_words: 256,
        cold_cache_blocks: 64,
        policy: EvictionPolicy::SegmentedLru,
        hot_element_budget: 2 * per,
        // Between two maintenance passes a busy shard draws about 10^5
        // samples and a uniformly hit one about 3·10^3 (with halving,
        // under 7·10^3 in steady state): only the busy two qualify, so
        // maintenance does not churn the tiers, and the warm-up alone
        // qualifies them.
        promote_accesses: 1 << 14,
    });
    for (k, &(lo, hi)) in inputs.tier_shards.iter().enumerate() {
        builder =
            builder.add_shard(&format!("s{k}"), inputs.elements[lo..hi].to_vec(), ShardTier::Cold);
    }
    builder.build().expect("valid tiered index")
}

/// A built workload, ready to serve.
pub enum System {
    Cluster(ShardedService),
    Remote(RemoteCluster),
    Node(Server),
    Cold(Server, Arc<TieredIndex>),
}

impl System {
    /// Builds the workload's index or cluster from the generated elements.
    pub fn build(w: &Workload, inputs: &Inputs, seed: u64) -> System {
        match w.kind {
            Kind::Scatter => System::Cluster(
                ShardedService::new(
                    inputs.elements.clone(),
                    ShardConfig { seed, ..ShardConfig::default() },
                )
                .expect("valid cluster"),
            ),
            Kind::Remote => System::Remote(remote_cluster(&inputs.elements, 2, Net::Tcp, seed)),
            Kind::NodeRw => {
                let mut registry = IndexRegistry::new();
                registry
                    .register_range_dynamic(NODE_INDEX, inputs.elements.clone())
                    .expect("valid index");
                System::Node(Server::start(
                    registry,
                    ServerConfig { workers: 2, seed, ..ServerConfig::default() },
                ))
            }
            Kind::Cold => {
                let index = Arc::new(tiered_index(inputs));
                let mut registry = IndexRegistry::new();
                registry
                    .register_external(NODE_INDEX, Arc::clone(&index) as _)
                    .expect("fresh registry");
                let server = Server::start(
                    registry,
                    ServerConfig { workers: 2, seed, ..ServerConfig::default() },
                );
                System::Cold(server, index)
            }
        }
    }

    pub fn caller(&self) -> Caller {
        match self {
            System::Cluster(svc) => Caller::Cluster(svc.client()),
            System::Remote(rc) => Caller::Cluster(rc.svc.client()),
            System::Node(server) | System::Cold(server, _) => Caller::Node(server.client()),
        }
    }

    /// Serve-layer counters of every server in the workload, pooled.
    pub fn serve_metrics(&self) -> MetricsSnapshot {
        match self {
            System::Cluster(svc) => svc.metrics().cluster,
            System::Remote(rc) => {
                rc.servers.iter().fold(MetricsSnapshot::default(), |acc, s| acc.plus(&s.metrics()))
            }
            System::Node(server) | System::Cold(server, _) => server.metrics(),
        }
    }

    /// Router failovers so far (0 where there is no router).
    pub fn failovers(&self) -> u64 {
        match self {
            System::Cluster(svc) => svc.metrics().router.failovers,
            System::Remote(rc) => rc.svc.metrics().router.failovers,
            _ => 0,
        }
    }

    pub fn tiered(&self) -> Option<&TieredIndex> {
        match self {
            System::Cold(_, index) => Some(index),
            _ => None,
        }
    }
}

/// One client thread's handle.
pub enum Caller {
    Cluster(ClusterClient),
    Node(iqs_serve::Client),
}

impl Caller {
    /// One read; a degraded or short reply is an error.
    pub fn read(&mut self, q: &Query) -> Result<Vec<u64>, String> {
        match self {
            Caller::Cluster(c) => {
                let sampled = c.sample_wr(Some((q.x, q.y)), q.s).map_err(|e| e.to_string())?;
                if sampled.degraded || sampled.missing != 0 {
                    return Err(format!("degraded reply: {} draws missing", sampled.missing));
                }
                Ok(sampled.ids)
            }
            Caller::Node(c) => {
                match c.call(Request::SampleWr {
                    index: NODE_INDEX.into(),
                    range: Some((q.x, q.y)),
                    s: q.s,
                }) {
                    Ok(Response::Samples(ids)) => Ok(ids),
                    Ok(other) => Err(format!("unexpected reply {other:?}")),
                    Err(e) => Err(e.to_string()),
                }
            }
        }
    }

    /// One `Update`; returns `(applied, version)`.
    pub fn write(&mut self, ops: Vec<UpdateOp>) -> Result<(usize, u64), String> {
        let Caller::Node(c) = self else { return Err("writes need a node".into()) };
        match c.call(Request::Update { index: NODE_INDEX.into(), ops }) {
            Ok(Response::Updated { applied, version }) => Ok((applied, version)),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Checks one read reply: exactly `s` ids, each inside the queried key
/// range and below the workload's id limit.
pub fn check_read(q: &Query, ids: &[u64], id_limit: u64) -> Result<(), String> {
    if ids.len() != q.s as usize {
        return Err(format!("{} ids for s = {}", ids.len(), q.s));
    }
    match ids.iter().find(|&&id| id >= id_limit || !(q.x..=q.y).contains(&key_of(id))) {
        Some(id) => Err(format!("id {id} outside [{}, {}]", q.x, q.y)),
        None => Ok(()),
    }
}
