//! Seeded inputs: the element set, the read stream and the write stream
//! of a workload are a pure function of `(workload, seed)`. The program
//! under test only ever sees what is generated here.

use iqs_serve::UpdateOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::{Kind, Workload, TIER_SHARDS};

/// Length of the read stream; runs cycle through it.
const READS: usize = 1 << 16;
/// Write batches generated for `node_rw_s256`: 8 per second for the
/// longest run the benchmark allows (60 s), plus headroom.
pub const WRITE_BATCHES: usize = 8 * 64;
/// Distinct query ranges per tiered-index shard (`cold_archive_s64`).
const RANGES_PER_SHARD: usize = 16;
/// Operations per `Update` request.
pub const OPS_PER_WRITE: usize = 64;

/// One read: `s` draws with replacement from the closed key range.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub x: f64,
    pub y: f64,
    pub s: u32,
}

/// Everything the benchmark feeds the program in one run.
pub struct Inputs {
    /// `(id, key, weight)`; the key of every id is `id as f64`, also for
    /// ids a write inserts later, so a reply can be range-checked
    /// against any snapshot version.
    pub elements: Vec<(u64, f64, f64)>,
    pub reads: Vec<Query>,
    pub writes: Vec<Vec<UpdateOp>>,
    /// Shards of the tiered index: element index ranges into `elements`.
    pub tier_shards: Vec<(usize, usize)>,
    /// The fixed key range of the end-of-run chi-square probe: 256 keys
    /// across a shard boundary (or, for writes, across the first
    /// inserted ids).
    pub probe: (f64, f64),
    /// FNV-1a over every generated value, in generation order.
    pub digest: u64,
}

/// The key of an element id (fixed for the life of the id).
pub fn key_of(id: u64) -> f64 {
    id as f64
}

struct Fnv(u64);

impl Fnv {
    fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn weight(rng: &mut StdRng) -> f64 {
    // Weights in [1, 11) with a 1/16 resolution, so sums stay exact.
    1.0 + f64::from(rng.random_range(0u32..160)) / 16.0
}

/// A range of random width in `[lo_width, hi_width]` placed uniformly
/// inside `[base, base + span)`.
fn range_in(
    rng: &mut StdRng,
    base: usize,
    span: usize,
    lo_width: usize,
    hi_width: usize,
) -> (f64, f64) {
    let width = rng.random_range(lo_width..=hi_width).min(span);
    let start = base + rng.random_range(0..=span - width);
    (start as f64, (start + width - 1) as f64)
}

pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ w.salt());
    let n = w.n;
    let elements: Vec<(u64, f64, f64)> =
        (0..n as u64).map(|id| (id, key_of(id), weight(&mut rng))).collect();
    let tier_shards: Vec<(usize, usize)> =
        (0..TIER_SHARDS).map(|k| (k * n / TIER_SHARDS, (k + 1) * n / TIER_SHARDS)).collect();
    // The two shards that draw 80% of the cold-tier traffic.
    let hot_a = rng.random_range(0..tier_shards.len());
    let hot_b = (hot_a + 1 + rng.random_range(0..tier_shards.len() - 1)) % tier_shards.len();
    // Archive queries repeat: each shard has a fixed set of ranges, so
    // the cold tier's lazily built sample pools reach their steady state
    // during the warm-up instead of drifting through the measurement.
    let archive_ranges: Vec<Vec<(f64, f64)>> = tier_shards
        .iter()
        .map(|&(lo, hi)| {
            (0..RANGES_PER_SHARD)
                .map(|_| range_in(&mut rng, lo, hi - lo, (hi - lo) / 64, (hi - lo) / 16))
                .collect()
        })
        .collect();
    let reads: Vec<Query> = (0..READS)
        .map(|_| {
            let (x, y) = match w.kind {
                // Most queries cover 2-4 of the 4 router shards.
                Kind::Scatter => range_in(&mut rng, 0, n, n / 4, n),
                Kind::Remote | Kind::NodeRw => range_in(&mut rng, 0, n, n / 16, n),
                Kind::Cold => {
                    let shard = if rng.random_bool(0.8) {
                        if rng.random_bool(0.5) {
                            hot_a
                        } else {
                            hot_b
                        }
                    } else {
                        rng.random_range(0..tier_shards.len())
                    };
                    archive_ranges[shard][rng.random_range(0..RANGES_PER_SHARD)]
                }
            };
            Query { x, y, s: w.s }
        })
        .collect();
    let writes = if w.kind == Kind::NodeRw { write_stream(&mut rng, n) } else { Vec::new() };

    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    fnv.add(w.salt());
    fnv.add(seed);
    for &(id, key, wt) in &elements {
        fnv.add(id);
        fnv.add(key.to_bits());
        fnv.add(wt.to_bits());
    }
    for q in &reads {
        fnv.add(q.x.to_bits());
        fnv.add(q.y.to_bits());
        fnv.add(u64::from(q.s));
    }
    for batch in &writes {
        for op in batch {
            match *op {
                UpdateOp::Upsert { id, key, weight } => {
                    fnv.add(1);
                    fnv.add(id);
                    fnv.add(key.to_bits());
                    fnv.add(weight.to_bits());
                }
                UpdateOp::Remove { id } => {
                    fnv.add(2);
                    fnv.add(id);
                }
            }
        }
    }
    let boundary = match w.kind {
        Kind::Scatter => n / 4,
        Kind::Remote => n / 2,
        Kind::NodeRw => n,
        Kind::Cold if hot_a == 0 => tier_shards[0].1,
        Kind::Cold => tier_shards[hot_a].0,
    };
    let probe = ((boundary - 128) as f64, (boundary + 127) as f64);
    Inputs { elements, reads, writes, tier_shards, probe, digest: fnv.0 }
}

/// Upserts and removes that keep every operation effective: removes
/// target present ids and inserts take ids never used before, so each
/// batch must report exactly `OPS_PER_WRITE` applied operations.
fn write_stream(rng: &mut StdRng, n: usize) -> Vec<Vec<UpdateOp>> {
    let mut present: Vec<u64> = (0..n as u64).collect();
    let mut fresh = n as u64;
    (0..WRITE_BATCHES)
        .map(|_| {
            let mut batch = Vec::with_capacity(OPS_PER_WRITE);
            let mut touched: Vec<u64> = Vec::with_capacity(OPS_PER_WRITE);
            while batch.len() < OPS_PER_WRITE {
                let roll = rng.random_range(0u32..4);
                if roll == 0 {
                    let id = fresh;
                    fresh += 1;
                    present.push(id);
                    touched.push(id);
                    batch.push(UpdateOp::Upsert { id, key: key_of(id), weight: weight(rng) });
                    continue;
                }
                let at = rng.random_range(0..present.len());
                let id = present[at];
                // One operation per id per batch keeps `applied` exact.
                if touched.contains(&id) {
                    continue;
                }
                touched.push(id);
                if roll == 1 {
                    present.swap_remove(at);
                    batch.push(UpdateOp::Remove { id });
                } else {
                    batch.push(UpdateOp::Upsert { id, key: key_of(id), weight: weight(rng) });
                }
            }
            batch
        })
        .collect()
}

/// The benchmark's own copy of the data after applying `writes` in
/// order: `(id, key, weight)` sorted by id.
pub fn apply_writes(
    elements: &[(u64, f64, f64)],
    writes: &[Vec<UpdateOp>],
) -> Vec<(u64, f64, f64)> {
    let mut map: std::collections::BTreeMap<u64, (f64, f64)> =
        elements.iter().map(|&(id, k, w)| (id, (k, w))).collect();
    for batch in writes {
        for op in batch {
            match *op {
                UpdateOp::Upsert { id, key, weight } => {
                    map.insert(id, (key, weight));
                }
                UpdateOp::Remove { id } => {
                    map.remove(&id);
                }
            }
        }
    }
    map.into_iter().map(|(id, (k, w))| (id, k, w)).collect()
}
