//! Shared workload generators and measurement helpers for the IQS
//! experiment suite (see DESIGN.md §2 for the experiment index).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use iqs_spatial::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod chaos;

/// Options every experiment receives, parsed once from the harness's
/// command line by [`select`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Opts {
    /// `--smoke`: run the same code at CI size (small n, short
    /// intervals). Checks wiring, not the experiment's claim.
    pub smoke: bool,
}

/// One row of the harness's experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The command-line names that select this entry (lowercase).
    pub names: &'static [&'static str],
    /// Prints the experiment's table and appends its CSV rows.
    pub run: fn(Opts),
}

/// Parses the harness arguments against `table`. `--smoke` is the only
/// flag; every other argument must be one of the table's names. No
/// names selects the whole table. Entries run in table order, once each.
///
/// # Errors
/// A message naming the bad argument and listing the valid ones, for
/// an unknown flag or experiment name.
pub fn select<'a>(
    table: &'a [Experiment],
    args: &[String],
) -> Result<(Opts, Vec<&'a Experiment>), String> {
    let mut opts = Opts::default();
    let mut names = Vec::new();
    for arg in args {
        if arg == "--smoke" {
            opts.smoke = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`; the only flag is --smoke"));
        } else if table.iter().any(|e| e.names.contains(&arg.as_str())) {
            names.push(arg.as_str());
        } else {
            let valid: Vec<&str> = table.iter().flat_map(|e| e.names.iter().copied()).collect();
            return Err(format!("unknown experiment `{arg}`; valid names: {}", valid.join(" ")));
        }
    }
    let chosen = table
        .iter()
        .filter(|e| names.is_empty() || e.names.iter().any(|n| names.contains(n)))
        .collect();
    Ok((opts, chosen))
}

/// Weight distributions used across the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weights {
    /// All weights 1 (the WR scheme).
    Unit,
    /// Uniform in `[0.1, 1.1)`.
    Uniform,
    /// Zipf-like: weight of the `i`-th element ∝ `1/(i+1)` after a
    /// random shuffle — heavy skew, the stress case for alias tables.
    Zipf,
}

/// Generates `n` `(key, weight)` pairs with keys `0, 1, …` (plus jitter)
/// and the chosen weight law, deterministically from `seed`.
pub fn keyed_weights(n: usize, weights: Weights, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws: Vec<f64> = match weights {
        Weights::Unit => vec![1.0; n],
        Weights::Uniform => (0..n).map(|_| 0.1 + rng.random::<f64>()).collect(),
        Weights::Zipf => (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect(),
    };
    if weights == Weights::Zipf {
        for i in (1..n).rev() {
            ws.swap(i, rng.random_range(0..=i));
        }
    }
    ws.into_iter().enumerate().map(|(i, w)| (i as f64 + rng.random::<f64>() * 0.25, w)).collect()
}

/// `(id, key, weight)` triples for the ids in `ids`, keyed by id with
/// weights cycling `1..=10`: the element set of the service experiments.
pub fn keyed_elements(ids: std::ops::Range<usize>) -> Vec<(u64, f64, f64)> {
    ids.map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect()
}

/// `n` uniform points in the unit square.
pub fn uniform_points2(n: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()].into()).collect()
}

/// `n` points in `k` Gaussian-ish clusters (clustered workload for E5).
pub fn clustered_points2(n: usize, k: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<[f64; 2]> =
        (0..k).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
    (0..n)
        .map(|_| {
            let c = centers[rng.random_range(0..k)];
            let mut jitter = || (rng.random::<f64>() - 0.5) * 0.08;
            [c[0] + jitter(), c[1] + jitter()].into()
        })
        .collect()
}

/// `n` uniform points in the unit cube.
pub fn uniform_points3(n: usize, seed: u64) -> Vec<Point<3>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>(), rng.random::<f64>()].into()).collect()
}

/// An overlapping set family for E8: `f` sets over a universe of size
/// `u`, each an interval of length `len` starting at a random offset
/// (heavy pairwise overlap, the regime Theorem 8 exists for).
pub fn overlapping_sets(f: usize, u: u64, len: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..f)
        .map(|_| {
            let start = rng.random_range(0..u.saturating_sub(len).max(1));
            (start..(start + len).min(u)).collect()
        })
        .collect()
}

/// Median-of-runs nanoseconds for `op`, called `iters` times per run;
/// each result goes through `black_box`, so the measured work cannot be
/// optimised away. A tiny deterministic timer for the harness
/// (criterion handles the statistically careful benches; the harness
/// needs one readable number per table row).
pub fn time_ns<R>(mut op: impl FnMut() -> R, iters: usize, runs: usize) -> f64 {
    assert!(iters > 0 && runs > 0);
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(op());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    quantile(&samples, 0.5)
}

/// Nearest-rank quantile of an ascending-sorted slice: the smallest
/// element with at least a `q` share of the slice at or below it.
///
/// # Panics
/// On an empty slice or a `q` outside `[0, 1]`.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(
        !sorted.is_empty() && (0.0..=1.0).contains(&q),
        "quantile {q} of {} items",
        sorted.len()
    );
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one [`closed_loop`] run measured.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    /// Operations completed, summed over all clients.
    pub ops: u64,
    /// Wall time from the start until the last client stopped.
    pub elapsed: Duration,
    /// Every operation's latency, ascending; empty unless asked for.
    pub latencies: Vec<Duration>,
}

impl ClosedLoop {
    /// Completed operations per second of wall time.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Closed-loop load: `clients` threads each call `op` back to back on
/// their own state (built by `client` before the thread starts) until
/// `secs` seconds have passed since the start. With `latencies` set,
/// every call is timed and the sorted latencies are returned.
///
/// A panic in `op` (a failed call the experiment asserts against)
/// propagates to the caller.
pub fn closed_loop<C: Send>(
    clients: usize,
    secs: f64,
    latencies: bool,
    client: impl Fn() -> C,
    op: impl Fn(&mut C) + Sync,
) -> ClosedLoop {
    let op = &op;
    let start = Instant::now();
    let per_client: Vec<(u64, Vec<Duration>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let mut state = client();
                scope.spawn(move || {
                    let (mut ops, mut lat) = (0u64, Vec::new());
                    while start.elapsed().as_secs_f64() < secs {
                        if latencies {
                            let t = Instant::now();
                            op(&mut state);
                            lat.push(t.elapsed());
                        } else {
                            op(&mut state);
                        }
                        ops += 1;
                    }
                    (ops, lat)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    });
    let elapsed = start.elapsed();
    let ops = per_client.iter().map(|(n, _)| n).sum();
    let mut latencies: Vec<Duration> = per_client.into_iter().flat_map(|(_, l)| l).collect();
    latencies.sort_unstable();
    ClosedLoop { ops, elapsed, latencies }
}

/// Interleaved A/B(/C…) rounds: each round runs every arm once, in
/// order, so slow drift of the host hits all arms alike. Returns each
/// arm's median result over `rounds` rounds.
pub fn interleaved_medians<const K: usize>(
    rounds: usize,
    mut arms: [&mut dyn FnMut() -> f64; K],
) -> [f64; K] {
    assert!(rounds > 0);
    let mut results = [(); K].map(|()| Vec::with_capacity(rounds));
    for _ in 0..rounds {
        for (arm, out) in arms.iter_mut().zip(&mut results) {
            out.push(arm());
        }
    }
    results.map(|mut v| {
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.5)
    })
}

/// One results table: rows append to `results/<file>`, which starts
/// with `header` when the row creates it.
#[derive(Debug, Clone, Copy)]
pub struct Csv {
    file: &'static str,
    header: &'static str,
}

impl Csv {
    /// The table `results/<file>` with columns `header`.
    #[must_use]
    pub const fn new(file: &'static str, header: &'static str) -> Csv {
        Csv { file, header }
    }

    /// Appends one row, creating the directory and header on first touch.
    pub fn row(&self, row: std::fmt::Arguments<'_>) {
        use std::io::Write;
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(self.file);
        let fresh = !path.exists();
        let mut f =
            std::fs::OpenOptions::new().create(true).append(true).open(&path).expect("open csv");
        if fresh {
            writeln!(f, "{}", self.header).expect("write header");
        }
        writeln!(f, "{row}").expect("write row");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(keyed_weights(50, Weights::Zipf, 1), keyed_weights(50, Weights::Zipf, 1));
        assert_ne!(keyed_weights(50, Weights::Zipf, 1), keyed_weights(50, Weights::Zipf, 2));
        assert_eq!(uniform_points2(10, 3), uniform_points2(10, 3));
    }

    #[test]
    fn keyed_weights_are_sorted_enough_and_positive() {
        for w in [Weights::Unit, Weights::Uniform, Weights::Zipf] {
            let pairs = keyed_weights(100, w, 7);
            assert_eq!(pairs.len(), 100);
            assert!(pairs.iter().all(|&(_, w)| w > 0.0));
        }
    }

    #[test]
    fn overlapping_sets_shape() {
        let sets = overlapping_sets(10, 1000, 200, 5);
        assert_eq!(sets.len(), 10);
        assert!(sets.iter().all(|s| !s.is_empty() && s.len() <= 200));
    }

    fn noop(_: Opts) {}

    const TABLE: &[Experiment] = &[
        Experiment { names: &["e1"], run: noop },
        Experiment { names: &["e3", "e4"], run: noop },
        Experiment { names: &["f1"], run: noop },
    ];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_string()).collect()
    }

    fn selected(list: &[&str]) -> Result<(Opts, Vec<&'static str>), String> {
        select(TABLE, &args(list)).map(|(o, es)| (o, es.iter().map(|e| e.names[0]).collect()))
    }

    #[test]
    fn selection_by_name_flag_and_default() {
        assert_eq!(selected(&[]), Ok((Opts { smoke: false }, vec!["e1", "e3", "f1"])));
        assert_eq!(selected(&["--smoke"]), Ok((Opts { smoke: true }, vec!["e1", "e3", "f1"])));
        assert_eq!(selected(&["f1", "e1"]), Ok((Opts { smoke: false }, vec!["e1", "f1"])));
        // Both names of the shared entry select it, and it runs once.
        assert_eq!(selected(&["e4"]), Ok((Opts { smoke: false }, vec!["e3"])));
        assert_eq!(selected(&["e3", "e4", "--smoke"]), Ok((Opts { smoke: true }, vec!["e3"])));
    }

    #[test]
    fn unknown_names_and_flags_are_errors() {
        let err = selected(&["e1", "e99"]).unwrap_err();
        assert!(err.contains("`e99`") && err.contains("e1 e3 e4 f1"), "{err}");
        let err = selected(&["--fast"]).unwrap_err();
        assert!(err.contains("`--fast`") && err.contains("--smoke"), "{err}");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        let qs = [0.0, 0.25, 0.26, 0.5, 0.99, 1.0].map(|q| quantile(&v, q));
        assert_eq!(qs, [10, 10, 20, 20, 40, 40]);
    }

    #[test]
    fn closed_loop_counts_every_op() {
        let lp = closed_loop(2, 0.01, true, || 0u64, |n| *n += 1);
        assert!(lp.ops > 0);
        assert_eq!(lp.latencies.len() as u64, lp.ops);
        assert!(lp.latencies.windows(2).all(|w| w[0] <= w[1]));
        assert!(closed_loop(1, 0.01, false, || (), |()| {}).latencies.is_empty());
    }

    #[test]
    fn interleaved_medians_alternate_arms() {
        // Arm b reads the call count arm a leaves behind, so only strict
        // a, b, a, b, … alternation yields these medians.
        let calls = std::cell::Cell::new(0.0);
        let mut a = || {
            calls.set(calls.get() + 1.0);
            calls.get()
        };
        let medians = interleaved_medians(3, [&mut a, &mut || 10.0 * calls.get()]);
        assert_eq!(medians, [2.0, 20.0]);
    }

    #[test]
    fn timer_returns_positive() {
        let mut x = 0u64;
        let ns = time_ns(|| x = x.wrapping_add(1), 1000, 3);
        assert!(ns >= 0.0);
        assert!(x > 0);
    }
}
