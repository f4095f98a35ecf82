//! The experiment harness: regenerates every table of the reproduction
//! (DESIGN.md §2, recorded in EXPERIMENTS.md).
//!
//! Usage:
//!   cargo run -p iqs-bench --release --bin harness                    # all
//!   cargo run -p iqs-bench --release --bin harness -- e1 f2           # subset
//!   cargo run -p iqs-bench --release --bin harness -- e17 --smoke     # CI size
//!
//! Each experiment prints a table and appends rows to `results/*.csv`.
//! `--smoke` runs the same code at a small size with short intervals;
//! an unknown name or flag exits with status 2 and lists the names.

use iqs_alias::space::SpaceUsage;
use iqs_alias::{AliasTable, CdfSampler, DynamicAlias};
use iqs_bench::{
    closed_loop, clustered_points2, interleaved_medians, keyed_elements, keyed_weights,
    overlapping_sets, quantile, select, time_ns, uniform_points2, uniform_points3, Csv, Experiment,
    Opts, Weights,
};
use iqs_core::approx::ApproxCoverageSampler;
use iqs_core::baseline::{DependentRange, ReportThenSample};
use iqs_core::complement::ComplementRange;
use iqs_core::coverage::CoverageSampler;
use iqs_core::dynamic_range::DynamicRange;
use iqs_core::estimator::{required_sample_size, SelectivityEstimator};
use iqs_core::setunion::{naive_union_sample, SetUnionSampler};
use iqs_core::wor_exact::ExpJumpWor;
use iqs_core::{AliasAugmentedRange, ChunkedRange, RangeSampler, TreeSamplingRange};
use iqs_em::{
    EmMachine, EmRangeSampler, EmWeightedRangeSampler, NaiveEmRangeSampler, NaiveEmSampler,
    SamplePool,
};
use iqs_sketch::{HashSeed, KmvSketch};
use iqs_spatial::{dist2, Disc, HalfSpace, KdTree, QuadTree, RangeTree, Rect};
use iqs_stats::chisq::{chi_square_gof, uniform_probs};
use iqs_stats::concentration::ErrorRuns;
use iqs_stats::independence::{overlap_test, OverlapReport};
use iqs_tree::{SubtreeSampler, Tree, TreeSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every experiment, in the order a full run prints them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment { names: &["e1"], run: e1_alias },
    Experiment { names: &["e2"], run: e2_tree_sampling },
    Experiment { names: &["e3", "e4"], run: e3_e4_range1d },
    Experiment { names: &["e5"], run: e5_kdtree },
    Experiment { names: &["e6"], run: e6_rangetree },
    Experiment { names: &["e7"], run: e7_approx_cover },
    Experiment { names: &["e8"], run: e8_setunion },
    Experiment { names: &["e9"], run: e9_em_set },
    Experiment { names: &["e10"], run: e10_em_range },
    Experiment { names: &["e11"], run: e11_dynamic_alias },
    Experiment { names: &["f1"], run: f1_independence },
    Experiment { names: &["f2"], run: f2_concentration },
    Experiment { names: &["f3"], run: f3_fairness },
    Experiment { names: &["f4"], run: f4_crossover },
    Experiment { names: &["e12"], run: e12_dynamic_range },
    Experiment { names: &["e13"], run: e13_wor_methods },
    Experiment { names: &["a1"], run: a1_chunk_len_ablation },
    Experiment { names: &["a2"], run: a2_sketch_k_ablation },
    Experiment { names: &["a3"], run: a3_leaf_cap_ablation },
    Experiment { names: &["e14"], run: e14_regions },
    Experiment { names: &["e15"], run: e15_em_weighted },
    Experiment { names: &["e17"], run: e17_service },
    Experiment { names: &["e18"], run: e18_sharded },
    Experiment { names: &["e19"], run: e19_observability },
    Experiment { names: &["e20"], run: e20_memory_wall },
    Experiment { names: &["e21"], run: e21_net },
    Experiment { names: &["e22"], run: e22_tiered },
    Experiment { names: &["e23"], run: e23_autopilot },
    Experiment { names: &["e24"], run: e24_telemetry_slo },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    // E21 re-spawns this binary as replica server processes.
    if args.first().map(String::as_str) == Some("replica-node") {
        e21_replica_node(&args[1..]);
        return;
    }
    let (opts, chosen) = select(EXPERIMENTS, &args).unwrap_or_else(|err| {
        eprintln!("harness: {err}");
        eprintln!("usage: harness [--smoke] [NAME ...]   (no names: run every experiment)");
        std::process::exit(2);
    });

    println!("IQS experiment harness (Tao, PODS 2022 reproduction)");
    println!("====================================================\n");
    for experiment in chosen {
        (experiment.run)(opts);
    }
}

// =====================================================================
// E1 — Theorem 1: alias O(n) build, O(1) sample; CDF baseline O(log n).
// =====================================================================
fn e1_alias(_: Opts) {
    let csv = Csv::new("e1_alias.csv", "n,build_us,alias_ns,cdf_ns");
    println!("E1  Theorem 1 — alias method vs inverse-CDF baseline");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14}",
        "n", "alias build", "alias ns/samp", "cdf ns/samp", "cdf/alias"
    );
    let mut rng = StdRng::seed_from_u64(1);
    for exp in [12u32, 14, 16, 18, 20, 22] {
        let n = 1usize << exp;
        let weights: Vec<f64> =
            keyed_weights(n, Weights::Zipf, 10 + exp as u64).into_iter().map(|p| p.1).collect();
        let build_start = std::time::Instant::now();
        let alias = AliasTable::new(&weights).unwrap();
        let build_us = build_start.elapsed().as_micros();
        let cdf = CdfSampler::new(&weights).unwrap();
        let a_ns = time_ns(|| alias.sample(&mut rng), 20_000, 5);
        let c_ns = time_ns(|| cdf.sample(&mut rng), 20_000, 5);
        println!("{n:>10} {build_us:>11} us {a_ns:>14.1} {c_ns:>14.1} {:>13.1}x", c_ns / a_ns);
        csv.row(format_args!("{n},{build_us},{a_ns:.1},{c_ns:.1}"));
    }
    println!("  claim: alias per-sample flat in n; CDF grows ~log n; both builds linear.\n");
}

// =====================================================================
// E2 — §3.2 tree sampling O(s·height) vs Lemma-4 SubtreeSampler O(1+s).
// =====================================================================
fn e2_tree_sampling(_: Opts) {
    let csv = Csv::new("e2_tree_sampling.csv", "n,descend_ns,lemma4_ns,pieces_per_n,space_ratio");
    println!("E2  §3.2 tree sampling vs Lemma 4 (SubtreeSampler)");
    println!(
        "{:>10} {:>14} {:>16} {:>12} {:>12}",
        "n", "descend ns/s", "lemma4 ns/samp", "pieces/n", "space ratio"
    );
    let mut rng = StdRng::seed_from_u64(2);
    for exp in [10u32, 12, 14, 16, 18] {
        let n = 1usize << exp;
        let tree = Tree::random(n, 4, &mut rng);
        let ts = TreeSampler::new(tree.clone());
        let sub = SubtreeSampler::new(&tree);
        let t_ns = time_ns(|| ts.sample_leaf(0, &mut rng), 10_000, 5);
        let s_ns = time_ns(|| sub.sample_leaf(0, &mut rng), 10_000, 5);
        let pieces = sub.total_pieces() as f64 / n as f64;
        let ratio = sub.space_words() as f64 / ts.space_words() as f64;
        println!("{:>10} {:>14.1} {:>16.1} {:>12.2} {:>12.2}", n, t_ns, s_ns, pieces, ratio);
        csv.row(format_args!("{n},{t_ns:.1},{s_ns:.1},{pieces:.3},{ratio:.3}"));
    }
    println!("  claim: descend grows with log n; Lemma-4 flat; pieces/n bounded (O(n) space).\n");
}

// =====================================================================
// E3/E4 — Lemma 2 vs Theorem 3 vs §3.2: query time and space.
// =====================================================================
fn e3_e4_range1d(_: Opts) {
    let csv = Csv::new(
        "e3_e4_range1d.csv",
        "n,s,tree_us,lemma2_us,thm3_us,tree_words,lemma2_words,thm3_words",
    );
    println!("E3/E4  1-D weighted range sampling — three structures");
    println!(
        "{:>9} {:>5} {:>11} {:>11} {:>11} | {:>12} {:>12} {:>12}",
        "n", "s", "tree us/q", "lem2 us/q", "thm3 us/q", "tree words", "lem2 words", "thm3 words"
    );
    let mut rng = StdRng::seed_from_u64(3);
    for exp in [14u32, 16, 18, 20] {
        let n = 1usize << exp;
        let tree = TreeSamplingRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let lem2 = AliasAugmentedRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let thm3 = ChunkedRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
        for s in [1usize, 16, 256, 4096] {
            let t = time_ns(|| tree.sample_wr(x, y, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
            let l = time_ns(|| lem2.sample_wr(x, y, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
            let c = time_ns(|| thm3.sample_wr(x, y, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
            let (tw, lw, cw) = (tree.space_words(), lem2.space_words(), thm3.space_words());
            println!("{n:>9} {s:>5} {t:>11.1} {l:>11.1} {c:>11.1} | {tw:>12} {lw:>12} {cw:>12}");
            csv.row(format_args!("{n},{s},{t:.2},{l:.2},{c:.2},{tw},{lw},{cw}"));
        }
    }
    println!(
        "  claims: Lemma2/Thm3 ~O(log n + s); §3.2 pays log n per sample; \
         Thm3 space linear, Lemma2 space n log n.\n"
    );
}

// =====================================================================
// E5 — Theorem 5 on a kd-tree; crossover vs report-then-sample.
// =====================================================================
fn e5_kdtree(_: Opts) {
    let kdtree_csv = Csv::new("e5_kdtree.csv", "n,side,count,cover,s,iqs_us,report_us");
    let cover_scaling_csv = Csv::new("e5_cover_scaling.csv", "n,cover2d,cover3d");
    println!("E5  Theorem 5 @ kd-tree (2-D) vs report-then-sample, s = 64");
    let mut rng = StdRng::seed_from_u64(5);
    let n = 1 << 17;
    let pts = uniform_points2(n, 50);
    let kd = CoverageSampler::new(KdTree::with_unit_weights(pts.clone()).unwrap());
    println!("{:>10} {:>9} {:>13} {:>15}", "|S_q|", "cover", "IQS us/q", "report us/q");
    let s = 64usize;
    for side in [0.02f64, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let q: Rect<2> =
            Rect::new([0.5 - side / 2.0, 0.5 - side / 2.0], [0.5 + side / 2.0, 0.5 + side / 2.0]);
        let count = kd.count(&q);
        if count == 0 {
            continue;
        }
        let cover = kd.index().cover(&q).len();
        let iqs_us = time_ns(|| kd.sample_wr(&q, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let rep_us = time_ns(
            || {
                let all = kd.index().report(&q);
                all[rng.random_range(0..all.len())]
            },
            20,
            5,
        ) / 1e3;
        println!("{:>10} {:>9} {:>13.1} {:>15.1}", count, cover, iqs_us, rep_us);
        kdtree_csv.row(format_args!("{n},{side},{count},{cover},{s},{iqs_us:.2},{rep_us:.2}"));
    }

    println!("  cover-size scaling on full-height strips:");
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>14}",
        "n", "2D cover", "cover/sqrt n", "3D cover", "cover/n^2/3"
    );
    for exp in [12u32, 14, 16, 18] {
        let n = 1usize << exp;
        let kd2 = KdTree::with_unit_weights(uniform_points2(n, 51)).unwrap();
        let strip2: Rect<2> = Rect::new([0.45, f64::NEG_INFINITY], [0.55, f64::INFINITY]);
        let c2 = kd2.cover(&strip2).len();
        let kd3 = KdTree::with_unit_weights(uniform_points3(n, 52)).unwrap();
        let strip3: Rect<3> = Rect::new(
            [0.45, f64::NEG_INFINITY, f64::NEG_INFINITY],
            [0.55, f64::INFINITY, f64::INFINITY],
        );
        let c3 = kd3.cover(&strip3).len();
        let (r2, r3) = (c2 as f64 / (n as f64).sqrt(), c3 as f64 / (n as f64).powf(2.0 / 3.0));
        println!("{n:>10} {c2:>12} {r2:>14.2} {c3:>12} {r3:>14.2}");
        cover_scaling_csv.row(format_args!("{n},{c2},{c3}"));
    }

    let clustered = clustered_points2(n, 8, 53);
    let kd_c = CoverageSampler::new(KdTree::with_unit_weights(clustered).unwrap());
    let q: Rect<2> = Rect::new([0.25, 0.25], [0.75, 0.75]);
    println!(
        "  clustered workload: |S_q| = {}, cover = {}, sample ok = {}",
        kd_c.count(&q),
        kd_c.index().cover(&q).len(),
        kd_c.sample_wr(&q, 8, &mut rng).is_ok()
    );
    println!("  claims: IQS flat in |S_q|; report linear; cover ~ n^(1-1/d).\n");
}

// =====================================================================
// E6 — Theorem 5 on a range tree.
// =====================================================================
fn e6_rangetree(_: Opts) {
    let csv = Csv::new("e6_rangetree.csv", "n,rt_cover,kd_cover,rt_us,kd_us,rt_words,kd_words");
    println!("E6  Theorem 5 @ range tree vs kd-tree, s = 64");
    println!(
        "{:>9} {:>9} {:>9} {:>12} {:>12} {:>15} {:>13}",
        "n", "rt cover", "kd cover", "rt us/q", "kd us/q", "rt space", "kd space"
    );
    let mut rng = StdRng::seed_from_u64(6);
    for exp in [12u32, 14, 16] {
        let n = 1usize << exp;
        let pts = uniform_points2(n, 60);
        let rt = CoverageSampler::new(RangeTree::with_unit_weights(pts.clone()).unwrap());
        let kd = CoverageSampler::new(KdTree::with_unit_weights(pts).unwrap());
        let q: Rect<2> = Rect::new([0.2, 0.3], [0.8, 0.7]);
        let rt_cover = rt.index().cover(&q).len();
        let kd_cover = kd.index().cover(&q).len();
        let s = 64usize;
        let rt_us = time_ns(|| rt.sample_wr(&q, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let kd_us = time_ns(|| kd.sample_wr(&q, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let (rt_words, kd_words) = (rt.space_words(), kd.space_words());
        println!(
            "{n:>9} {rt_cover:>9} {kd_cover:>9} {rt_us:>12.1} {kd_us:>12.1} \
             {rt_words:>15} {kd_words:>13}"
        );
        csv.row(format_args!(
            "{n},{rt_cover},{kd_cover},{rt_us:.2},{kd_us:.2},{rt_words},{kd_words}"
        ));
    }
    println!("  claims: rt cover ~log² n ≪ kd cover ~√n; rt space ~n log n ≫ kd space ~n.\n");
}

// =====================================================================
// E7 — Theorem 6 / Corollary 7: complement range sampling.
// =====================================================================
fn e7_approx_cover(_: Opts) {
    let csv = Csv::new("e7_approx.csv", "n,s,approx_us,exact_us");
    println!("E7  complement sampling — approx cover (≤2, Cor 7) vs exact covers (Θ(log n))");
    println!("{:>9} {:>5} {:>16} {:>16}", "n", "s", "approx us/q", "exact us/q");
    let mut rng = StdRng::seed_from_u64(7);
    for exp in [14u32, 18, 20] {
        let n = 1usize << exp;
        let comp = ComplementRange::new(keyed_weights(n, Weights::Unit, 70)).unwrap();
        // Exact baseline: decompose the complement into prefix + suffix
        // and run two Theorem-3 queries, each paying its own canonical
        // decomposition (Θ(log n) term).
        let exact = ChunkedRange::new(keyed_weights(n, Weights::Unit, 70)).unwrap();
        let (x, y) = (n as f64 * 0.3, n as f64 * 0.7);
        let (a, b) = exact.rank_range(x, y);
        let keys = exact.keys();
        let (pre_hi, suf_lo) = (keys[a - 1], keys[b]);
        for s in [1usize, 4, 16, 256] {
            let a_us = time_ns(|| comp.sample_wr(x, y, s, &mut rng).unwrap()[0], 50, 5) / 1e3;
            let e_us = time_ns(
                || {
                    let w_pre = a as f64;
                    let w_suf = (n - b) as f64;
                    let mut s1 = 0;
                    for _ in 0..s {
                        if rng.random::<f64>() * (w_pre + w_suf) < w_pre {
                            s1 += 1;
                        }
                    }
                    let pre = (s1 > 0).then(|| {
                        exact.sample_wr(f64::NEG_INFINITY, pre_hi, s1, &mut rng).unwrap()[0]
                    });
                    let suf = (s1 < s).then(|| {
                        exact.sample_wr(suf_lo, f64::INFINITY, s - s1, &mut rng).unwrap()[0]
                    });
                    (pre, suf)
                },
                50,
                5,
            ) / 1e3;
            println!("{:>9} {:>5} {:>16.2} {:>16.2}", n, s, a_us, e_us);
            csv.row(format_args!("{n},{s},{a_us:.2},{e_us:.2}"));
        }
    }
    println!("  claim: approx-cover query is O(s) with no log-n term; wins at small s.\n");
}

// =====================================================================
// E8 — Theorem 8: set-union sampling.
// =====================================================================
fn e8_setunion(_: Opts) {
    let csv = Csv::new("e8_setunion.csv", "g,total,union,iqs_us,naive_us,p");
    println!("E8  Theorem 8 — set-union sampling vs naive union materialization");
    println!(
        "{:>5} {:>10} {:>12} {:>14} {:>14} {:>10}",
        "g", "Σ|S_i|", "|∪G|", "IQS us/samp", "naive us/samp", "chi² p"
    );
    let mut rng = StdRng::seed_from_u64(8);
    let universe = 200_000u64;
    let set_len = 20_000u64;
    let family = overlapping_sets(64, universe, set_len, 80);
    let mut sampler = SetUnionSampler::new(family.clone(), &mut rng).unwrap();
    for g_size in [2usize, 4, 8, 16, 32, 64] {
        let g: Vec<usize> = (0..g_size).collect();
        let total: usize = g.iter().map(|&i| family[i].len()).sum();
        let union = sampler.exact_union(&g);
        let iqs_us = time_ns(|| sampler.sample(&g, &mut rng).unwrap(), 30, 5) / 1e3;
        let naive_us = time_ns(|| naive_union_sample(&family, &g, &mut rng).unwrap(), 5, 3) / 1e3;
        // Uniformity over a coarse bucketing of the union.
        let buckets = 50usize;
        let mut counts = vec![0u64; buckets];
        let draws = 20_000;
        let mut union_sorted: Vec<u64> =
            g.iter().flat_map(|&i| family[i].iter().copied()).collect();
        union_sorted.sort_unstable();
        union_sorted.dedup();
        for _ in 0..draws {
            let v = sampler.sample(&g, &mut rng).unwrap();
            let rank = union_sorted.binary_search(&v).unwrap();
            counts[(rank * buckets / union_sorted.len()).min(buckets - 1)] += 1;
        }
        let probs: Vec<f64> = (0..buckets)
            .map(|bu| {
                let lo = bu * union_sorted.len() / buckets;
                let hi = (bu + 1) * union_sorted.len() / buckets;
                (hi - lo) as f64 / union_sorted.len() as f64
            })
            .collect();
        let gof = chi_square_gof(&counts, &probs);
        println!(
            "{:>5} {:>10} {:>12} {:>14.1} {:>14.1} {:>10.3}",
            g_size, total, union, iqs_us, naive_us, gof.p_value
        );
        csv.row(format_args!(
            "{g_size},{total},{union},{iqs_us:.2},{naive_us:.2},{:.4}",
            gof.p_value
        ));
    }
    println!("  claim: IQS ~g·log² n per sample (flat in Σ|S_i|); naive ~Σ|S_i|.\n");
}

/// Block transfers `machine` counts while `op` runs.
fn ios<R>(machine: &EmMachine, op: impl FnOnce() -> R) -> u64 {
    machine.reset_stats();
    op();
    machine.stats().total()
}

// =====================================================================
// E9 — §8: EM set sampling I/O counts.
// =====================================================================
fn e9_em_set(_: Opts) {
    let csv = Csv::new("e9_em_set.csv", "B,s,pool_ios,naive_ios");
    println!("E9  §8 EM set sampling — I/Os per query (n = 2^20)");
    println!("{:>6} {:>8} {:>14} {:>14} {:>9}", "B", "s", "pool I/Os", "naive I/Os", "ratio");
    let mut rng = StdRng::seed_from_u64(9);
    let n = 1usize << 20;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    for b in [64usize, 256, 1024] {
        let machine = EmMachine::new(32 * b, b);
        let mut pool = SamplePool::new(&machine, data.clone(), &mut rng);
        let naive = NaiveEmSampler::new(&machine, data.clone());
        for s in [1024usize, 8192, 65_536] {
            let p_ios = ios(&machine, || pool.query(s, &mut rng));
            let n_ios = ios(&machine, || naive.query(s, &mut rng));
            let ratio = n_ios as f64 / p_ios.max(1) as f64;
            println!("{b:>6} {s:>8} {p_ios:>14} {n_ios:>14} {ratio:>8.1}x");
            csv.row(format_args!("{b},{s},{p_ios},{n_ios}"));
        }
    }
    println!(
        "  claim: pool ~s/B amortized (ratio ~B); naive ~s — the Hu et al. lower-bound shape.\n"
    );
}

// =====================================================================
// E10 — §8: EM range sampling I/O counts.
// =====================================================================
fn e10_em_range(_: Opts) {
    let csv = Csv::new("e10_em_range.csv", "s,count,pool_ios,randacc_ios,report_ios");
    println!("E10  §8 EM range sampling — I/Os per query (n = 2^20, B = 256)");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>18}",
        "s", "|S_q|", "pool I/Os", "rand-acc I/Os", "report+sample I/Os"
    );
    let mut rng = StdRng::seed_from_u64(10);
    let b = 256usize;
    let machine = EmMachine::new(32 * b, b);
    let n = 1usize << 20;
    let keys: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut pool = EmRangeSampler::new(&machine, keys.clone());
    let naive = NaiveEmRangeSampler::new(&machine, keys);
    for (frac, s) in [(0.5f64, 256usize), (0.5, 2048), (0.5, 16_384), (0.1, 2048), (0.9, 2048)] {
        let x = n as f64 * (0.5 - frac / 2.0);
        let y = n as f64 * (0.5 + frac / 2.0);
        pool.query(x, y, 64, &mut rng); // warm pools once
        let p_ios = ios(&machine, || pool.query(x, y, s, &mut rng).unwrap());
        let r_ios = ios(&machine, || naive.query_random_access(x, y, s, &mut rng).unwrap());
        let rep_ios = ios(&machine, || naive.query_report_then_sample(x, y, s, &mut rng).unwrap());
        let count = (y - x) as usize;
        println!("{:>8} {:>12} {:>14} {:>14} {:>18}", s, count, p_ios, r_ios, rep_ios);
        csv.row(format_args!("{s},{count},{p_ios},{r_ios},{rep_ios}"));
    }
    println!("  claim: pool ~log + s/B amortized; random access ~s; report ~|S_q|/B.\n");
}

// =====================================================================
// E11 — Direction 1: dynamic alias under interleaved updates.
// =====================================================================
fn e11_dynamic_alias(_: Opts) {
    let csv = Csv::new("e11_dynamic.csv", "n,sample_ns,insert_ns,remove_ns,rebuild_us");
    println!("E11  dynamic alias — expected O(1) ops under updates");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>18}",
        "n", "sample ns", "insert ns", "remove ns", "static rebuild us"
    );
    let mut rng = StdRng::seed_from_u64(11);
    for exp in [12u32, 14, 16, 18, 20] {
        let n = 1usize << exp;
        let mut d = DynamicAlias::new();
        for i in 0..n as u64 {
            d.insert(i, 0.1 + rng.random::<f64>() * 100.0).unwrap();
        }
        let s_ns = time_ns(|| d.sample(&mut rng).unwrap(), 20_000, 5);
        let mut next_id = n as u64;
        let i_ns = time_ns(
            || {
                d.insert(next_id, 1.0 + (next_id % 97) as f64).unwrap();
                next_id += 1;
            },
            5_000,
            3,
        );
        let mut rm_id = n as u64;
        let r_ns = time_ns(
            || {
                d.remove(rm_id);
                rm_id += 1;
            },
            5_000,
            3,
        );
        let weights: Vec<f64> = (0..n).map(|_| 0.1 + rng.random::<f64>()).collect();
        let rebuild_us = time_ns(|| AliasTable::new(&weights).unwrap().len(), 3, 3) / 1e3;
        println!("{:>10} {:>14.1} {:>14.1} {:>14.1} {:>18.1}", n, s_ns, i_ns, r_ns, rebuild_us);
        csv.row(format_args!("{n},{s_ns:.1},{i_ns:.1},{r_ns:.1},{rebuild_us:.1}"));
    }
    println!("  claim: all dynamic ops flat in n; static rebuild linear in n.\n");
}

// =====================================================================
// F1 — cross-query independence: IQS passes, dependent fails.
// =====================================================================
fn f1_independence(_: Opts) {
    let csv = Csv::new("f1_independence.csv", "structure,mean_overlap,expected");
    println!("F1  repeated-identical-query overlap test (k = 400, s = 20, 1000 rounds)");
    println!(
        "{:>12} {:>15} {:>15} {:>10}",
        "structure", "mean overlap", "independent E", "verdict"
    );
    let n = 400usize;
    let s = 20usize;
    let structures: Vec<(&str, Box<dyn RangeSampler>)> = vec![
        ("tree", Box::new(TreeSamplingRange::new(keyed_weights(n, Weights::Unit, 90)).unwrap())),
        (
            "lemma2",
            Box::new(AliasAugmentedRange::new(keyed_weights(n, Weights::Unit, 90)).unwrap()),
        ),
        ("thm3", Box::new(ChunkedRange::new(keyed_weights(n, Weights::Unit, 90)).unwrap())),
    ];
    // (name, report, verdict when the overlap test fails)
    let mut reports: Vec<(&str, OverlapReport, &str)> = structures
        .iter()
        .map(|(name, sampler)| {
            let mut rng = StdRng::seed_from_u64(91);
            let rep = overlap_test(n, s, 1000, || {
                sampler
                    .sample_wor(f64::NEG_INFINITY, f64::INFINITY, s, &mut rng)
                    .unwrap()
                    .into_iter()
                    .map(|r| r as u64)
                    .collect()
            });
            (*name, rep, "FAIL")
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(92);
    let dep = DependentRange::new((0..n).map(|i| i as f64).collect(), &mut rng).unwrap();
    let rep = overlap_test(n, s, 50, || {
        dep.sample_wor(f64::NEG_INFINITY, f64::INFINITY, s)
            .unwrap()
            .into_iter()
            .map(|r| r as u64)
            .collect()
    });
    reports.push(("dependent", rep, "FAIL (by design)"));
    for (name, rep, fail) in reports {
        let (mean, expected) = (rep.mean_overlap, rep.expected_independent);
        let verdict = if rep.looks_independent(0.35) { "PASS" } else { fail };
        println!("{name:>12} {mean:>15.2} {expected:>15.2} {verdict:>10}");
        csv.row(format_args!("{name},{mean:.3},{expected:.3}"));
    }
    println!(
        "  claim: IQS overlap ≈ s²/k = {:.1}; dependent = s = {s}.\n",
        (s * s) as f64 / n as f64
    );
}

// =====================================================================
// F2 — Benefit 1: failure concentration of repeated estimates.
// =====================================================================
fn f2_concentration(_: Opts) {
    let csv = Csv::new("f2_concentration.csv", "regime,failures,longest_run,block_var");
    println!("F2  estimation-error concentration over m = 1500 estimates (ε=.02, δ=.3)");
    let mut rng = StdRng::seed_from_u64(93);
    let n = 200_000usize;
    let pairs = keyed_weights(n, Weights::Unit, 94);
    let sampler = ChunkedRange::new(pairs).unwrap();
    let est = SelectivityEstimator::new(&sampler);
    let pred = |r: usize| r.is_multiple_of(3);
    let (eps, delta) = (0.02, 0.3);
    let s = required_sample_size(eps, delta);
    let (x, y) = (n as f64 * 0.2, n as f64 * 0.8);
    let exact = est.exact_fraction(x, y, &pred);
    let m = 1500usize;
    let fails: Vec<bool> = (0..m)
        .map(|_| {
            (est.estimate_fraction(x, y, &pred, eps, delta, &mut rng).unwrap() - exact).abs() > eps
        })
        .collect();
    let runs = ErrorRuns::new(fails);
    let dep = DependentRange::new(sampler.keys().to_vec(), &mut rng).unwrap();
    let mut dep_fails = Vec::with_capacity(m);
    for band in 0..30 {
        let bx = n as f64 * 0.02 * band as f64;
        let by = bx + n as f64 * 0.4;
        let (ra, rb) = sampler.rank_range(bx, by);
        let frozen = dep.sample_wor(bx, by, s.min(rb - ra)).unwrap();
        let hits = frozen.iter().filter(|&&r| pred(r)).count();
        let e = hits as f64 / frozen.len() as f64;
        let failed = (e - est.exact_fraction(bx, by, &pred)).abs() > eps;
        dep_fails.extend(std::iter::repeat_n(failed, m / 30));
    }
    let dep_runs = ErrorRuns::new(dep_fails);
    for (label, regime, runs) in [("IQS", "iqs", &runs), ("dependent", "dependent", &dep_runs)] {
        let (count, rate) = (runs.failure_count(), runs.failure_rate());
        let (longest, var) = (runs.longest_failure_run(), runs.block_count_variance(30));
        println!(
            "  {label}: failures {count}/{m} (rate {rate:.3}), longest run {longest}, \
             block var {var:.2}"
        );
        csv.row(format_args!("{regime},{count},{longest},{var:.3}"));
    }
    println!(
        "  claim: IQS runs ~log-length, counts concentrated; dependence makes runs of m/30.\n"
    );
}

// =====================================================================
// F3 — Benefit 2: fairness of repeated identical inquiries.
// =====================================================================
fn f3_fairness(_: Opts) {
    let csv = Csv::new("f3_fairness.csv", "regime,shown,of,chi2,p");
    println!("F3  exposure fairness over 10 000 identical inquiries (s = 10)");
    let mut rng = StdRng::seed_from_u64(95);
    let n = 5_000usize;
    let sampler = ChunkedRange::new(keyed_weights(n, Weights::Unit, 96)).unwrap();
    let dep = DependentRange::new(sampler.keys().to_vec(), &mut rng).unwrap();
    let (x, y, s) = (n as f64 * 0.2, n as f64 * 0.3, 10usize);
    let (a, b) = sampler.rank_range(x, y);
    let k = b - a;
    let inquiries = 10_000usize;
    let mut iqs_counts = vec![0u64; k];
    let mut dep_counts = vec![0u64; k];
    for _ in 0..inquiries {
        for r in sampler.sample_wor(x, y, s, &mut rng).unwrap() {
            iqs_counts[r - a] += 1;
        }
        for r in dep.sample_wor(x, y, s).unwrap() {
            dep_counts[r - a] += 1;
        }
    }
    for (name, counts) in [("IQS", &iqs_counts), ("dependent", &dep_counts)] {
        let shown = counts.iter().filter(|&&c| c > 0).count();
        let gof = chi_square_gof(counts, &uniform_probs(k));
        println!(
            "  {name:>10}: shown {shown}/{k}, chi² = {:.0}, p = {:.3e} → {}",
            gof.statistic,
            gof.p_value,
            if gof.consistent_at(1e-6) { "FAIR" } else { "UNFAIR" }
        );
        csv.row(format_args!("{name},{shown},{k},{:.1},{:.3e}", gof.statistic, gof.p_value));
    }
    println!();
}

// =====================================================================
// F4 — §1 headline: sampling beats reporting when s ≪ |S_q|.
// =====================================================================
fn f4_crossover(_: Opts) {
    let csv = Csv::new("f4_crossover.csv", "count,iqs_us,report_us");
    println!("F4  IQS vs report-then-sample crossover (s = 16, n = 2^20)");
    println!("{:>12} {:>13} {:>15} {:>9}", "|S_q|", "IQS us/q", "report us/q", "winner");
    let mut rng = StdRng::seed_from_u64(97);
    let n = 1usize << 20;
    let iqs = ChunkedRange::new(keyed_weights(n, Weights::Unit, 98)).unwrap();
    let rep = ReportThenSample::new(keyed_weights(n, Weights::Unit, 98)).unwrap();
    let s = 16usize;
    for frac in [0.00002f64, 0.0001, 0.001, 0.01, 0.1, 0.5, 0.9] {
        let x = n as f64 * (0.5 - frac / 2.0);
        let y = n as f64 * (0.5 + frac / 2.0);
        let count = iqs.range_count(x, y);
        if count == 0 {
            continue;
        }
        let i_us = time_ns(|| iqs.sample_wr(x, y, s, &mut rng).unwrap()[0], 50, 5) / 1e3;
        let r_us = time_ns(|| rep.sample_wr(x, y, s, &mut rng).unwrap()[0], 10, 5) / 1e3;
        let winner = if i_us < r_us { "IQS" } else { "report" };
        println!("{count:>12} {i_us:>13.2} {r_us:>15.2} {winner:>9}");
        csv.row(format_args!("{count},{i_us:.3},{r_us:.3}"));
    }
    println!("  claim: report cost grows with |S_q|; IQS flat; IQS wins from small |S_q| on.\n");
}

// =====================================================================
// E12 — Direction 1 applied to the headline problem: DynamicRange.
// =====================================================================
fn e12_dynamic_range(_: Opts) {
    let csv = Csv::new("e12_dynamic_range.csv", "n,insert_us,remove_us,query_us,static_query_us");
    println!("E12  dynamized range sampling (Bentley–Saxe over Theorem-3 levels)");
    println!(
        "{:>10} {:>12} {:>12} {:>13} {:>14}",
        "n", "insert us", "remove us", "query us", "static q us"
    );
    let mut rng = StdRng::seed_from_u64(120);
    for exp in [12u32, 14, 16, 18] {
        let n = 1usize << exp;
        let mut d = DynamicRange::new();
        let build_start = std::time::Instant::now();
        for i in 0..n as u64 {
            d.insert(i, i as f64, 1.0 + (i % 7) as f64).unwrap();
        }
        let insert_us = build_start.elapsed().as_micros() as f64 / n as f64;
        // Static counterpart over the same data.
        let static_s =
            ChunkedRange::new((0..n as u64).map(|i| (i as f64, 1.0 + (i % 7) as f64)).collect())
                .unwrap();
        let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
        let s = 64usize;
        let q_us = time_ns(|| d.sample_wr(x, y, s, &mut rng).unwrap()[0].0, 20, 5) / 1e3;
        let sq_us = time_ns(|| static_s.sample_wr(x, y, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        // Interleave deletes.
        let del_start = std::time::Instant::now();
        let dels = n / 4;
        for i in 0..dels as u64 {
            d.remove(i * 2);
        }
        let remove_us = del_start.elapsed().as_micros() as f64 / dels as f64;
        println!("{n:>10} {insert_us:>12.2} {remove_us:>12.2} {q_us:>13.1} {sq_us:>14.1}");
        csv.row(format_args!("{n},{insert_us:.3},{remove_us:.3},{q_us:.2},{sq_us:.2}"));
    }
    println!("  claim: amortized polylog updates; queries within a small factor of static.\n");
}

// =====================================================================
// E13 — WoR methods: rejection vs A-Res (reporting) vs A-ExpJ (jumps).
// =====================================================================
fn e13_wor_methods(_: Opts) {
    let csv = Csv::new("e13_wor.csv", "s,rejection_us,ares_us,expj_us");
    println!("E13  weighted WoR: rejection vs A-Res vs A-ExpJ (n = 2^18, |S_q| = 2^17)");
    println!("{:>9} {:>15} {:>14} {:>14}", "s", "rejection us", "A-Res us", "A-ExpJ us");
    let mut rng = StdRng::seed_from_u64(130);
    let n = 1usize << 18;
    let pairs = keyed_weights(n, Weights::Uniform, 131);
    let chunked = ChunkedRange::new(pairs.clone()).unwrap();
    let expj = ExpJumpWor::new(pairs).unwrap();
    let (x, y) = (n as f64 * 0.25, n as f64 * 0.75);
    let (a, b) = chunked.rank_range(x, y);
    let range_weights: Vec<f64> = chunked.weights()[a..b].to_vec();
    for s in [16usize, 256, 4096, 65_536, b - a - 1] {
        // Rejection WoR stalls when s approaches |S_q|: cap the timing
        // effort there and mark it.
        let rej_us = if s * 2 <= b - a {
            time_ns(|| chunked.sample_wor(x, y, s, &mut rng).unwrap()[0], 5, 3) / 1e3
        } else {
            f64::NAN // coupon-collector regime: skipped
        };
        let ares_us =
            time_ns(|| iqs_alias::wor::a_res_weighted_wor(&range_weights, s, &mut rng)[0], 5, 3)
                / 1e3;
        let expj_us = time_ns(|| expj.sample_wor(x, y, s, &mut rng).unwrap()[0], 5, 3) / 1e3;
        println!("{:>9} {:>15.1} {:>14.1} {:>14.1}", s, rej_us, ares_us, expj_us);
        csv.row(format_args!("{s},{rej_us:.2},{ares_us:.2},{expj_us:.2}"));
    }
    println!(
        "  claim: A-Res pays |S_q| regardless of s; rejection is fast for small s but \
         stalls near s = |S_q|; A-ExpJ is robust everywhere.\n"
    );
}

// =====================================================================
// A1 — ablation: Theorem 3's chunk length.
// =====================================================================
fn a1_chunk_len_ablation(_: Opts) {
    let csv = Csv::new("a1_chunk_len.csv", "chunk,space_words,query_us");
    println!("A1  Theorem-3 chunk-length ablation (n = 2^18, s = 64)");
    println!("{:>10} {:>14} {:>13}", "chunk c", "space words", "query us");
    let mut rng = StdRng::seed_from_u64(140);
    let n = 1usize << 18;
    let log_n = 18usize;
    for factor in [1usize, 4, 16, 64, 256] {
        let c = (log_n * factor) / 4; // c ∈ {4.5, 18, 72, …} ≈ {¼, 1, 4, 16, 64}·log n
        let sampler =
            ChunkedRange::with_chunk_len(keyed_weights(n, Weights::Uniform, 141), c.max(1))
                .unwrap();
        let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
        let q_us = time_ns(|| sampler.sample_wr(x, y, 64, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let words = sampler.space_words();
        println!("{c:>10} {words:>14} {q_us:>13.2}");
        csv.row(format_args!("{c},{words},{q_us:.3}"));
    }
    println!("  claim: tiny chunks inflate T_chunk space (n log n regime); huge chunks slow the\n         boundary scans; c = Θ(log n) sits at the joint optimum.\n");
}

// =====================================================================
// A2 — ablation: KMV sketch capacity k (Theorem 8's Û_G accuracy).
// =====================================================================
fn a2_sketch_k_ablation(_: Opts) {
    let csv = Csv::new("a2_sketch_k.csv", "k,mean_rel_err,within_band_pct");
    println!("A2  KMV sketch-capacity ablation (distinct count = 100 000)");
    println!("{:>8} {:>16} {:>18}", "k", "mean |rel err|", "within [Û/2,1.5Û] %");
    let n_distinct = 100_000u64;
    for k in [8usize, 16, 32, 64, 128, 256, 1024] {
        let trials = 40;
        let mut abs_err = 0.0;
        let mut within = 0usize;
        for t in 0..trials {
            let sk = KmvSketch::from_ids(0..n_distinct, k, HashSeed(1000 + t as u64));
            let est = sk.estimate();
            abs_err += (est - n_distinct as f64).abs() / n_distinct as f64 / trials as f64;
            // The paper's requirement: Û/2 ≤ U ≤ 1.5·Û.
            if n_distinct as f64 >= est / 2.0 && n_distinct as f64 <= 1.5 * est {
                within += 1;
            }
        }
        let pct = 100.0 * within as f64 / trials as f64;
        println!("{k:>8} {abs_err:>16.4} {pct:>17.0}%");
        csv.row(format_args!("{k},{abs_err:.4},{pct:.0}"));
    }
    println!(
        "  claim: rel. error ~1/sqrt(k); k = 64 (the sampler default) is safely inside the band.\n"
    );
}

// =====================================================================
// A3 — ablation: kd-tree leaf capacity.
// =====================================================================
fn a3_leaf_cap_ablation(_: Opts) {
    let csv = Csv::new("a3_leaf_cap.csv", "cap,nodes,cover,query_us");
    println!("A3  kd-tree leaf-capacity ablation (n = 2^16, s = 64)");
    println!("{:>10} {:>10} {:>10} {:>13}", "leaf cap", "nodes", "cover", "query us");
    let mut rng = StdRng::seed_from_u64(150);
    let n = 1usize << 16;
    let pts = uniform_points2(n, 151);
    let q: Rect<2> = Rect::new([0.2, 0.3], [0.8, 0.7]);
    for cap in [1usize, 4, 8, 32, 128, 512] {
        let kd =
            CoverageSampler::new(KdTree::with_leaf_cap(pts.clone(), vec![1.0; n], cap).unwrap());
        let cover = kd.index().cover(&q).len();
        let q_us = time_ns(|| kd.sample_wr(&q, 64, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let nodes = kd.index().node_count();
        println!("{cap:>10} {nodes:>10} {cover:>10} {q_us:>13.2}");
        csv.row(format_args!("{cap},{nodes},{cover},{q_us:.3}"));
    }
    println!(
        "  claim: small caps grow the arena; large caps grow boundary covers; 4-32 is flat.\n"
    );
}

// =====================================================================
// E14 — Theorem 5 beyond rectangles: halfspace and disc predicates,
// exact kd covers vs the Theorem-6 approximate quadtree route.
// =====================================================================
fn e14_regions(_: Opts) {
    let csv = Csv::new("e14_regions.csv", "kind,param,count,cover,us");
    println!("E14  generic regions: halfplane + disc (exact kd covers vs approx quadtree)");
    let mut rng = StdRng::seed_from_u64(160);
    let n = 1usize << 16;
    let pts = uniform_points2(n, 161);
    let kd = CoverageSampler::new(KdTree::with_unit_weights(pts.clone()).unwrap());
    let qt = ApproxCoverageSampler::new(QuadTree::with_unit_weights(pts.clone()).unwrap());
    let s = 64usize;

    println!("  halfplane x + 2y <= c sweep (kd exact covers):");
    println!("{:>8} {:>10} {:>9} {:>13}", "c", "|S_q|", "cover", "IQS us/q");
    for c in [0.3f64, 0.8, 1.5, 2.4] {
        let h = HalfSpace::new([1.0, 2.0], c);
        let count = kd.region_count(&h);
        if count == 0 {
            continue;
        }
        let cover = kd.region_cover(&h).len();
        let us = time_ns(|| kd.sample_region_wr(&h, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        println!("{:>8} {:>10} {:>9} {:>13.1}", c, count, cover, us);
        csv.row(format_args!("halfplane,{c},{count},{cover},{us:.2}"));
    }

    println!("  disc radius sweep: exact kd cover vs approx quadtree (Thm 6):");
    println!(
        "{:>8} {:>10} {:>10} {:>13} {:>10} {:>14}",
        "r", "|S_q|", "kd cover", "kd us/q", "qt cover", "qt(approx) us/q"
    );
    for r in [0.05f64, 0.1, 0.2, 0.4] {
        let d = Disc::new([0.5, 0.5].into(), r);
        let count = kd.region_count(&d);
        if count == 0 {
            continue;
        }
        let kd_cover = kd.region_cover(&d).len();
        let q: (iqs_spatial::Point<2>, f64) = ([0.5, 0.5].into(), r);
        let qt_cover = qt.index().approx_cover_circle(&q.0, r).len();
        let kd_us = time_ns(|| kd.sample_region_wr(&d, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let qt_us = time_ns(|| qt.sample_wr(&q, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        // Both must be uniform over the true disc: sanity-check supports.
        let truly = pts.iter().filter(|p| dist2(p, &q.0) <= r * r).count();
        assert_eq!(count, truly);
        println!("{r:>8} {count:>10} {kd_cover:>10} {kd_us:>13.1} {qt_cover:>10} {qt_us:>14.1}");
        csv.row(format_args!("disc_kd,{r},{count},{kd_cover},{kd_us:.2}"));
        csv.row(format_args!("disc_qt,{r},{count},{qt_cover},{qt_us:.2}"));
    }
    println!(
        "  claim: exact covers enumerate boundary leaves (bigger covers, no rejection); the\n\
         approximate route keeps covers small and pays expected-constant rejection instead.\n"
    );
}

// =====================================================================
// E15 — Direction 2 exploration: weighted range sampling in EM.
// =====================================================================
fn e15_em_weighted(_: Opts) {
    let csv = Csv::new("e15_em_weighted.csv", "s,weighted_ios,unweighted_ios");
    println!("E15  Direction 2 — weighted EM range sampling (open problem; amortized shape)");
    println!(
        "{:>8} {:>14} {:>20} {:>18}",
        "s", "weighted I/Os", "unweighted(WR) I/Os", "per-sample (wtd)"
    );
    let mut rng = StdRng::seed_from_u64(180);
    let b = 256usize;
    let machine = EmMachine::new(32 * b, b);
    let n = 1usize << 18;
    let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 9) as f64)).collect();
    let mut weighted = EmWeightedRangeSampler::new(&machine, pairs);
    let mut unweighted = EmRangeSampler::new(&machine, (0..n).map(|i| i as f64).collect());
    let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
    // Warm both pool hierarchies once.
    weighted.query(x, y, 1024, &mut rng);
    unweighted.query(x, y, 1024, &mut rng);
    for s in [256usize, 2048, 16_384] {
        let w_ios = ios(&machine, || weighted.query(x, y, s, &mut rng).unwrap());
        let u_ios = ios(&machine, || unweighted.query(x, y, s, &mut rng).unwrap());
        println!("{:>8} {:>14} {:>20} {:>18.4}", s, w_ios, u_ios, w_ios as f64 / s as f64);
        csv.row(format_args!("{s},{w_ios},{u_ios}"));
    }
    println!(
        "  claim (conjectured target): ~log + s/B amortized, same shape as the WR structure;\n\
         the worst case is the paper's open problem.\n"
    );
}

// =====================================================================
// E17 — the service layer under load (iqs-serve): closed-loop
// saturation, then an open-loop offered-QPS sweep measuring latency
// quantiles, admission rejections, and deadline enforcement.
// =====================================================================
fn e17_service(Opts { smoke }: Opts) {
    use iqs_serve::{IndexRegistry, Request, Server, ServerConfig};
    use std::time::{Duration, Instant};

    let csv = Csv::new(
        "e17_service.csv",
        "workers,offered_qps,achieved_qps,p50_us,p99_us,p999_us,rejected,deadline_missed",
    );
    let workers = std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(4);
    let n = 1usize << if smoke { 14 } else { 18 };
    let s = 64u32;
    let sat_secs = if smoke { 0.15 } else { 0.6 };
    let step_secs = if smoke { 0.15 } else { 0.8 };
    // The top fractions deliberately exceed capacity: the measured
    // closed-loop "saturation" includes per-call client overhead, so the
    // open-loop generator can offer somewhat past it before the bounded
    // queue starts refusing work.
    let fractions: &[f64] = if smoke { &[0.5, 2.5] } else { &[0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.5] };
    let deadline = Duration::from_millis(20);

    println!("E17 service layer — {workers} workers, n = {n}, s = {s} per request");
    let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 10) as f64)).collect();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", pairs).unwrap();
    let server = Server::start(
        registry,
        ServerConfig { workers, queue_capacity: 1024, seed: 17, ..ServerConfig::default() },
    );
    let request = || Request::SampleWr { index: "keys".into(), range: None, s };

    // Phase 1 — closed-loop saturation: 2x-workers clients calling
    // back-to-back give the service's maximum sustainable throughput.
    let before = server.metrics();
    let sat_run = closed_loop(
        2 * workers,
        sat_secs,
        false,
        || server.client(),
        |client| {
            client.call(request()).expect("closed-loop call");
        },
    );
    let sat = server.metrics().minus(&before).expect("later snapshot dominates");
    let sat_qps = sat_run.ops_per_sec();
    println!(
        "  saturation (closed loop, {} clients): {:.0} requests/s, p50 {:?}",
        2 * workers,
        sat_qps,
        sat.latency.quantile(0.5).unwrap_or_default()
    );

    // Phase 2 — open-loop sweep: a generator submits fire-and-forget
    // requests on a fixed schedule, with `origin` = the *scheduled*
    // arrival time, so queueing delay under overload is charged to the
    // service rather than silently self-throttled (no coordinated
    // omission). Each step is metered by diffing metrics snapshots.
    println!(
        "  {:>12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "offered q/s", "achieved", "p50", "p99", "p999", "rejected", "dl-miss"
    );
    let client = server.client();
    for &frac in fractions {
        let offered = (sat_qps * frac).max(1.0);
        let period = 1.0 / offered;
        let before = server.metrics();
        let start = Instant::now();
        let mut issued = 0u64;
        while start.elapsed().as_secs_f64() < step_secs {
            // Submit every request whose scheduled arrival has passed.
            let due = (start.elapsed().as_secs_f64() / period) as u64;
            while issued < due {
                let origin = start + Duration::from_secs_f64(issued as f64 * period);
                let _ = client.submit_nowait(request(), origin, Some(origin + deadline));
                issued += 1;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        // Let the backlog drain so the step's metrics are complete.
        let drain_start = Instant::now();
        while server.metrics().queue_depth > 0 && drain_start.elapsed().as_secs_f64() < 5.0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let delta = server.metrics().minus(&before).expect("later snapshot dominates");
        let achieved = delta.completed as f64 / elapsed;
        let [p50, p99, p999] = [0.50, 0.99, 0.999]
            .map(|q| delta.latency.quantile(q).map_or(f64::NAN, |d| d.as_secs_f64() * 1e6));
        let (rejected, missed) = (delta.rejected_overload, delta.deadline_missed);
        println!(
            "  {offered:>12.0} {achieved:>12.0} {p50:>9.0}u {p99:>9.0}u {p999:>9.0}u \
             {rejected:>9} {missed:>9}"
        );
        csv.row(format_args!(
            "{workers},{offered:.0},{achieved:.0},{p50:.1},{p99:.1},{p999:.1},{rejected},{missed}"
        ));
    }
    let total = server.shutdown();
    println!(
        "  totals: {} submitted, {} ok, {} rejected, {} deadline-missed\n  \
         claim: p99 <= 10x p50 at 0.8x saturation; past saturation the bounded queue\n  \
         rejects the excess and deadlines cap the tail instead of latency collapsing.\n",
        total.submitted, total.completed, total.rejected_overload, total.deadline_missed
    );
}

// =====================================================================
// E18 — the sharded tier (iqs-shard): closed-loop throughput vs shard
// count at a fixed client population, then a degraded-mode sweep (one
// replica down) measuring p50/p99 inflation under failover.
// =====================================================================
fn e18_sharded(Opts { smoke }: Opts) {
    use iqs_shard::{HealthPolicy, ShardConfig, ShardedService};
    use std::time::Duration;

    let sharded_scaling_csv =
        Csv::new("e18_sharded_scaling.csv", "shards,replicas,clients,qps,p50_us,p99_us");
    let degraded_csv = Csv::new("e18_degraded.csv", "mode,qps,p50_us,p99_us,failovers");
    let n = 1usize << if smoke { 13 } else { 16 };
    let s = 64u32;
    let clients = 4usize;
    let step_secs = if smoke { 0.15 } else { 0.6 };
    // One closed-loop step: queries/s, p50, p99. No read may fail or
    // degrade, healthy or with one replica down (R=2 covers the loss).
    let step = |svc: &ShardedService| {
        let run = closed_loop(
            clients,
            step_secs,
            true,
            || svc.client(),
            |client| {
                let drawn = client.sample_wr(None, s).expect("query must not fail");
                assert!(!drawn.degraded && drawn.missing == 0, "query must not degrade");
            },
        );
        (run.ops_per_sec(), quantile(&run.latencies, 0.50), quantile(&run.latencies, 0.99))
    };

    println!("E18 sharded tier — n = {n}, s = {s} per query, {clients} closed-loop clients");

    // Phase 1 — throughput vs shard count at fixed offered load. Every
    // replica runs its own single-worker pool, so on multi-core hosts
    // throughput can grow with S; this container exposes 1 vCPU, so the
    // interesting number is the flat overhead of the extra routing level.
    println!("  {:>7} {:>12} {:>10} {:>10}", "shards", "queries/s", "p50", "p99");
    for &shards in &[1usize, 2, 4, 8] {
        let svc = ShardedService::new(
            keyed_elements(0..n),
            ShardConfig { shards, replicas: 1, seed: 18, ..ShardConfig::default() },
        )
        .expect("cluster build");
        let (qps, p50, p99) = step(&svc);
        println!("  {shards:>7} {qps:>12.0} {p50:>10.1?} {p99:>10.1?}");
        sharded_scaling_csv.row(format_args!(
            "{shards},1,{clients},{qps:.0},{:.1},{:.1}",
            p50.as_secs_f64() * 1e6,
            p99.as_secs_f64() * 1e6
        ));
    }

    // Phase 2 — degraded mode: S=4, R=2, kill one replica mid-fleet and
    // compare latency quantiles against the healthy baseline.
    let svc = ShardedService::new(
        keyed_elements(0..n),
        ShardConfig {
            shards: 4,
            replicas: 2,
            seed: 18,
            scatter_deadline: Duration::from_millis(500),
            health: HealthPolicy { trip_threshold: 3, probe_cooldown: Duration::from_millis(25) },
            ..ShardConfig::default()
        },
    )
    .expect("cluster build");
    println!("  degraded-mode sweep (S=4, R=2, one replica down):");
    println!(
        "  {:>10} {:>12} {:>10} {:>10} {:>10}",
        "mode", "queries/s", "p50", "p99", "failovers"
    );
    for mode in ["healthy", "degraded"] {
        if mode == "degraded" {
            svc.fault_plan().kill(1, 0).expect("kill one replica");
        }
        let before = svc.metrics().router.failovers;
        let (qps, p50, p99) = step(&svc);
        let failovers = svc.metrics().router.failovers - before;
        println!("  {mode:>10} {qps:>12.0} {p50:>10.1?} {p99:>10.1?} {failovers:>10}");
        degraded_csv.row(format_args!(
            "{mode},{qps:.0},{:.1},{:.1},{failovers}",
            p50.as_secs_f64() * 1e6,
            p99.as_secs_f64() * 1e6
        ));
    }
    let m = svc.metrics();
    println!(
        "  totals: {} queries, {} legs, {} failovers, {} trips, {} degraded\n  \
         claim: zero failed/degraded reads with one replica down per shard; p99\n  \
         inflation bounded by the breaker (a few tripped attempts, then rerouting).\n",
        m.router.queries,
        m.router.legs,
        m.router.failovers,
        m.router.trips,
        m.router.degraded_queries
    );
}

// =====================================================================
// E19 — observability overhead (iqs-obs): the cost of the emit site
// with no subscriber installed, and the end-to-end price of full
// request tracing on the serve and shard tiers, measured A/B with
// interleaved rounds so drift hits both modes equally.
// =====================================================================
fn e19_observability(Opts { smoke }: Opts) {
    use iqs_obs::recorder::{self, Ctx, Phase};
    use iqs_serve::{IndexRegistry, Request, Server, ServerConfig};
    use iqs_shard::{ShardConfig, ShardedService};
    use iqs_testkit::ClockHandle;

    let emit_site_csv = Csv::new("e19_emit_site.csv", "mode,ns_per_emit");
    let obs_overhead_csv = Csv::new("e19_obs_overhead.csv", "tier,off_qps,traced_qps,overhead_pct");
    let workers = std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(4);
    let n = 1usize << if smoke { 13 } else { 17 };
    let s = 64u32;
    let trial_secs = if smoke { 0.08 } else { 0.4 };
    let rounds = if smoke { 2 } else { 7 };

    println!("E19 observability overhead — {workers} workers, n = {n}, s = {s} per query");

    // Phase 1 — the emit site itself. With no subscriber the hook is a
    // single relaxed atomic load and an early return; with one installed
    // a traced emit takes a clock read plus six ring-slot stores.
    recorder::disable();
    let ctx = Ctx::query(1);
    let op = || recorder::emit(std::hint::black_box(ctx), Phase::RngCost, 1, 2);
    let disabled_ns = time_ns(op, 1 << 20, 9);
    recorder::install(&ClockHandle::default(), 1 << 12);
    let traced_ns = time_ns(op, 1 << 20, 9);
    recorder::disable();
    let _ = recorder::drain();
    println!("  emit site: disabled {disabled_ns:.2} ns/call, traced {traced_ns:.2} ns/call");
    emit_site_csv.row(format_args!("disabled,{disabled_ns:.3}\ntraced,{traced_ns:.3}"));

    // Phases 2 and 3 — closed-loop saturation, A/B: recorder off vs
    // installed. Serve tier: plain `call` vs `call_traced`, every request
    // recording its full worker-side story. Shard tier: the router traces
    // every query once a subscriber is installed (plan, split, legs,
    // cost, slow log), so the A/B is simply installed vs not.
    let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 10) as f64)).collect();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", pairs).unwrap();
    let server = Server::start(
        registry,
        ServerConfig { workers, queue_capacity: 1024, seed: 19, ..ServerConfig::default() },
    );
    let request = || Request::SampleWr { index: "keys".into(), range: None, s };
    let serve_trial = |traced: bool| -> f64 {
        closed_loop(
            2 * workers,
            trial_secs,
            false,
            || server.client(),
            |client| {
                if traced {
                    let (_, result) = client.call_traced(request());
                    result.expect("closed-loop call");
                } else {
                    client.call(request()).expect("closed-loop call");
                }
            },
        )
        .ops_per_sec()
    };
    let svc = ShardedService::new(
        keyed_elements(0..n),
        ShardConfig { shards: 3, replicas: 2, seed: 19, ..ShardConfig::default() },
    )
    .expect("cluster build");
    let shard_trial = |_traced: bool| -> f64 {
        closed_loop(
            4,
            trial_secs,
            false,
            || svc.client(),
            |client| {
                let drawn = client.sample_wr(None, s).expect("healthy cluster");
                assert!(!drawn.degraded);
            },
        )
        .ops_per_sec()
    };
    let tiers: [(&str, &dyn Fn(bool) -> f64); 2] =
        [("serve", &serve_trial), ("shard", &shard_trial)];
    for (tier, trial) in tiers {
        let untraced = &mut || {
            recorder::disable();
            trial(false)
        };
        let traced = &mut || {
            recorder::install(&ClockHandle::default(), 1 << 14);
            let qps = trial(true);
            recorder::disable();
            let _ = recorder::drain();
            qps
        };
        let [off, on] = interleaved_medians(rounds, [untraced, traced]);
        let pct = (off - on) / off * 100.0;
        println!(
            "  {tier} tier: {off:.0} q/s untraced, {on:.0} q/s fully traced ({pct:+.1}% cost)"
        );
        obs_overhead_csv.row(format_args!("{tier},{off:.0},{on:.0},{pct:.2}"));
    }
    let _ = server.shutdown();
    println!(
        "  claim: a disabled emit site costs ~a nanosecond, so across the ~dozen sites a\n  \
         query crosses the uninstalled recorder is far under 3% of any query's latency.\n  \
         Full tracing is NOT free on microsecond-scale queries — expect a double-digit\n  \
         percent toll on a single-vCPU host, dominated by clock reads — which is why\n  \
         the subscriber is opt-in and off by default.\n"
    );
}

// =====================================================================
// E20 — memory wall: the PR6 software-pipelined batch kernels (word
// pre-generation + K-wide interleaved window + explicit prefetch) vs
// the retained pre-PR6 kernels (`sample_wr_batch_reference`), which
// stay in the binary precisely to serve as this in-situ baseline. Both
// sides draw bit-identical sequences (tests/pipeline_replay.rs), so the
// ratio is pure memory-schedule, not algorithm.
// =====================================================================
fn e20_memory_wall(Opts { smoke }: Opts) {
    use iqs_alias::pipeline::{TILE, WINDOW};

    let memory_wall_csv =
        Csv::new("e20_memory_wall.csv", "structure,s,ref_ns_per_draw,pipe_ns_per_draw,speedup");
    let lookahead_csv = Csv::new("e20_lookahead.csv", "k,ns_per_resolve");
    // Smoke runs at a cache-resident size: it checks wiring, not the
    // speedup claim.
    // E20_LOG_N overrides log2(n) to chase the wall on hosts with very
    // large last-level caches (the default 2^20 build is L3-resident on
    // a 256 MiB-L3 part, which mutes the effect being measured).
    let default_log_n = if smoke { 15 } else { 20 };
    let log_n =
        std::env::var("E20_LOG_N").ok().and_then(|v| v.parse().ok()).unwrap_or(default_log_n);
    let n = 1usize << log_n;
    let target_draws = 1usize << if smoke { 15 } else { 21 };
    let runs = if smoke { 3 } else { 7 };
    println!("E20  memory wall — pipelined batch kernels vs retained reference kernels");
    println!("     n = {n} (Zipf), query = [2%, 98%] of the domain, K = {WINDOW}, tile = {TILE}");
    println!(
        "{:>10} {:>6} {:>13} {:>13} {:>9}",
        "structure", "s", "ref ns/draw", "pipe ns/draw", "speedup"
    );

    let pairs = keyed_weights(n, Weights::Zipf, 20);
    let tree = TreeSamplingRange::new(pairs.clone()).unwrap();
    let lemma2 = AliasAugmentedRange::new(pairs.clone()).unwrap();
    let thm3 = ChunkedRange::new(pairs).unwrap();
    let (x, y) = (0.02 * n as f64, 0.98 * n as f64);

    let bench = |name: &str,
                 pipe: &mut dyn FnMut(&mut StdRng, &mut [u32]),
                 reference: &mut dyn FnMut(&mut StdRng, &mut [u32])| {
        for s in [16usize, 256, 4096] {
            let iters = (target_draws / s).max(1);
            let mut out = vec![0u32; s];
            let mut rng = StdRng::seed_from_u64(0xE20);
            pipe(&mut rng, &mut out);
            reference(&mut rng, &mut out);
            let ref_ns = time_ns(|| reference(&mut rng, &mut out), iters, runs) / s as f64;
            let pipe_ns = time_ns(|| pipe(&mut rng, &mut out), iters, runs) / s as f64;
            std::hint::black_box(&out);
            let speedup = ref_ns / pipe_ns;
            println!("{name:>10} {s:>6} {ref_ns:>13.1} {pipe_ns:>13.1} {speedup:>8.2}x");
            memory_wall_csv.row(format_args!("{name},{s},{ref_ns:.2},{pipe_ns:.2},{speedup:.3}"));
        }
    };
    bench("thm3", &mut |r, o| thm3.sample_wr_batch(x, y, r, o).unwrap(), &mut |r, o| {
        thm3.sample_wr_batch_reference(x, y, r, o).unwrap()
    });
    bench("lemma2", &mut |r, o| lemma2.sample_wr_batch(x, y, r, o).unwrap(), &mut |r, o| {
        lemma2.sample_wr_batch_reference(x, y, r, o).unwrap()
    });
    bench("tree", &mut |r, o| tree.sample_wr_batch(x, y, r, o).unwrap(), &mut |r, o| {
        tree.sample_wr_batch_reference(x, y, r, o).unwrap()
    });

    // Lookahead sweep: the bare alias gather (decode already done, rows
    // resolved in order) at explicit prefetch depths k, isolating the
    // WINDOW = 8 choice from everything else the kernels do. k = 0 is
    // the no-prefetch strawman; past the sweet spot extra depth only
    // evicts useful lines.
    let weights: Vec<f64> = keyed_weights(n, Weights::Zipf, 21).into_iter().map(|p| p.1).collect();
    let t = AliasTable::new(&weights).unwrap();
    let s = n; // touch the whole table so the working set defeats cache
    let mut words = vec![0u64; s];
    let mut cols = vec![0u32; s];
    let mut coins = vec![0f64; s];
    let mut out = vec![0u32; s];
    let mut rng = StdRng::seed_from_u64(0xE20C);
    for w in &mut words {
        *w = rng.random();
    }
    t.decode_many(&words, &mut cols, &mut coins);
    println!("\n  prefetch-lookahead sweep (bare alias gather, {s} random rows of {n}):");
    println!("  {:>4} {:>13}", "k", "ns/resolve");
    for k in [0usize, 1, 2, 4, 8, 16, 32] {
        let ns = time_ns(
            || {
                for i in 0..s {
                    if i + k < s {
                        t.prefetch_row(cols[i + k] as usize);
                    }
                    out[i] = t.resolve(cols[i] as usize, coins[i]) as u32;
                }
            },
            1,
            runs,
        ) / s as f64;
        std::hint::black_box(&out);
        println!("  {k:>4} {ns:>13.2}");
        lookahead_csv.row(format_args!("{k},{ns:.3}"));
    }
    println!(
        "\n  claim: once s clears the window the fixed-words-per-draw kernels (Theorem 3\n  \
         middle, Lemma 2) should gain >=2x from overlapping their dependent row loads;\n  \
         the tree path, whose descent depth is data-dependent, gets only the bounded\n  \
         lookahead (child-pair + draw-boundary peek) and a correspondingly smaller win.\n"
    );
}

/// Replica-process mode for E21: one `iqs-serve` node serving the full
/// keyspace behind a TCP frame server, announcing to the parent's
/// registry on a cadence, exiting when the parent closes our stdin.
fn e21_replica_node(args: &[String]) {
    use iqs_net::{announce_once, Announce, ReplicaServer, TcpConfig, TcpServer, TcpTransport};
    use iqs_serve::{IndexRegistry, Server, ServerConfig};
    use iqs_shard::SHARD_INDEX;
    use iqs_testkit::ClockHandle;
    use std::io::Read;
    use std::sync::Arc;
    use std::time::Duration;

    let registry_addr = args[0].clone();
    let n: usize = args[1].parse().expect("element count");
    let seed: u64 = args[2].parse().expect("seed");
    let mut indexes = IndexRegistry::new();
    indexes.register_range_keyed(SHARD_INDEX, keyed_elements(0..n)).expect("valid slice");
    let server =
        Server::start(indexes, ServerConfig { workers: 2, seed, ..ServerConfig::default() });
    let total = server.registry().total_weight(SHARD_INDEX).expect("range index");
    let clock = ClockHandle::real();
    let listener = TcpServer::spawn(
        "127.0.0.1:0",
        Arc::new(ReplicaServer::new(server.client(), clock.clone())),
        iqs_net::frame::DEFAULT_MAX_PAYLOAD,
    )
    .expect("bind replica listener");
    let announce = Announce {
        addr: listener.addr(),
        lo_key: 0.0,
        hi_key: (n - 1) as f64,
        total_weight: total,
        epoch: 1,
        ttl_ms: 3_000,
    };
    let _announcer = std::thread::spawn(move || {
        let transport = TcpTransport::new(TcpConfig::default());
        loop {
            let deadline = clock.now() + Duration::from_secs(1);
            announce_once(&transport, &registry_addr, &announce, deadline).ok();
            std::thread::sleep(Duration::from_millis(1_000));
        }
    });
    let mut sink = Vec::new();
    std::io::stdin().read_to_end(&mut sink).ok();
    std::process::exit(0);
}

fn e21_net(Opts { smoke }: Opts) {
    use iqs_net::{
        shard_specs, RegistryHandler, ServiceRegistry, TcpConfig, TcpServer, TcpTransport,
        Transport,
    };
    use iqs_shard::{ShardConfig, ShardedService};
    use iqs_testkit::ClockHandle;
    use std::process::{Command, Stdio};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let csv = Csv::new("e21_net.csv", "setup,procs,clients,s,samples_per_sec");
    let n = 1usize << if smoke { 12 } else { 14 };
    let s = 64u32;
    let clients = 4usize;
    let secs = if smoke { 0.2 } else { 1.0 };

    println!("E21  networked sampling — loopback-TCP replica processes vs in-process");
    println!("     n = {n}, s = {s}, {clients} closed-loop clients, {secs:.1} s per setup");
    println!("{:>12} {:>6} {:>14} {:>9}", "setup", "procs", "samples/s", "vs local");

    // Closed-loop rate in drawn samples per second.
    let measure = |svc: &ShardedService| {
        let run = closed_loop(
            clients,
            secs,
            false,
            || svc.client(),
            |client| {
                client.sample_wr(None, s).expect("closed-loop read");
            },
        );
        run.ops_per_sec() * f64::from(s)
    };

    // Baseline: the same single-shard topology in-process.
    let local = ShardedService::new(
        keyed_elements(0..n),
        ShardConfig {
            shards: 1,
            replicas: 1,
            workers_per_replica: 2,
            seed: 21,
            ..ShardConfig::default()
        },
    )
    .expect("local cluster");
    let local_rate = measure(&local);
    println!("{:>12} {:>6} {:>14.0} {:>8.2}x", "in-process", 0, local_rate, 1.0);
    csv.row(format_args!("local,0,{clients},{s},{local_rate:.0}"));

    // Remote: P replica processes serving the same single shard over
    // loopback TCP; the router round-robins queries across them.
    let mut best_remote = 0.0f64;
    for &procs in &[1usize, 2, 4] {
        let clock = ClockHandle::real();
        let registry = Arc::new(ServiceRegistry::new(clock.clone()));
        let registry_server = TcpServer::spawn(
            "127.0.0.1:0",
            Arc::new(RegistryHandler::new(Arc::clone(&registry))),
            iqs_net::frame::DEFAULT_MAX_PAYLOAD,
        )
        .expect("bind registry listener");
        let registry_addr = registry_server.addr();
        let exe = std::env::current_exe().expect("own path");
        let mut children: Vec<_> = (0..procs)
            .map(|ri| {
                Command::new(&exe)
                    .args([
                        "replica-node",
                        &registry_addr,
                        &n.to_string(),
                        &(0x2100 + ri as u64).to_string(),
                    ])
                    .stdin(Stdio::piped())
                    .stdout(Stdio::null())
                    .spawn()
                    .expect("spawn replica process")
            })
            .collect();
        let t0 = Instant::now();
        while registry.live().len() < procs {
            assert!(t0.elapsed() < Duration::from_secs(20), "replicas failed to announce");
            std::thread::sleep(Duration::from_millis(50));
        }
        let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new(TcpConfig::default()));
        let svc = ShardedService::from_links(
            shard_specs(&registry, &transport),
            ShardConfig {
                scatter_deadline: Duration::from_secs(2),
                seed: 21,
                ..ShardConfig::default()
            },
        )
        .expect("remote topology");
        let rate = measure(&svc);
        best_remote = best_remote.max(rate);
        println!("{:>12} {:>6} {:>14.0} {:>8.2}x", "loopback-tcp", procs, rate, rate / local_rate);
        csv.row(format_args!("tcp,{procs},{clients},{s},{rate:.0}"));
        drop(svc);
        for child in &mut children {
            drop(child.stdin.take());
        }
        for mut child in children {
            child.wait().expect("reap replica process");
        }
    }

    println!(
        "\n  E21 claim: one loopback round trip (JSON framing + two socket hops + the\n  \
         replica's own queue) bounds per-query cost, so small-s remote sampling pays\n  \
         ~{:.0}x over in-process calls; adding replica processes buys the difference\n  \
         back through parallel service of concurrent clients (best remote {:.2}x of\n  \
         local here). The distribution is unchanged either way — the chi-square gate\n  \
         in `multi_process_cluster` certifies the networked draw.\n",
        (local_rate / best_remote).max(1.0),
        best_remote / local_rate,
    );
}

// =====================================================================
// E22 — tiered hot/cold serving: samples/s vs cache-hit rate vs budget.
// =====================================================================
fn e22_tiered(Opts { smoke }: Opts) {
    use iqs_em::EvictionPolicy;
    use iqs_obs::Ctx;
    use iqs_tier::{ShardTier, TierConfig, TieredIndex};
    use std::time::Instant;

    let csv = Csv::new(
        "e22_tiered.csv",
        "setup,budget_blocks,hot_shards,queries,s,samples_per_sec,hit_rate,reads,writes",
    );
    let n = 1usize << if smoke { 13 } else { 16 };
    let shards = 8usize;
    let per = n / shards;
    let s = 64usize;
    let queries = if smoke { 400 } else { 4000 };
    let block_words = 256usize;

    println!("E22  tiered hot/cold serving — samples/s vs cache-hit rate vs block budget");
    println!("     n = {n}, {shards} shards, s = {s}, {queries} skewed queries (80% on 2 shards)");
    println!(
        "{:>14} {:>8} {:>8} {:>12} {:>9} {:>8} {:>8}",
        "setup", "budget", "hot", "samples/s", "hit rate", "reads", "writes"
    );

    // Skewed closed-loop workload, fixed ahead of time: 80% of queries
    // land on shards 0-1, the rest spread uniformly; each query covers
    // the middle half of its shard so boundary chunks stay in play.
    let mut wrng = StdRng::seed_from_u64(22);
    let workload: Vec<(f64, f64)> = (0..queries)
        .map(|_| {
            let k = if wrng.random::<f64>() < 0.8 {
                usize::from(wrng.random::<f64>() < 0.5)
            } else {
                (wrng.random::<f64>() * shards as f64) as usize % shards
            };
            ((k * per + per / 4) as f64, (k * per + 3 * per / 4) as f64)
        })
        .collect();

    let run = |setup: &str, budget: usize, placement: ShardTier, hot_budget: usize| {
        let mut b = TieredIndex::builder(TierConfig {
            block_words,
            cold_cache_blocks: budget,
            policy: EvictionPolicy::SegmentedLru,
            hot_element_budget: hot_budget,
            promote_accesses: 64,
        });
        for k in 0..shards {
            b = b.add_shard(&format!("s{k}"), keyed_elements(k * per..(k + 1) * per), placement);
        }
        let idx = b.build().expect("build tiered index");
        let mut rng = StdRng::seed_from_u64(220);
        // Warm up: a quarter of the workload, then one maintenance pass
        // so the access counters place the busy shards.
        for &(x, y) in &workload[..queries / 4] {
            idx.sample_wr(Some((x, y)), s, &mut rng, Ctx::none()).expect("warmup draw");
        }
        idx.maintain();
        let before = idx.io_stats();
        let start = Instant::now();
        for &(x, y) in &workload {
            idx.sample_wr(Some((x, y)), s, &mut rng, Ctx::none()).expect("measured draw");
        }
        let dt = start.elapsed().as_secs_f64();
        let io = idx.io_stats().minus(&before).expect("counters are monotone");
        let rate = (queries * s) as f64 / dt;
        let hot_now = idx.tiers().iter().filter(|(_, t)| *t == ShardTier::Hot).count();
        let (hit, reads, writes) = (io.hit_rate(), io.reads, io.writes);
        println!(
            "{setup:>14} {budget:>8} {hot_now:>8} {rate:>12.0} {:>8.1}% {reads:>8} {writes:>8}",
            hit * 100.0
        );
        csv.row(format_args!(
            "{setup},{budget},{hot_now},{queries},{s},{rate:.0},{hit:.4},{reads},{writes}"
        ));
    };

    // All-hot baseline (budget irrelevant), all-cold at three budgets,
    // and the tiered middle: start cold, let maintenance promote the
    // two busy shards into a 2-shard RAM budget.
    run("hot", 4, ShardTier::Hot, n);
    for &budget in &[8usize, 32, 128] {
        run("cold", budget, ShardTier::Cold, 0);
    }
    for &budget in &[8usize, 32, 128] {
        run("tiered", budget, ShardTier::Cold, 2 * per);
    }

    println!(
        "\n  E22 claim: the hot tier serves at RAM speed with zero I/O; the cold tier's\n  \
         throughput tracks its cache-hit rate, which the block budget controls; the\n  \
         tiered setup recovers most of the hot tier's rate on a skewed workload by\n  \
         promoting the two busy shards while the block cache absorbs the cold tail.\n  \
         Caveats: single-threaded closed loop on a 1-vCPU runner, and the EM machine\n  \
         simulates block transfers in RAM, so cold-path costs understate a real disk.\n"
    );
}

// =====================================================================
// E23 — autopilot: the chaos scenario matrix, controller on vs off.
// =====================================================================
fn e23_autopilot(Opts { smoke }: Opts) {
    use iqs_bench::chaos::{run_matrix, CellReport, ChaosConfig};
    use iqs_testkit::{ClockHandle, Scenario};

    let csv = Csv::new(
        "e23_autopilot.csv",
        "scenario,controller,queries,failed,degraded,missing,p50_ns,p99_ns,splits,merges,rebuilds,final_shards",
    );
    // Smoke runs the same matrix with truncated phases.
    let mut scenarios = Scenario::matrix();
    if smoke {
        for sc in &mut scenarios {
            for phase in &mut sc.phases {
                phase.ticks = phase.ticks.min(3);
                phase.queries_per_tick = phase.queries_per_tick.min(24);
            }
        }
    }

    println!("E23  autopilot — chaos scenario matrix, controller on vs off (A/B, one seed)");
    println!(
        "     4 shards x 1 replica over 512 weighted keys, s = 8, 25 ms scatter deadline{}",
        if smoke { " (smoke: truncated phases)" } else { "" }
    );
    println!(
        "{:>18} {:>4} {:>7} {:>7} {:>9} {:>8} {:>10} {:>10} {:>13} {:>7}",
        "scenario",
        "ctl",
        "queries",
        "failed",
        "degraded",
        "missing",
        "p50 us",
        "p99 us",
        "spl/mrg/rbd",
        "shards"
    );

    // The workload script is a pure function of this seed; on the real
    // clock only the *measured latencies* pick up wall-time noise.
    let cfg = ChaosConfig::on_clock(ClockHandle::real(), 0x1905_2023);
    let pairs = run_matrix(&scenarios, &cfg).expect("chaos matrix runs");
    for (on, off) in &pairs {
        for cell in [on, off] {
            let CellReport { scenario, controller, queries, failed, degraded, missing, .. } = cell;
            let CellReport { p50_ns, p99_ns, splits, merges, rebuilds, final_shards, .. } = cell;
            let ctl = if *controller { "on" } else { "off" };
            let (p50_us, p99_us) = (*p50_ns as f64 / 1e3, *p99_ns as f64 / 1e3);
            println!(
                "{scenario:>18} {ctl:>4} {queries:>7} {failed:>7} {degraded:>9} {missing:>8} \
                 {p50_us:>10.1} {p99_us:>10.1} {:>13} {final_shards:>7}",
                format!("{splits}/{merges}/{rebuilds}")
            );
            csv.row(format_args!(
                "{scenario},{controller},{queries},{failed},{degraded},{missing},{p50_ns},{p99_ns},\
                 {splits},{merges},{rebuilds},{final_shards}"
            ));
        }
        assert_eq!(on.failed + off.failed, 0, "the matrix's availability contract");
    }
    if let Some((on, off)) = pairs.iter().find(|(on, _)| on.scenario == "replica_kill") {
        println!(
            "\n  replica_kill A/B: degraded {} -> {} ({}x), p99 {:.1}us -> {:.1}us",
            off.degraded,
            on.degraded,
            off.degraded.checked_div(on.degraded).unwrap_or(off.degraded),
            off.p99_ns as f64 / 1e3,
            on.p99_ns as f64 / 1e3
        );
    }
    println!(
        "\n  E23 claim: with the controller on, the same scripted workload (same seed, same\n  \
         faults) sees fewer degraded reads and a lower p99 than with it off: sustained\n  \
         hotspots are split, cold shards re-merged, and the zombie replica (40 ms delay\n  \
         vs a 25 ms scatter deadline) is rebuilt around within one control tick instead\n  \
         of taxing every touched query for the rest of the run. Zero reads fail in any\n  \
         cell, either arm. Caveats: 1-vCPU runner — wall-clock latencies are noisy and\n  \
         the closed-loop driver understates contention; the deterministic form of this\n  \
         matrix (virtual clock, byte-identical A/B) runs in CI as chaos_matrix.rs.\n"
    );
}

// =====================================================================
// E24 — telemetry plane: shipping overhead A/B + burn detection latency.
// =====================================================================
fn e24_telemetry_slo(Opts { smoke }: Opts) {
    use iqs_net::{
        announce_once, shard_specs, ship_telemetry, Announce, RegistryHandler, ReplicaServer,
        ServiceRegistry, SimNet, TelemetryHandler,
    };
    use iqs_obs::{recorder, Phase, Record};
    use iqs_serve::{HistogramSnapshot, IndexRegistry, Server, ServerConfig};
    use iqs_shard::{ShardConfig, ShardedService, SHARD_INDEX};
    use iqs_slo::{ClusterTelemetry, Objective, SloEngine, SloKey, TelemetryShipper};
    use iqs_testkit::VirtualClock;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    let telemetry_csv =
        Csv::new("e24_telemetry.csv", "arm,rounds,queries_per_round,s,ns_per_query,batches");
    let burn_detection_csv = Csv::new("e24_burn_detection.csv", "bad_pct,per_tick,ticks_to_alert");
    let rounds = if smoke { 8 } else { 120 };
    let queries_per_round = if smoke { 10 } else { 50 };
    let s = 16u32;
    let cuts: [(usize, usize); 3] = [(0, 341), (341, 682), (682, 1024)];
    let elements = keyed_elements(0..1024);

    println!("E24  telemetry plane — shipping overhead A/B + burn detection latency");
    println!(
        "     3 remote shards over SimNet, {rounds} rounds x {queries_per_round} queries, s = {s}"
    );

    // Replica-side phases that reach the router only via telemetry.
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

    // Part A — the same scripted workload under three regimes: flight
    // recorder disabled ("off"), recorder on with a per-round drain but
    // nothing shipped ("record"), and recorder on plus a per-round
    // fold-and-ship of every replica's records and metric diffs
    // ("ship"). The workload is deterministic on the virtual clock;
    // only the wall time differs — the off/record gap prices the
    // recorder, the record/ship gap prices the telemetry plane itself.
    #[derive(Clone, Copy, PartialEq)]
    enum Arm {
        Off,
        Record,
        Ship,
    }
    // Telemetry batches each arm must deliver to the collector.
    let batches = |mode: Arm| if mode == Arm::Ship { (rounds * cuts.len()) as u64 } else { 0 };
    let arm = |mode: Arm| -> f64 {
        let clock = VirtualClock::new();
        recorder::install(&clock.handle(), 1 << 16);
        if mode == Arm::Off {
            recorder::disable();
        }
        let net = SimNet::new(clock.handle());
        let registry = Arc::new(ServiceRegistry::new(clock.handle()));
        net.bind("sim://registry", Arc::new(RegistryHandler::new(Arc::clone(&registry))));
        let collector = Arc::new(Mutex::new(ClusterTelemetry::new(1 << 16).expect("config")));
        net.bind("sim://telemetry", Arc::new(TelemetryHandler::new(Arc::clone(&collector))));
        let transport = net.transport();
        let mut servers = Vec::new();
        for (si, &(a, b)) in cuts.iter().enumerate() {
            let mut indexes = IndexRegistry::new();
            indexes.register_range_keyed(SHARD_INDEX, elements[a..b].to_vec()).unwrap();
            let server = Server::start(
                indexes,
                ServerConfig {
                    workers: 1,
                    queue_capacity: 256,
                    seed: 24 + si as u64,
                    clock: clock.handle(),
                    ..ServerConfig::default()
                },
            );
            let total = server.registry().total_weight(SHARD_INDEX).unwrap();
            let addr = format!("sim://s{si}r0");
            net.bind(&addr, Arc::new(ReplicaServer::new(server.client(), clock.handle())));
            announce_once(
                &*transport,
                "sim://registry",
                &Announce {
                    addr,
                    lo_key: a as f64,
                    hi_key: (b - 1) as f64,
                    total_weight: total,
                    epoch: 1,
                    ttl_ms: 3_600_000,
                },
                clock.handle().now() + Duration::from_secs(1),
            )
            .expect("announce");
            servers.push(server);
        }
        let svc = ShardedService::from_links(
            shard_specs(&registry, &transport),
            ShardConfig { seed: 240, clock: clock.handle(), ..ShardConfig::default() },
        )
        .expect("remote topology");
        let mut shippers: Vec<TelemetryShipper> = (0..cuts.len())
            .map(|si| {
                TelemetryShipper::new(&format!("sim://s{si}r0"), si as u32, 0, 1 << 14).unwrap()
            })
            .collect();
        let mut client = svc.client();
        let start = Instant::now();
        for _ in 0..rounds {
            for _ in 0..queries_per_round {
                let drawn = client.sample_wr(None, s).expect("read");
                assert_eq!(drawn.missing, 0);
            }
            clock.advance(Duration::from_secs(1));
            if mode != Arm::Off {
                let drained = recorder::drain();
                if mode == Arm::Ship {
                    for (si, shipper) in shippers.iter_mut().enumerate() {
                        let mine: Vec<Record> = drained
                            .iter()
                            .filter(|r| ships(r) && r.shard() == Some(si as u32))
                            .copied()
                            .collect();
                        shipper.absorb(&mine);
                        let batch = shipper.next_batch(&servers[si].metrics()).expect("monotone");
                        ship_telemetry(
                            &*transport,
                            "sim://telemetry",
                            &batch,
                            clock.handle().now() + Duration::from_secs(1),
                        )
                        .expect("collector reachable");
                        shipper.commit();
                    }
                }
            }
        }
        let ns_per_query = start.elapsed().as_nanos() as f64 / (rounds * queries_per_round) as f64;
        recorder::disable();
        assert_eq!(collector.lock().unwrap().stats().batches, batches(mode));
        ns_per_query
    };
    // One round: each arm's wall time is a single pass of the script.
    let [off_ns, rec_ns, ship_ns] = interleaved_medians(
        1,
        [&mut || arm(Arm::Off), &mut || arm(Arm::Record), &mut || arm(Arm::Ship)],
    );
    println!("\n  per-query wall clock (whole loop incl. drain/fold/encode/ship):");
    println!("{:>10} {:>14} {:>10} {:>12}", "telemetry", "ns/query", "batches", "vs off");
    for (name, ns, mode) in
        [("off", off_ns, Arm::Off), ("record", rec_ns, Arm::Record), ("ship", ship_ns, Arm::Ship)]
    {
        let (batches, pct) = (batches(mode), (ns / off_ns - 1.0) * 100.0);
        println!("{name:>10} {ns:>14.0} {batches:>10} {pct:>+11.1}%");
        telemetry_csv
            .row(format_args!("{name},{rounds},{queries_per_round},{s},{ns:.0},{batches}"));
    }
    println!(
        "  recorder costs {:+.1}%; shipping itself adds {:+.1}% on top",
        (rec_ns / off_ns - 1.0) * 100.0,
        (ship_ns / rec_ns - 1.0) * 100.0
    );

    // Part B — burn detection latency: a healthy stream turns bad at a
    // known tick; how many virtual-clock ticks until the multi-window
    // engine alerts? Deterministic — exact bad counts, no RNG.
    println!("\n  burn detection latency (objective: 1 ms at 90%, fast 2s/x2.0, slow 6s/x1.0):");
    println!("{:>12} {:>16}", "bad fraction", "ticks to alert");
    let regress_tick = 6usize;
    let per_tick = 1000usize;
    for bad_pct in [2usize, 10, 25, 50] {
        let vc = VirtualClock::new();
        let mut engine = SloEngine::new(&vc.handle());
        let key = SloKey::Shard(0);
        engine
            .set_objective(
                key.clone(),
                Objective {
                    threshold: Duration::from_millis(1),
                    target: 0.9,
                    fast_window: Duration::from_secs(2),
                    slow_window: Duration::from_secs(6),
                    fast_burn: 2.0,
                    slow_burn: 1.0,
                },
            )
            .unwrap();
        let mut cumulative = HistogramSnapshot::default();
        let good = iqs_obs::log2_bucket(100_000); // 0.1 ms: under threshold
        let bad = iqs_obs::log2_bucket(5_000_000); // 5 ms: over threshold
        let mut detected = None;
        for tick in 0..30usize {
            let bad_n = if tick >= regress_tick { per_tick * bad_pct / 100 } else { 0 };
            cumulative.buckets[good] += (per_tick - bad_n) as u64;
            cumulative.buckets[bad] += bad_n as u64;
            engine.observe(&key, cumulative);
            if engine.evaluate().unwrap().shard_status(0).unwrap().alerting {
                detected = Some(tick - regress_tick);
                break;
            }
            vc.advance(Duration::from_secs(1));
        }
        let shown = detected.map_or("never".into(), |t| format!("{t}"));
        println!("{:>11}% {:>16}", bad_pct, shown);
        burn_detection_csv
            .row(format_args!("{bad_pct},{per_tick},{}", detected.map_or(-1, |t| t as i64)));
    }
    println!(
        "\n  E24 claim: against ~24 us in-process scatter queries, the flight recorder costs\n  \
         ~40% and the per-round fold/encode/ship path ~25% more — roughly 10 us per query\n  \
         each, a fixed CPU cost that would be noise against a real network round-trip but\n  \
         is an honest double-digit tax on this function-call fabric. Detection latency is\n  \
         budget-relative: a 2% bad fraction stays inside the 10% error budget and never\n  \
         alerts, 10% burns at exactly 1x (under the 2x fast line) and also never alerts,\n  \
         while fractions past the fast-burn line alert 1-2 virtual-clock ticks after the\n  \
         regression. Caveats: 1-vCPU runner wall times are noisy run to run; the\n  \
         detection table is exact (virtual clock, no RNG) and replays byte-identically.\n"
    );
}
