//! The registered `ctl_rebalance_chi_square` gate: autonomous splits
//! and merges never disturb the sampling marginals. (The A/B chaos
//! matrix lives with its driver in `iqs-bench`.)

use std::time::Duration;

use iqs_ctl::{Controller, CtlConfig};
use iqs_shard::{ShardConfig, ShardedService};
use iqs_stats::chisq::{chi_square_gof, weight_probs};
use iqs_testkit::{gate, Trial, VirtualClock};

/// Registered gate: the sampling *marginals* stay exactly `w(e)/W`
/// while the controller splits and merges shards under live load. The
/// draw interleaves hotspot load (which drives the controller to act)
/// with full-range probe samples whose id histogram is judged against
/// the weight distribution — across every intermediate topology.
#[test]
fn ctl_rebalance_chi_square() {
    gate::run("ctl_rebalance_chi_square", |seed, scale| {
        let n = 256usize;
        let elements: Vec<(u64, f64, f64)> =
            (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 7) as f64)).collect();
        let weights: Vec<f64> = elements.iter().map(|&(_, _, w)| w).collect();
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let svc = ShardedService::new(
            elements,
            ShardConfig {
                shards: 2,
                replicas: 1,
                seed,
                clock: clock.clone(),
                ..ShardConfig::default()
            },
        )
        .expect("valid build");
        let mut ctl = Controller::new(
            svc.clone(),
            clock,
            CtlConfig {
                tick: Duration::from_millis(10),
                split_share: 0.45,
                merge_share: 0.3,
                hot_ticks: 1,
                cold_ticks: 2,
                min_shards: 1,
                max_shards: 6,
                min_interval_queries: 8,
                burn_ticks: 2,
            },
        )
        .expect("valid config");
        ctl.tick().expect("baseline tick");

        let mut client = svc.client();
        let mut counts = vec![0u64; n];
        // Scale multiplies *rounds*, not per-round load: the per-tick
        // load mix (and therefore the controller's decision sequence
        // per round) is identical at every escalation level.
        let rounds = 30 * scale;
        for round in 0..rounds {
            // Hotspot load wandering the key space: drives splits where
            // it sits, merges where it left.
            let hot = (round * 37) % n;
            let (hx, hy) = (hot as f64, (hot + 8).min(n - 1) as f64);
            for _ in 0..10 {
                let drawn = client.sample_wr(Some((hx, hy)), 4).expect("hot query");
                assert!(!drawn.degraded, "healthy cluster must not degrade");
            }
            // Full-range probes: the draws under statistical test.
            for _ in 0..4 {
                let drawn = client.sample_wr(None, 16).expect("probe");
                assert_eq!(drawn.ids.len(), 16);
                for id in drawn.ids {
                    counts[id as usize] += 1;
                }
            }
            ctl.tick().expect("controller tick");
        }

        // The gate is vacuous unless the controller actually moved the
        // topology underneath the probes.
        let m = ctl.metrics();
        assert!(m.splits >= 1, "controller never split under hotspot load: {m:?}");
        assert!(m.merges >= 1, "controller never merged a cold pair: {m:?}");

        let gof = chi_square_gof(&counts, &weight_probs(&weights));
        vec![Trial::from_gof("marginals across controller splits+merges", &gof)]
    });
}
