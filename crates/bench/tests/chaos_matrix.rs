//! The deterministic chaos scenario matrix (experiment E23's test
//! form): every scripted scenario replayed A/B — controller on vs off —
//! on a virtual clock through the `iqs_bench::chaos` driver.

use iqs_bench::chaos::{run_matrix, ChaosConfig};
use iqs_testkit::{seed, Scenario, VirtualClock};

/// The whole matrix: byte-identical across same-seed runs, zero failed
/// reads in every cell, and the controller measurably better than no
/// controller where the script gives it something to fix.
#[test]
fn chaos_matrix_is_deterministic_and_the_controller_earns_its_keep() {
    let sd = seed::derive(seed::suite_seed(), "chaos_matrix");
    let run = || {
        let vc = VirtualClock::new();
        let cfg = ChaosConfig::on_clock(vc.handle(), sd);
        run_matrix(&Scenario::matrix(), &cfg).expect("matrix runs")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed must replay the matrix byte-identically");

    for (on, off) in &first {
        // The headline safety claim: across every cell, with faults,
        // hotspots, flash crowds, and live topology surgery, not one
        // read ever *fails* — degradation is always graceful.
        assert_eq!(on.failed, 0, "{}: controller-on cell had failed reads", on.scenario);
        assert_eq!(off.failed, 0, "{}: controller-off cell had failed reads", off.scenario);
        // Same scripted workload on both arms.
        assert_eq!(on.queries, off.queries, "{}: workload must be identical", on.scenario);
        assert!(on.queries > 0);
    }

    // Skewed and shifting-hotspot cells: sustained concentration must
    // trigger at least one split.
    let skewed = &first[0].0;
    assert!(skewed.splits >= 1, "skewed cell: controller never split ({skewed:?})");
    let shifting = &first[1].0;
    assert!(shifting.splits >= 1, "shifting cell: controller never split ({shifting:?})");

    // Replica-kill cell: the scripted zombie replica (40 ms delay vs a
    // 25 ms scatter deadline) trips its breaker; the controller must
    // rebuild around it, while the controller-off arm pays the deadline
    // wait and the degraded read for the rest of the run.
    let (on, off) = &first[3];
    assert!(on.rebuilds >= 1, "replica_kill: controller never rebuilt ({on:?})");
    assert!(
        on.degraded * 2 < off.degraded,
        "replica_kill: controller-on must degrade less than half as often \
         (on {} vs off {})",
        on.degraded,
        off.degraded
    );
    assert!(
        on.p99_ns <= off.p99_ns,
        "replica_kill: controller-on p99 {}ns must not exceed controller-off {}ns",
        on.p99_ns,
        off.p99_ns
    );
    assert!(on.missing < off.missing, "controller-on must lose fewer draws");
}
