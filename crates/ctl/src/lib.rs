//! `iqs-ctl`: the autopilot controller for the sharded sampling tier.
//!
//! The sharded tier ([`iqs_shard::ShardedService`]) already supports
//! online rebalancing — [`split_shard`], [`merge_shards`], and
//! [`rebuild_replica`] all swap the topology atomically so readers
//! never fail — but something has to *decide* when to invoke them. This
//! crate is that something: a [`Controller`] that watches the cluster's
//! own metrics on a [`ClockHandle`] tick and autonomously
//!
//! * **splits** a shard whose share of the interval's query load stays
//!   above [`CtlConfig::split_share`] for [`CtlConfig::hot_ticks`]
//!   consecutive ticks,
//! * **merges** persistently cold adjacent shards (each below half of
//!   [`CtlConfig::merge_share`] for [`CtlConfig::cold_ticks`] ticks,
//!   combined share under the merge threshold), and
//! * **re-replicates** around breaker-tripped replicas by rebuilding a
//!   fresh replica in place, which also discards the fault that tripped
//!   it, and
//! * **acts on SLO burn** ([`Controller::tick_with_health`]): a shard
//!   held in burn-rate alert by an `iqs-slo` [`HealthReport`] for
//!   [`CtlConfig::burn_ticks`] consecutive ticks gets its replicas
//!   rebuilt, with the alert recorded as [`Phase::SloBurnAlert`].
//!
//! The split and merge thresholds form a *hysteresis band*: a shard
//! only splits above `split_share`, a pair only merges when its
//! combined share is below `merge_share`, and nothing happens in
//! between. Because a split halves a hot shard's share (landing it in
//! the band, not below `merge_share`) and a merge lands the combined
//! shard in the band (not above `split_share`), the controller cannot
//! oscillate between the two on a stable workload. Streak counters add
//! a second damping layer: one anomalous interval never triggers an
//! action, and all streaks reset after every topology change so
//! decisions are always based on load observed against the *current*
//! layout.
//!
//! The controller is deliberately tick-driven rather than a background
//! thread: callers (the chaos driver in `iqs-bench`, the example,
//! production loops) call [`Controller::tick`] explicitly or use
//! [`Controller::run_for`], which sleeps on the shared clock between
//! ticks. On a virtual clock
//! the whole control loop is therefore deterministic — the property the
//! chaos scenario matrix and the CI determinism diff rest on.
//!
//! Every decision is observable twice over: counted in
//! [`CtlMetricsSnapshot`] (JSON + Prometheus) and emitted to the
//! `iqs-obs` flight recorder as [`Phase::CtlDecision`] records under
//! the controller's own trace id, so `TraceView` can explain *why* the
//! topology looks the way it does.
//!
//! [`split_shard`]: iqs_shard::ShardedService::split_shard
//! [`merge_shards`]: iqs_shard::ShardedService::merge_shards
//! [`rebuild_replica`]: iqs_shard::ShardedService::rebuild_replica

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use iqs_obs::{recorder, Ctx, Phase, PromWriter};
use iqs_shard::{ShardError, ShardedService};
use iqs_slo::HealthReport;
use iqs_testkit::ClockHandle;

/// Everything that can go wrong in the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlError {
    /// Invalid controller configuration.
    Config(&'static str),
    /// A rebalancing call was refused by the sharded tier.
    Shard(ShardError),
}

impl fmt::Display for CtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtlError::Config(msg) => write!(f, "invalid controller configuration: {msg}"),
            CtlError::Shard(e) => write!(f, "controller action failed: {e}"),
        }
    }
}

impl std::error::Error for CtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtlError::Shard(e) => Some(e),
            CtlError::Config(_) => None,
        }
    }
}

impl From<ShardError> for CtlError {
    fn from(e: ShardError) -> Self {
        CtlError::Shard(e)
    }
}

/// Tuning for the [`Controller`].
#[derive(Debug, Clone)]
pub struct CtlConfig {
    /// Interval between ticks when driven by [`Controller::run_for`].
    /// Default 200 ms.
    pub tick: Duration,
    /// A shard whose share of the interval's queries exceeds this for
    /// [`CtlConfig::hot_ticks`] consecutive ticks is split. Default
    /// 0.55.
    pub split_share: f64,
    /// An adjacent pair of shards merges only when each has stayed
    /// below half this share for [`CtlConfig::cold_ticks`] ticks and
    /// their combined share is below it. Must be below
    /// [`CtlConfig::split_share`]; the gap is the hysteresis band.
    /// Default 0.10.
    pub merge_share: f64,
    /// Consecutive hot ticks before a split. Default 2.
    pub hot_ticks: u32,
    /// Consecutive cold ticks before a merge. Default 3.
    pub cold_ticks: u32,
    /// Never merge below this many shards. Default 1.
    pub min_shards: usize,
    /// Never split above this many shards. Default 12.
    pub max_shards: usize,
    /// Ticks whose interval saw fewer queries than this are ignored
    /// entirely (no streak updates): share estimates from a handful of
    /// queries are noise. Default 32.
    pub min_interval_queries: u64,
    /// Consecutive ticks a shard must stay in SLO burn-rate alert
    /// (per the [`HealthReport`] handed to
    /// [`Controller::tick_with_health`]) before the controller rebuilds
    /// its replicas. Default 2.
    pub burn_ticks: u32,
}

impl Default for CtlConfig {
    fn default() -> Self {
        CtlConfig {
            tick: Duration::from_millis(200),
            split_share: 0.55,
            merge_share: 0.10,
            hot_ticks: 2,
            cold_ticks: 3,
            min_shards: 1,
            max_shards: 12,
            min_interval_queries: 32,
            burn_ticks: 2,
        }
    }
}

impl CtlConfig {
    fn validate(&self) -> Result<(), CtlError> {
        if !(self.split_share > 0.0 && self.split_share <= 1.0) {
            return Err(CtlError::Config("split_share must be in (0, 1]"));
        }
        if !(self.merge_share >= 0.0 && self.merge_share < self.split_share) {
            return Err(CtlError::Config(
                "merge_share must be non-negative and below split_share (the hysteresis band)",
            ));
        }
        if self.hot_ticks == 0 || self.cold_ticks == 0 {
            return Err(CtlError::Config("hot_ticks and cold_ticks must be at least 1"));
        }
        if self.min_shards == 0 || self.max_shards < self.min_shards {
            return Err(CtlError::Config("need 1 <= min_shards <= max_shards"));
        }
        if self.burn_ticks == 0 {
            return Err(CtlError::Config("burn_ticks must be at least 1"));
        }
        Ok(())
    }
}

/// One autonomous action the controller took during a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Split this shard at its key median.
    Split {
        /// Shard index at decision time.
        shard: usize,
    },
    /// Merged shards `left` and `left + 1`.
    Merge {
        /// Left shard index of the merged pair.
        left: usize,
    },
    /// Rebuilt this replica in place (fresh server, health, and fault
    /// state).
    Rebuild {
        /// Shard index.
        shard: usize,
        /// Replica index within the shard.
        replica: usize,
    },
}

impl Decision {
    /// The action code recorded in [`Phase::CtlDecision`]'s `a` payload;
    /// [`recorder::ctl_action_name`] maps it back to a label.
    #[must_use]
    pub fn action_code(&self) -> u64 {
        match self {
            Decision::Split { .. } => 1,
            Decision::Merge { .. } => 2,
            Decision::Rebuild { .. } => 3,
        }
    }
}

/// Live controller counters; snapshotted by [`Controller::metrics`].
#[derive(Debug, Default)]
struct CtlCounters {
    ticks: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    rebuilds: AtomicU64,
    held: AtomicU64,
    burn_alerts: AtomicU64,
}

/// A point-in-time copy of the controller's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CtlMetricsSnapshot {
    /// Ticks executed.
    pub ticks: u64,
    /// Shards split.
    pub splits: u64,
    /// Shard pairs merged.
    pub merges: u64,
    /// Replicas rebuilt.
    pub rebuilds: u64,
    /// Ticks that observed load but held inside the hysteresis band
    /// (no action taken).
    pub held: u64,
    /// Sustained SLO burn-rate alerts acted on (each triggers replica
    /// rebuilds on the offending shard).
    pub burn_alerts: u64,
}

impl CtlMetricsSnapshot {
    /// Prometheus-style text exposition under `iqs_ctl_*` families.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.header("iqs_ctl_ticks_total", "Controller ticks executed", "counter");
        w.sample("iqs_ctl_ticks_total", &[], self.ticks);
        w.header("iqs_ctl_actions_total", "Autonomous rebalancing actions by kind", "counter");
        for (action, value) in
            [("split", self.splits), ("merge", self.merges), ("rebuild_replica", self.rebuilds)]
        {
            w.sample("iqs_ctl_actions_total", &[("action", action)], value);
        }
        w.header(
            "iqs_ctl_held_ticks_total",
            "Ticks that observed load but held inside the hysteresis band",
            "counter",
        );
        w.sample("iqs_ctl_held_ticks_total", &[], self.held);
        w.header("iqs_ctl_burn_alerts_total", "Sustained SLO burn-rate alerts acted on", "counter");
        w.sample("iqs_ctl_burn_alerts_total", &[], self.burn_alerts);
        w.finish()
    }
}

/// The autopilot control loop. See the crate docs for the decision
/// rules; construct with [`Controller::new`] and drive with
/// [`Controller::tick`] or [`Controller::run_for`].
pub struct Controller {
    svc: ShardedService,
    clock: ClockHandle,
    config: CtlConfig,
    counters: CtlCounters,
    ctx: Ctx,
    trace: u64,
    /// Per-shard cumulative submitted counts at the last tick, used to
    /// form interval deltas. `None` right after a topology change:
    /// cumulative counts are not comparable across layouts.
    prev: Option<Vec<u64>>,
    hot_streaks: Vec<u32>,
    cold_streaks: Vec<u32>,
    /// Consecutive ticks each shard has been in SLO burn alert.
    burn_streaks: Vec<u32>,
}

impl Controller {
    /// Builds a controller over a service handle. `clock` must be the
    /// same time source the service runs on (ticks sleep on it).
    ///
    /// # Errors
    /// [`CtlError::Config`] for out-of-range thresholds (see
    /// [`CtlConfig`] field docs).
    pub fn new(
        svc: ShardedService,
        clock: ClockHandle,
        config: CtlConfig,
    ) -> Result<Controller, CtlError> {
        config.validate()?;
        let trace = recorder::next_trace_id();
        Ok(Controller {
            svc,
            clock,
            config,
            counters: CtlCounters::default(),
            ctx: Ctx::query(trace),
            trace,
            prev: None,
            hot_streaks: Vec::new(),
            cold_streaks: Vec::new(),
            burn_streaks: Vec::new(),
        })
    }

    /// The trace id the controller's [`Phase::CtlDecision`] records are
    /// emitted under; feed it to `iqs_obs::TraceView` to read the
    /// decision log.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// A snapshot of the controller's counters.
    #[must_use]
    pub fn metrics(&self) -> CtlMetricsSnapshot {
        CtlMetricsSnapshot {
            ticks: self.counters.ticks.load(Ordering::Relaxed),
            splits: self.counters.splits.load(Ordering::Relaxed),
            merges: self.counters.merges.load(Ordering::Relaxed),
            rebuilds: self.counters.rebuilds.load(Ordering::Relaxed),
            held: self.counters.held.load(Ordering::Relaxed),
            burn_alerts: self.counters.burn_alerts.load(Ordering::Relaxed),
        }
    }

    fn reset_streaks(&mut self, shards: usize) {
        self.hot_streaks = vec![0; shards];
        self.cold_streaks = vec![0; shards];
        self.burn_streaks = vec![0; shards];
    }

    fn record(&self, decision: Decision) {
        let (counter, b) = match decision {
            Decision::Split { shard } => (&self.counters.splits, shard as u64),
            Decision::Merge { left } => (&self.counters.merges, left as u64),
            Decision::Rebuild { shard, replica } => {
                (&self.counters.rebuilds, ((shard as u64) << 16) | replica as u64)
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        recorder::emit(self.ctx, Phase::CtlDecision, decision.action_code(), b);
    }

    /// Runs one control interval without SLO health input; identical to
    /// [`Controller::tick_with_health`] with `None`.
    ///
    /// # Errors
    /// [`CtlError::Shard`] when a rebalancing call fails; the topology
    /// is never left half-changed (each underlying action is atomic).
    pub fn tick(&mut self) -> Result<Vec<Decision>, CtlError> {
        self.tick_with_health(None)
    }

    /// Runs one control interval: rebuilds every breaker-tripped
    /// replica, then acts on sustained SLO burn-rate alerts from
    /// `health` (rebuilding the offending shard's replicas after
    /// [`CtlConfig::burn_ticks`] consecutive alerting ticks), then
    /// examines the interval's per-shard load shares and performs at
    /// most one split or merge. Returns the decisions taken, in
    /// execution order (possibly empty).
    ///
    /// The burn policy is breaker-shaped on purpose: a shard whose tail
    /// latency burns its error budget across both windows is treated
    /// like a tripped replica — its serving state is rebuilt — rather
    /// than resharded, because burn without a load-share imbalance
    /// points at a sick replica (cold tier thrash, fault injection,
    /// stale cache), not at the key layout.
    ///
    /// # Errors
    /// [`CtlError::Shard`] when a rebalancing call fails; the topology
    /// is never left half-changed (each underlying action is atomic).
    pub fn tick_with_health(
        &mut self,
        health: Option<&HealthReport>,
    ) -> Result<Vec<Decision>, CtlError> {
        self.counters.ticks.fetch_add(1, Ordering::Relaxed);
        let mut decisions = Vec::new();

        // Re-replication first: a tripped replica serves only as a last
        // resort, so every tick it stays tripped costs degraded reads.
        // Rebuilding swaps in a fresh server with fresh health and
        // fault state — the autopilot's equivalent of replacing a dead
        // node. (Collect indices first: each rebuild republishes.)
        let m = self.svc.metrics();
        let tripped: Vec<(usize, usize)> =
            m.replicas.iter().filter(|r| r.tripped).map(|r| (r.shard, r.replica)).collect();
        for (shard, replica) in tripped {
            self.svc.rebuild_replica(shard, replica)?;
            let d = Decision::Rebuild { shard, replica };
            self.record(d);
            decisions.push(d);
        }
        if !decisions.is_empty() {
            // Rebuilt replicas restart their counters; cumulative sums
            // are no longer comparable, so skip load analysis this tick.
            self.prev = None;
            let shards = self.svc.shard_count();
            self.reset_streaks(shards);
            return Ok(decisions);
        }

        // SLO burn-rate alerts next: sustained budget burn on a shard's
        // tail is rebuilt like a breaker trip (see method docs).
        if self.burn_streaks.len() != m.shards {
            self.burn_streaks = vec![0; m.shards];
        }
        if let Some(health) = health {
            let alerting = health.alerting_shards();
            for shard in 0..m.shards {
                self.burn_streaks[shard] = if alerting.contains(&(shard as u32)) {
                    self.burn_streaks[shard] + 1
                } else {
                    0
                };
            }
            let burning =
                (0..m.shards).find(|&shard| self.burn_streaks[shard] >= self.config.burn_ticks);
            if let Some(shard) = burning {
                let fast_burn =
                    health.shard_status(shard as u32).map_or(0.0, |status| status.fast_burn);
                self.counters.burn_alerts.fetch_add(1, Ordering::Relaxed);
                recorder::emit(
                    self.ctx.leg(shard, 0),
                    Phase::SloBurnAlert,
                    shard as u64,
                    fast_burn.to_bits(),
                );
                let replicas = m
                    .replicas
                    .iter()
                    .filter(|r| r.shard == shard)
                    .map(|r| r.replica)
                    .collect::<Vec<_>>();
                for replica in replicas {
                    self.svc.rebuild_replica(shard, replica)?;
                    let d = Decision::Rebuild { shard, replica };
                    self.record(d);
                    decisions.push(d);
                }
                self.prev = None;
                let shards = self.svc.shard_count();
                self.reset_streaks(shards);
                return Ok(decisions);
            }
        }

        // Per-shard cumulative submitted counts → interval deltas.
        let shards = m.shards;
        let mut submitted = vec![0u64; shards];
        for r in &m.replicas {
            if r.shard < shards {
                submitted[r.shard] += r.serve.submitted;
            }
        }
        let Some(prev) = self.prev.replace(submitted.clone()) else {
            self.reset_streaks(shards);
            return Ok(decisions);
        };
        if prev.len() != shards {
            self.reset_streaks(shards);
            return Ok(decisions);
        }
        let deltas: Vec<u64> =
            submitted.iter().zip(&prev).map(|(now, old)| now.saturating_sub(*old)).collect();
        let total: u64 = deltas.iter().sum();
        if total < self.config.min_interval_queries {
            // Too few queries to estimate shares; hold every streak.
            return Ok(decisions);
        }
        if self.hot_streaks.len() != shards {
            self.reset_streaks(shards);
        }
        let shares: Vec<f64> = deltas.iter().map(|&d| d as f64 / total as f64).collect();
        for (i, &share) in shares.iter().enumerate() {
            self.hot_streaks[i] =
                if share > self.config.split_share { self.hot_streaks[i] + 1 } else { 0 };
            self.cold_streaks[i] =
                if share < self.config.merge_share / 2.0 { self.cold_streaks[i] + 1 } else { 0 };
        }

        // At most one split or merge per tick, split preferred: load
        // concentration hurts tail latency now, spare shards only cost
        // memory.
        if shards < self.config.max_shards {
            let hottest = shares
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.hot_streaks[i] >= self.config.hot_ticks)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i);
            if let Some(shard) = hottest {
                match self.svc.split_shard(shard) {
                    Ok(_) => {
                        let d = Decision::Split { shard };
                        self.record(d);
                        decisions.push(d);
                        self.prev = None;
                        let n = self.svc.shard_count();
                        self.reset_streaks(n);
                        return Ok(decisions);
                    }
                    // An all-equal-keys shard cannot split; clear the
                    // streak so the controller doesn't retry every tick.
                    Err(ShardError::NoSplitPoint) => self.hot_streaks[shard] = 0,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        if shards > self.config.min_shards {
            let coldest = (0..shards.saturating_sub(1))
                .filter(|&i| {
                    self.cold_streaks[i] >= self.config.cold_ticks
                        && self.cold_streaks[i + 1] >= self.config.cold_ticks
                        && shares[i] + shares[i + 1] < self.config.merge_share
                })
                .min_by(|&a, &b| {
                    (shares[a] + shares[a + 1]).total_cmp(&(shares[b] + shares[b + 1]))
                });
            if let Some(left) = coldest {
                self.svc.merge_shards(left)?;
                let d = Decision::Merge { left };
                self.record(d);
                decisions.push(d);
                self.prev = None;
                let n = self.svc.shard_count();
                self.reset_streaks(n);
                return Ok(decisions);
            }
        }
        self.counters.held.fetch_add(1, Ordering::Relaxed);
        Ok(decisions)
    }

    /// Runs `ticks` control intervals, sleeping [`CtlConfig::tick`] on
    /// the shared clock before each one (on a virtual clock the sleep
    /// advances time instantly, keeping tests deterministic). Returns
    /// all decisions taken, in order.
    ///
    /// # Errors
    /// As for [`Controller::tick`]; stops at the first failure.
    pub fn run_for(&mut self, ticks: usize) -> Result<Vec<Decision>, CtlError> {
        let mut all = Vec::new();
        for _ in 0..ticks {
            self.clock.sleep(self.config.tick);
            all.extend(self.tick()?);
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqs_shard::ShardConfig;
    use iqs_testkit::VirtualClock;

    fn grid(n: usize) -> Vec<(u64, f64, f64)> {
        (0..n).map(|i| (i as u64, i as f64, 1.0)).collect()
    }

    fn controller(shards: usize, config: CtlConfig) -> (ShardedService, Controller, ClockHandle) {
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let svc = ShardedService::new(
            grid(256),
            ShardConfig { shards, replicas: 1, clock: clock.clone(), ..ShardConfig::default() },
        )
        .expect("build");
        let ctl = Controller::new(svc.clone(), clock.clone(), config).expect("valid config");
        (svc, ctl, clock)
    }

    fn hammer(svc: &ShardedService, lo: f64, hi: f64, queries: usize) {
        let mut client = svc.client();
        for _ in 0..queries {
            client.sample_wr(Some((lo, hi)), 4).expect("sample");
        }
    }

    #[test]
    fn config_validation_rejects_inverted_bands() {
        let (svc, _, clock) = controller(2, CtlConfig::default());
        let bad = CtlConfig { merge_share: 0.7, ..CtlConfig::default() };
        assert!(matches!(
            Controller::new(svc.clone(), clock.clone(), bad),
            Err(CtlError::Config(_))
        ));
        let bad = CtlConfig { max_shards: 0, ..CtlConfig::default() };
        assert!(matches!(Controller::new(svc, clock, bad), Err(CtlError::Config(_))));
    }

    #[test]
    fn a_sustained_hot_shard_is_split_after_the_streak() {
        let (svc, mut ctl, _) = controller(
            2,
            CtlConfig { hot_ticks: 2, min_interval_queries: 8, ..CtlConfig::default() },
        );
        assert_eq!(svc.shard_count(), 2);
        // Tick 1 establishes the baseline (no deltas yet).
        assert_eq!(ctl.tick().expect("tick"), vec![]);
        // Two hot intervals against shard 0 (keys 0..128).
        hammer(&svc, 0.0, 100.0, 30);
        assert_eq!(ctl.tick().expect("tick"), vec![], "first hot tick only starts the streak");
        hammer(&svc, 0.0, 100.0, 30);
        let decisions = ctl.tick().expect("tick");
        assert_eq!(decisions, vec![Decision::Split { shard: 0 }]);
        assert_eq!(svc.shard_count(), 3);
        assert_eq!(ctl.metrics().splits, 1);
    }

    #[test]
    fn cold_adjacent_shards_merge_after_the_streak() {
        let (svc, mut ctl, _) = controller(
            4,
            CtlConfig {
                cold_ticks: 2,
                merge_share: 0.2,
                min_interval_queries: 8,
                // Cap at the current count so the loaded shard (share
                // 1.0, nominally hot) cannot split and shadow the merge.
                max_shards: 4,
                ..CtlConfig::default()
            },
        );
        assert_eq!(svc.shard_count(), 4);
        assert_eq!(ctl.tick().expect("tick"), vec![]);
        // All load on shard 3 (keys 192..256); shards 0-2 go cold.
        for _ in 0..3 {
            hammer(&svc, 200.0, 250.0, 30);
            let d = ctl.tick().expect("tick");
            if !d.is_empty() {
                assert!(matches!(d[0], Decision::Merge { .. }));
                assert_eq!(svc.shard_count(), 3);
                assert_eq!(ctl.metrics().merges, 1);
                return;
            }
        }
        panic!("two cold streak ticks must trigger a merge");
    }

    #[test]
    fn quiet_intervals_are_ignored_entirely() {
        let (svc, mut ctl, _) = controller(
            2,
            CtlConfig { hot_ticks: 1, min_interval_queries: 64, ..CtlConfig::default() },
        );
        assert_eq!(ctl.tick().expect("tick"), vec![]);
        // Hot in *share* but under the interval floor: held, not split.
        hammer(&svc, 0.0, 100.0, 10);
        assert_eq!(ctl.tick().expect("tick"), vec![]);
        assert_eq!(svc.shard_count(), 2);
        assert_eq!(ctl.metrics().splits, 0);
    }

    #[test]
    fn sustained_burn_alerts_rebuild_the_shard() {
        use iqs_slo::{HealthReport, SloKey, SloStatus};
        let (svc, mut ctl, _) = controller(2, CtlConfig { burn_ticks: 2, ..CtlConfig::default() });
        let burning = HealthReport {
            statuses: vec![SloStatus {
                key: SloKey::Shard(1),
                fast_burn: 3.5,
                slow_burn: 1.2,
                fast_total: 100,
                slow_total: 400,
                alerting: true,
            }],
        };
        let healthy = HealthReport::default();
        // One alerting tick only starts the streak.
        assert_eq!(ctl.tick_with_health(Some(&burning)).expect("tick"), vec![]);
        // A healthy tick resets it: one anomalous window never acts.
        assert_eq!(ctl.tick_with_health(Some(&healthy)).expect("tick"), vec![]);
        assert_eq!(ctl.tick_with_health(Some(&burning)).expect("tick"), vec![]);
        let decisions = ctl.tick_with_health(Some(&burning)).expect("tick");
        assert_eq!(decisions, vec![Decision::Rebuild { shard: 1, replica: 0 }]);
        assert_eq!(svc.shard_count(), 2, "burn rebuilds replicas, never reshards");
        let m = ctl.metrics();
        assert_eq!(m.burn_alerts, 1);
        assert_eq!(m.rebuilds, 1);
        assert_eq!(m.splits + m.merges, 0);
    }

    #[test]
    fn burn_config_must_allow_at_least_one_tick() {
        let (svc, _, clock) = controller(2, CtlConfig::default());
        let bad = CtlConfig { burn_ticks: 0, ..CtlConfig::default() };
        assert!(matches!(Controller::new(svc, clock, bad), Err(CtlError::Config(_))));
    }

    #[test]
    fn prometheus_exposition_counts_actions() {
        let snap = CtlMetricsSnapshot {
            ticks: 9,
            splits: 2,
            merges: 1,
            rebuilds: 3,
            held: 4,
            burn_alerts: 5,
        };
        let text = snap.to_prometheus();
        assert!(text.contains("iqs_ctl_ticks_total 9\n"));
        assert!(text.contains("iqs_ctl_actions_total{action=\"split\"} 2\n"));
        assert!(text.contains("iqs_ctl_actions_total{action=\"merge\"} 1\n"));
        assert!(text.contains("iqs_ctl_actions_total{action=\"rebuild_replica\"} 3\n"));
        assert!(text.contains("iqs_ctl_held_ticks_total 4\n"));
        assert!(text.contains("iqs_ctl_burn_alerts_total 5\n"));
        // JSON round trip for the harness.
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: CtlMetricsSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }
}
