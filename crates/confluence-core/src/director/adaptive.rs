//! Adaptive runtime control: the feedback loop that makes the pooled
//! executor elastic.
//!
//! The paper's scheduling discussion (§4, Table 2) and its load-shedding
//! references assume an engine that *reacts* to load; Floe makes the same
//! argument for elastic resource scaling of continuous dataflows. This
//! module is the decision side of that loop: [`AdaptiveController`] is a
//! pure state machine fed one [`LoadSnapshot`] per tick (sampled by
//! [`LoadSignals`](crate::telemetry::signals::LoadSignals) on the pool's
//! timer thread) and emits [`AdaptDecision`]s on three levers:
//!
//! * **elastic workers** — grow the active worker set under sustained
//!   backlog, shrink it when the network idles;
//! * **policy hot-swap** — switch the ready-queue ordering between an
//!   underload policy (e.g. FIFO) and an overload policy (e.g. QBS) at a
//!   firing boundary;
//! * **load shedding** — engage admission-side dropping before `Block`
//!   backpressure stalls the sources, and disengage with hysteresis.
//!
//! Every lever is guarded by a sustain requirement (the signal must hold
//! for `sustain_ticks` consecutive ticks) and a per-lever cooldown, so
//! transient spikes do not thrash the pool. The controller holds no locks
//! and touches no engine state — the pool applies decisions and reports
//! each one through [`Observer::on_adapt`](crate::telemetry::Observer::on_adapt).

use std::sync::Arc;

use crate::telemetry::signals::LoadSnapshot;
use crate::time::{Micros, Timestamp};

use super::pool_policy::PoolPolicy;

/// Configuration for the adaptive control loop: targets, bounds, and
/// cooldowns (plus the policies the hot-swap lever toggles between).
/// Flows through [`ExecConfig::adaptive`](crate::engine::ExecConfig::adaptive).
#[derive(Clone)]
pub struct AdaptivePolicy {
    /// Lower bound on active workers.
    pub min_workers: usize,
    /// Upper bound on active workers (threads for all of them are spawned
    /// up front; inactive ones park).
    pub max_workers: usize,
    /// Ready backlog per active worker above which the pool is overloaded
    /// (grow / overload-policy signal).
    pub grow_backlog_per_worker: u64,
    /// Total ready backlog at or below which the pool is idle
    /// (shrink / underload-policy signal).
    pub shrink_backlog: u64,
    /// Consecutive ticks a signal must hold before a lever moves.
    pub sustain_ticks: u32,
    /// Minimum director time between worker resizes.
    pub resize_cooldown: Micros,
    /// Minimum director time between policy swaps.
    pub swap_cooldown: Micros,
    /// Minimum director time between shed engage/disengage transitions.
    pub shed_cooldown: Micros,
    /// Ready-queue policy to swap in under sustained overload (the swap
    /// lever is disabled when `None`).
    pub overload_policy: Option<Arc<dyn PoolPolicy>>,
    /// Policy to swap back to when the overload clears. `None` means the
    /// run's originally-configured policy.
    pub underload_policy: Option<Arc<dyn PoolPolicy>>,
    /// Sink wait (end-to-end latency EMA) above which admission-side
    /// shedding engages. The shed lever is disabled when `None`.
    pub latency_target: Option<Micros>,
    /// Drop ratio applied while shedding, in parts per million.
    pub shed_ratio_ppm: u64,
    /// Shedding disengages only once the sink wait falls below
    /// `latency_target × shed_hysteresis_percent / 100`.
    pub shed_hysteresis_percent: u32,
    /// Controller tick interval (also the load-sampling period).
    pub tick_every: Micros,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptivePolicy {
    /// Defaults: workers elastic in `[1, available_parallelism]`, grow
    /// above 16 ready entries per worker sustained for 3 ticks, shrink
    /// when fully drained, 100 ms resize / 200 ms swap and shed cooldowns,
    /// no policy swap, no shedding, 5 ms ticks.
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        AdaptivePolicy {
            min_workers: 1,
            max_workers: cores,
            grow_backlog_per_worker: 16,
            shrink_backlog: 0,
            sustain_ticks: 3,
            resize_cooldown: Micros::from_millis(100),
            swap_cooldown: Micros::from_millis(200),
            shed_cooldown: Micros::from_millis(200),
            overload_policy: None,
            underload_policy: None,
            latency_target: None,
            shed_ratio_ppm: 200_000,
            shed_hysteresis_percent: 50,
            tick_every: Micros::from_millis(5),
        }
    }

    /// Bound the active worker set to `[min, max]` (both clamped ≥ 1).
    pub fn worker_bounds(mut self, min: usize, max: usize) -> Self {
        self.min_workers = min.max(1);
        self.max_workers = max.max(self.min_workers);
        self
    }

    /// Overload signal: ready backlog per active worker above this grows
    /// the pool (and engages the overload policy, if one is set).
    pub fn grow_backlog_per_worker(mut self, backlog: u64) -> Self {
        self.grow_backlog_per_worker = backlog;
        self
    }

    /// Idle signal: total ready backlog at or below this shrinks the pool.
    pub fn shrink_backlog(mut self, backlog: u64) -> Self {
        self.shrink_backlog = backlog;
        self
    }

    /// Consecutive ticks a signal must hold before a lever moves.
    pub fn sustain_ticks(mut self, ticks: u32) -> Self {
        self.sustain_ticks = ticks.max(1);
        self
    }

    /// Minimum director time between worker resizes.
    pub fn resize_cooldown(mut self, cooldown: Micros) -> Self {
        self.resize_cooldown = cooldown;
        self
    }

    /// Minimum director time between policy swaps.
    pub fn swap_cooldown(mut self, cooldown: Micros) -> Self {
        self.swap_cooldown = cooldown;
        self
    }

    /// Minimum director time between shed transitions.
    pub fn shed_cooldown(mut self, cooldown: Micros) -> Self {
        self.shed_cooldown = cooldown;
        self
    }

    /// Enable the hot-swap lever: swap to `policy` under sustained
    /// overload, back to the underload (or originally-configured) policy
    /// when the overload clears.
    pub fn overload_policy(mut self, policy: impl PoolPolicy + 'static) -> Self {
        self.overload_policy = Some(Arc::new(policy));
        self
    }

    /// The policy to swap back to when overload clears (defaults to the
    /// run's configured policy).
    pub fn underload_policy(mut self, policy: impl PoolPolicy + 'static) -> Self {
        self.underload_policy = Some(Arc::new(policy));
        self
    }

    /// Enable the shed lever: engage admission-side dropping once the
    /// sink wait EMA exceeds `target`.
    pub fn latency_target(mut self, target: Micros) -> Self {
        self.latency_target = Some(target);
        self
    }

    /// Drop ratio applied while shedding, in parts per million (clamped
    /// to at most 900 000 so some flow always survives).
    pub fn shed_ratio_ppm(mut self, ppm: u64) -> Self {
        self.shed_ratio_ppm = ppm.clamp(1, 900_000);
        self
    }

    /// Hysteresis: disengage only below `target × percent / 100`.
    pub fn shed_hysteresis_percent(mut self, percent: u32) -> Self {
        self.shed_hysteresis_percent = percent.clamp(1, 100);
        self
    }

    /// Controller tick interval.
    pub fn tick_every(mut self, interval: Micros) -> Self {
        self.tick_every = Micros(interval.as_micros().max(1));
        self
    }
}

/// One decision the controller asks the pool to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptDecision {
    /// Activate workers up to `to`.
    Grow {
        /// Active workers before.
        from: usize,
        /// Active workers after.
        to: usize,
    },
    /// Retire workers down to `to`.
    Shrink {
        /// Active workers before.
        from: usize,
        /// Active workers after.
        to: usize,
    },
    /// Hot-swap the ready queues to the overload policy.
    SwapToOverload,
    /// Hot-swap the ready queues back to the underload policy.
    SwapToUnderload,
    /// Engage admission-side shedding at this drop ratio.
    ShedEngage {
        /// Drop ratio in parts per million.
        ratio_ppm: u64,
    },
    /// Disengage admission-side shedding.
    ShedDisengage,
}

/// The feedback state machine: holds streak counters and cooldown clocks,
/// consumes one [`LoadSnapshot`] per tick, emits [`AdaptDecision`]s. Pure
/// decision logic — the pool owns application.
pub struct AdaptiveController {
    cfg: AdaptivePolicy,
    /// Whether the hot-swap lever is armed (an overload policy resolved).
    swap_enabled: bool,
    active: usize,
    on_overload_policy: bool,
    shedding: bool,
    grow_streak: u32,
    shrink_streak: u32,
    over_streak: u32,
    under_streak: u32,
    shed_hi_streak: u32,
    shed_lo_streak: u32,
    last_resize: Option<Timestamp>,
    last_swap: Option<Timestamp>,
    last_shed: Option<Timestamp>,
}

impl AdaptiveController {
    /// A controller starting from `active` workers on the underload
    /// policy with shedding disengaged. `swap_enabled` arms the hot-swap
    /// lever (the pool resolves whether an overload policy exists).
    pub fn new(cfg: AdaptivePolicy, active: usize, swap_enabled: bool) -> Self {
        let active = active.clamp(cfg.min_workers, cfg.max_workers);
        AdaptiveController {
            cfg,
            swap_enabled,
            active,
            on_overload_policy: false,
            shedding: false,
            grow_streak: 0,
            shrink_streak: 0,
            over_streak: 0,
            under_streak: 0,
            shed_hi_streak: 0,
            shed_lo_streak: 0,
            last_resize: None,
            last_swap: None,
            last_shed: None,
        }
    }

    /// Whether shedding is currently engaged.
    pub fn shedding(&self) -> bool {
        self.shedding
    }

    fn cooled(last: Option<Timestamp>, cooldown: Micros, now: Timestamp) -> bool {
        last.is_none_or(|at| now.since(at) >= cooldown)
    }

    /// Consume one load snapshot; return the decisions to apply (possibly
    /// several — one per lever at most).
    pub fn tick(&mut self, snap: &LoadSnapshot, now: Timestamp) -> Vec<AdaptDecision> {
        let mut out = Vec::new();
        let per_worker = snap.total_backlog / self.active.max(1) as u64;
        let overloaded = per_worker > self.cfg.grow_backlog_per_worker;
        let idle = snap.total_backlog <= self.cfg.shrink_backlog;
        self.grow_streak = if overloaded { self.grow_streak + 1 } else { 0 };
        self.shrink_streak = if idle { self.shrink_streak + 1 } else { 0 };

        // Lever (a): elastic workers.
        if self.grow_streak >= self.cfg.sustain_ticks
            && self.active < self.cfg.max_workers
            && Self::cooled(self.last_resize, self.cfg.resize_cooldown, now)
        {
            let from = self.active;
            self.active += 1;
            self.grow_streak = 0;
            self.last_resize = Some(now);
            out.push(AdaptDecision::Grow {
                from,
                to: self.active,
            });
        } else if self.shrink_streak >= self.cfg.sustain_ticks
            && self.active > self.cfg.min_workers
            && Self::cooled(self.last_resize, self.cfg.resize_cooldown, now)
        {
            let from = self.active;
            self.active -= 1;
            self.shrink_streak = 0;
            self.last_resize = Some(now);
            out.push(AdaptDecision::Shrink {
                from,
                to: self.active,
            });
        }

        // Lever (b): policy hot-swap, driven by the same backlog signal.
        if self.swap_enabled {
            self.over_streak = if overloaded { self.over_streak + 1 } else { 0 };
            self.under_streak = if idle { self.under_streak + 1 } else { 0 };
            if !self.on_overload_policy
                && self.over_streak >= self.cfg.sustain_ticks
                && Self::cooled(self.last_swap, self.cfg.swap_cooldown, now)
            {
                self.on_overload_policy = true;
                self.over_streak = 0;
                self.last_swap = Some(now);
                out.push(AdaptDecision::SwapToOverload);
            } else if self.on_overload_policy
                && self.under_streak >= self.cfg.sustain_ticks
                && Self::cooled(self.last_swap, self.cfg.swap_cooldown, now)
            {
                self.on_overload_policy = false;
                self.under_streak = 0;
                self.last_swap = Some(now);
                out.push(AdaptDecision::SwapToUnderload);
            }
        }

        // Lever (c): admission-side load shedding with hysteresis. The
        // signal is the latency sketch's true p95 when one is attached
        // (see `LoadSnapshot::latency_signal_us`), else the sink-wait EMA.
        if let Some(target) = self.cfg.latency_target {
            let signal = snap.latency_signal_us();
            let hi = signal > target.as_micros();
            let lo = signal
                < target.as_micros() * self.cfg.shed_hysteresis_percent as u64 / 100;
            self.shed_hi_streak = if hi { self.shed_hi_streak + 1 } else { 0 };
            self.shed_lo_streak = if lo { self.shed_lo_streak + 1 } else { 0 };
            if !self.shedding
                && self.shed_hi_streak >= self.cfg.sustain_ticks
                && Self::cooled(self.last_shed, self.cfg.shed_cooldown, now)
            {
                self.shedding = true;
                self.shed_hi_streak = 0;
                self.last_shed = Some(now);
                out.push(AdaptDecision::ShedEngage {
                    ratio_ppm: self.cfg.shed_ratio_ppm,
                });
            } else if self.shedding
                && self.shed_lo_streak >= self.cfg.sustain_ticks
                && Self::cooled(self.last_shed, self.cfg.shed_cooldown, now)
            {
                self.shedding = false;
                self.shed_lo_streak = 0;
                self.last_shed = Some(now);
                out.push(AdaptDecision::ShedDisengage);
            }
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(backlog: u64, sink_wait_us: u64) -> LoadSnapshot {
        LoadSnapshot {
            total_backlog: backlog,
            max_backlog: backlog,
            source_adjacent_backlog: backlog,
            sink_wait_us,
            interior_wait_us: 0,
            fires: 0,
            sink_p95_us: 0,
        }
    }

    fn fast_policy() -> AdaptivePolicy {
        AdaptivePolicy::new()
            .worker_bounds(1, 4)
            .grow_backlog_per_worker(4)
            .shrink_backlog(0)
            .sustain_ticks(2)
            .resize_cooldown(Micros(0))
            .swap_cooldown(Micros(0))
            .shed_cooldown(Micros(0))
            .tick_every(Micros(1))
    }

    #[test]
    fn grows_under_sustained_backlog_only() {
        let mut c = AdaptiveController::new(fast_policy(), 1, false);
        assert!(c.tick(&snap(100, 0), Timestamp(1)).is_empty(), "one tick is not sustained");
        // A calm tick resets the streak.
        assert!(c.tick(&snap(0, 0), Timestamp(2)).is_empty());
        assert!(c.tick(&snap(100, 0), Timestamp(3)).is_empty());
        assert_eq!(
            c.tick(&snap(100, 0), Timestamp(4)),
            vec![AdaptDecision::Grow { from: 1, to: 2 }]
        );
        assert_eq!(c.active, 2);
    }

    #[test]
    fn grow_respects_bounds_and_cooldown() {
        let cfg = fast_policy().worker_bounds(1, 2).resize_cooldown(Micros(1_000));
        let mut c = AdaptiveController::new(cfg, 1, false);
        c.tick(&snap(100, 0), Timestamp(1));
        assert_eq!(
            c.tick(&snap(100, 0), Timestamp(2)),
            vec![AdaptDecision::Grow { from: 1, to: 2 }]
        );
        // At the bound and inside the cooldown: no further growth.
        c.tick(&snap(100, 0), Timestamp(3));
        assert!(c.tick(&snap(100, 0), Timestamp(4)).is_empty());
        assert!(c.tick(&snap(100, 0), Timestamp(5_000)).is_empty(), "max_workers holds");
    }

    #[test]
    fn shrinks_when_idle_sustained() {
        let mut c = AdaptiveController::new(fast_policy(), 3, false);
        c.tick(&snap(0, 0), Timestamp(1));
        assert_eq!(
            c.tick(&snap(0, 0), Timestamp(2)),
            vec![AdaptDecision::Shrink { from: 3, to: 2 }]
        );
        c.tick(&snap(0, 0), Timestamp(3));
        assert_eq!(
            c.tick(&snap(0, 0), Timestamp(4)),
            vec![AdaptDecision::Shrink { from: 2, to: 1 }]
        );
        // min_workers floor.
        c.tick(&snap(0, 0), Timestamp(5));
        assert!(c.tick(&snap(0, 0), Timestamp(6)).is_empty());
    }

    #[test]
    fn swaps_policy_with_backlog_and_back() {
        let mut c = AdaptiveController::new(fast_policy().worker_bounds(2, 2), 2, true);
        c.tick(&snap(100, 0), Timestamp(1));
        assert_eq!(
            c.tick(&snap(100, 0), Timestamp(2)),
            vec![AdaptDecision::SwapToOverload]
        );
        // Already on the overload policy: no repeat.
        c.tick(&snap(100, 0), Timestamp(3));
        assert!(c.tick(&snap(100, 0), Timestamp(4)).is_empty());
        c.tick(&snap(0, 0), Timestamp(5));
        assert_eq!(
            c.tick(&snap(0, 0), Timestamp(6)),
            vec![AdaptDecision::SwapToUnderload]
        );
    }

    #[test]
    fn swap_disabled_without_overload_policy() {
        let mut c = AdaptiveController::new(fast_policy().worker_bounds(2, 2), 2, false);
        for t in 1..10 {
            assert!(c.tick(&snap(100, 0), Timestamp(t)).is_empty());
        }
    }

    #[test]
    fn shed_engages_above_target_and_disengages_with_hysteresis() {
        let cfg = fast_policy()
            .worker_bounds(1, 1)
            .latency_target(Micros(1_000))
            .shed_ratio_ppm(250_000)
            .shed_hysteresis_percent(50);
        let mut c = AdaptiveController::new(cfg, 1, false);
        c.tick(&snap(1, 5_000), Timestamp(1));
        assert_eq!(
            c.tick(&snap(1, 5_000), Timestamp(2)),
            vec![AdaptDecision::ShedEngage { ratio_ppm: 250_000 }]
        );
        assert!(c.shedding());
        // Below target but above the hysteresis floor: stay engaged.
        c.tick(&snap(1, 700), Timestamp(3));
        assert!(c.tick(&snap(1, 700), Timestamp(4)).is_empty());
        assert!(c.shedding());
        // Below target × 50%: disengage after the sustain.
        c.tick(&snap(1, 100), Timestamp(5));
        assert_eq!(
            c.tick(&snap(1, 100), Timestamp(6)),
            vec![AdaptDecision::ShedDisengage]
        );
        assert!(!c.shedding());
    }

    #[test]
    fn multiple_levers_can_fire_on_one_tick() {
        let cfg = fast_policy().latency_target(Micros(10));
        let mut c = AdaptiveController::new(cfg, 1, true);
        c.tick(&snap(100, 50), Timestamp(1));
        let decisions = c.tick(&snap(100, 50), Timestamp(2));
        assert_eq!(
            decisions,
            vec![
                AdaptDecision::Grow { from: 1, to: 2 },
                AdaptDecision::SwapToOverload,
                AdaptDecision::ShedEngage { ratio_ppm: 200_000 },
            ]
        );
    }

    #[test]
    fn builder_clamps_ranges() {
        let cfg = AdaptivePolicy::new()
            .worker_bounds(0, 0)
            .sustain_ticks(0)
            .shed_ratio_ppm(5_000_000)
            .shed_hysteresis_percent(400)
            .tick_every(Micros(0));
        assert_eq!((cfg.min_workers, cfg.max_workers), (1, 1));
        assert_eq!(cfg.sustain_ticks, 1);
        assert_eq!(cfg.shed_ratio_ppm, 900_000);
        assert_eq!(cfg.shed_hysteresis_percent, 100);
        assert_eq!(cfg.tick_every, Micros(1));
    }
}
