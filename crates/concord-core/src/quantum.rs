//! Adaptive per-class preemption quanta and per-class SLO state.
//!
//! The paper's quantum is a single global knob; LibPreemptible's
//! observation (PAPERS.md) is that the win from fast preemption is
//! largest when the quantum *adapts* to the workload. This module is
//! the machinery for that, per request class:
//!
//! - [`class_slot`]/[`fold_class`]: the **deterministic** class → slot
//!   fold shared by every per-class structure in the runtime (quantum
//!   table, telemetry, admission counters). Classes below
//!   [`MAX_TRACKED_CLASSES`] own a slot; everything above shares the
//!   overflow slot ([`OTHER_CLASS`]). Determinism matters: the old
//!   first-seen fold could park the same class in `OTHER_CLASS` on one
//!   shard but give it its own slot on another, so scrape-time series
//!   didn't sum across shards.
//! - [`QuantumTable`]: the shared per-class effective quantum, read by
//!   workers at slice start (the slice deadline is packed per slice, so
//!   a retune naturally applies from the next slice on).
//! - [`QuantumController`]: dispatcher-owned feedback controller. Every
//!   control interval it retunes each class's quantum toward a low
//!   percentile of that class's *observed* service-time distribution
//!   (a short class gets a quantum just above its typical service, so
//!   its requests finish inside one slice and are never preempted; a
//!   heavy class gets a long quantum, paying less switch overhead),
//!   clamped to `min_ns..=max_ns`, with a relative hysteresis band so
//!   the quantum cannot flap between intervals.
//! - [`SloState`]: per-class p99 sojourn budgets plus the controller's
//!   verdict on which classes are currently blowing them. The admission
//!   gate consults it to shed *the blowing class* (RETRY) instead of
//!   dropping newest across the board.
//!
//! The observed-service sketch is a log₂-bucketed histogram with
//! exponential decay (counts halve every control interval), so the
//! controller tracks a moving window without timestamps or allocation.

use crate::telemetry::{MAX_TRACKED_CLASSES, OTHER_CLASS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-class slots: one per tracked class plus the shared overflow slot.
pub const CLASS_SLOTS: usize = MAX_TRACKED_CLASSES + 1;

/// Deterministic class → slot mapping. Classes `0..MAX_TRACKED_CLASSES`
/// own their slot; every other class shares the overflow slot. The
/// decision depends only on the class id — never on arrival order — so
/// every shard, the admission gate, and the telemetry fold all agree.
#[inline]
pub fn class_slot(class: u16) -> usize {
    if (class as usize) < MAX_TRACKED_CLASSES {
        class as usize
    } else {
        MAX_TRACKED_CLASSES
    }
}

/// The same fold expressed as a class id: identity for tracked classes,
/// [`OTHER_CLASS`] for the overflow slot.
#[inline]
pub fn fold_class(class: u16) -> u16 {
    if (class as usize) < MAX_TRACKED_CLASSES {
        class
    } else {
        OTHER_CLASS
    }
}

/// The inverse of [`class_slot`], as a folded class id: the slot's own
/// class, or [`OTHER_CLASS`] for the overflow slot.
#[inline]
pub fn slot_class(slot: usize) -> u16 {
    if slot < MAX_TRACKED_CLASSES {
        slot as u16
    } else {
        OTHER_CLASS
    }
}

/// The effective preemption quantum per class, shared between the
/// dispatcher (writer, via the controller) and the workers (readers, at
/// slice start). A fixed-quantum runtime is just a table nobody writes.
#[derive(Debug)]
pub struct QuantumTable {
    slots: [AtomicU64; CLASS_SLOTS],
}

impl QuantumTable {
    /// A table with every class at `quantum` — the configured base.
    pub fn fixed(quantum: Duration) -> Self {
        let ns = quantum.as_nanos().min(u64::MAX as u128) as u64;
        Self::fixed_raw(ns)
    }

    /// [`QuantumTable::fixed`] over a raw value. The table is
    /// unit-agnostic — the runtime stores nanoseconds, the simulator's
    /// mirror controller stores cycles.
    pub fn fixed_raw(value: u64) -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(value)),
        }
    }

    /// The current quantum for `class` (workers call this once per
    /// slice start; a single relaxed load).
    #[inline]
    pub fn get(&self, class: u16) -> Duration {
        Duration::from_nanos(self.slots[class_slot(class)].load(Ordering::Relaxed))
    }

    /// The current quantum for `class`, in nanoseconds.
    #[inline]
    pub fn get_ns(&self, class: u16) -> u64 {
        self.slots[class_slot(class)].load(Ordering::Relaxed)
    }

    /// The current quantum of a slot, in nanoseconds.
    pub fn slot_ns(&self, slot: usize) -> u64 {
        self.slots[slot].load(Ordering::Relaxed)
    }

    /// Retunes a slot (controller only).
    pub fn set_slot_ns(&self, slot: usize, ns: u64) {
        self.slots[slot].store(ns, Ordering::Relaxed);
    }

    /// Every slot's current quantum, in nanoseconds.
    pub fn snapshot_ns(&self) -> [u64; CLASS_SLOTS] {
        std::array::from_fn(|i| self.slots[i].load(Ordering::Relaxed))
    }
}

/// Log₂-bucketed sample sketch with exponential decay: `record` is a
/// bucket increment, `decay` halves every count. Percentile queries
/// return the *upper bound* of the bucket holding the rank, which for
/// the quantum target means "a slice long enough to finish a request
/// of that percentile's size in one go".
#[derive(Debug, Clone)]
struct DecaySketch {
    buckets: [u64; 64],
    total: u64,
}

impl DecaySketch {
    fn new() -> Self {
        Self {
            buckets: [0; 64],
            total: 0,
        }
    }

    #[inline]
    fn record(&mut self, value_ns: u64) {
        let b = 63 - value_ns.max(1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.total += 1;
    }

    fn decay(&mut self) {
        self.total = 0;
        for b in &mut self.buckets {
            *b /= 2;
            self.total += *b;
        }
    }

    /// Upper bound of the bucket containing the `pct`-th percentile,
    /// or `None` when empty.
    fn percentile_upper(&self, pct: u64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = (self.total * pct).div_ceil(100).max(1);
        let mut seen = 0;
        for (b, count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(if b >= 63 { u64::MAX } else { 2u64 << b });
            }
        }
        None
    }
}

/// Service-time percentile a class's quantum targets (low: the point is
/// that *typical* requests of the class finish in one slice).
pub const TARGET_PCT: u64 = 25;

/// Relative hysteresis band, percent: a retune only applies when the new
/// target differs from the current quantum by more than this fraction,
/// so the table cannot flap between intervals.
pub const HYSTERESIS_PCT: u64 = 25;

/// Minimum (decayed) samples in a class's sketch before its quantum is
/// touched.
pub const MIN_SAMPLES: u64 = 16;

/// Controller settings that differ between the runtime and the
/// simulator's mirror of it.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Retune cadence, nanoseconds of runtime clock.
    pub interval_ns: u64,
    /// Quantum floor (the probe period: a quantum below it could expire
    /// before the worker's first preemption probe).
    pub min_ns: u64,
    /// Quantum ceiling.
    pub max_ns: u64,
    /// Whether quanta are retuned at all (SLO tracking alone still
    /// needs the interval machinery).
    pub tune_quanta: bool,
}

/// Dispatcher-owned feedback controller: feeds per-class service and
/// sojourn sketches from completion records and, every control
/// interval, retunes the [`QuantumTable`] and refreshes the
/// [`SloState`] verdicts.
#[derive(Debug)]
pub struct QuantumController {
    cfg: ControllerConfig,
    next_at_ns: u64,
    service: Vec<DecaySketch>,
    sojourn: Vec<DecaySketch>,
    /// Retunes applied (quantum actually changed), for introspection.
    pub retunes: u64,
    /// Control intervals elapsed.
    pub intervals: u64,
}

impl QuantumController {
    /// A controller whose first interval ends one `interval_ns` after
    /// `now_ns` (the dispatcher loop's start).
    pub fn new(cfg: ControllerConfig, now_ns: u64) -> Self {
        Self {
            cfg,
            next_at_ns: now_ns.saturating_add(cfg.interval_ns),
            service: vec![DecaySketch::new(); CLASS_SLOTS],
            sojourn: vec![DecaySketch::new(); CLASS_SLOTS],
            retunes: 0,
            intervals: 0,
        }
    }

    /// Folds one completion into the class's sketches.
    #[inline]
    pub fn observe(&mut self, class: u16, service_ns: u64, sojourn_ns: u64) {
        let slot = class_slot(class);
        self.service[slot].record(service_ns);
        self.sojourn[slot].record(sojourn_ns);
    }

    /// Runs the control law if the interval elapsed. Returns `true`
    /// when it did (for tests; the dispatcher ignores it).
    pub fn poll(&mut self, now_ns: u64, quanta: &QuantumTable, slo: &SloState) -> bool {
        if now_ns < self.next_at_ns {
            return false;
        }
        self.next_at_ns = now_ns.saturating_add(self.cfg.interval_ns);
        self.intervals += 1;
        for slot in 0..CLASS_SLOTS {
            if self.cfg.tune_quanta && self.service[slot].total >= MIN_SAMPLES {
                let target = self.service[slot]
                    .percentile_upper(TARGET_PCT)
                    .expect("non-empty sketch")
                    .clamp(self.cfg.min_ns, self.cfg.max_ns);
                let current = quanta.slot_ns(slot);
                let band = current / 100 * HYSTERESIS_PCT;
                if target.abs_diff(current) > band {
                    quanta.set_slot_ns(slot, target);
                    self.retunes += 1;
                }
            }
            // SLO verdict: the class's windowed p99 sojourn against its
            // budget. A shed class stops completing, its sketch decays,
            // p99 falls back under budget, and admission reopens — the
            // feedback loop that sheds only while the class is blowing.
            let budget = slo.budget_ns(slot);
            if budget > 0 {
                let p99 = self.sojourn[slot].percentile_upper(99).unwrap_or(0);
                slo.set_blown(slot, p99 > budget);
            }
        }
        for slot in 0..CLASS_SLOTS {
            self.service[slot].decay();
            self.sojourn[slot].decay();
        }
        true
    }
}

/// Per-class p99 sojourn budgets and the controller's current verdict
/// on which classes are blowing them. Shared between the dispatcher
/// (writer) and the admission gate (reader).
#[derive(Debug)]
pub struct SloState {
    /// Budget per slot, nanoseconds; 0 = no budget for that slot.
    budget_ns: [u64; CLASS_SLOTS],
    /// Bit `slot` set while that class is over budget.
    blown: AtomicU64,
}

impl Default for SloState {
    /// No budgets, nothing blown — the state of a runtime with no
    /// `--slo` flags.
    fn default() -> Self {
        Self::new(&[])
    }
}

impl SloState {
    /// Builds the state from `(class, p99 budget in microseconds)`
    /// pairs (the `--slo CLASS:P99_US` flag). Classes at or above
    /// [`MAX_TRACKED_CLASSES`] share the overflow slot's budget.
    pub fn new(budgets: &[(u16, u64)]) -> Self {
        let mut budget_ns = [0u64; CLASS_SLOTS];
        for &(class, p99_us) in budgets {
            budget_ns[class_slot(class)] = p99_us.saturating_mul(1_000);
        }
        Self {
            budget_ns,
            blown: AtomicU64::new(0),
        }
    }

    /// Whether any class has a budget (fast-path gate for admission).
    pub fn any_budget(&self) -> bool {
        self.budget_ns.iter().any(|&b| b > 0)
    }

    /// The budget for a slot, nanoseconds (0 = none).
    pub fn budget_ns(&self, slot: usize) -> u64 {
        self.budget_ns[slot]
    }

    /// Whether `class` should be shed at admission right now.
    #[inline]
    pub fn should_shed(&self, class: u16) -> bool {
        self.blown.load(Ordering::Relaxed) & (1 << class_slot(class)) != 0
    }

    /// Controller-side verdict update.
    pub fn set_blown(&self, slot: usize, blown: bool) {
        if blown {
            self.blown.fetch_or(1 << slot, Ordering::Relaxed);
        } else {
            self.blown.fetch_and(!(1 << slot), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(interval_ns: u64) -> ControllerConfig {
        ControllerConfig {
            interval_ns,
            min_ns: 1_000,
            max_ns: 100_000,
            tune_quanta: true,
        }
    }

    #[test]
    fn fold_is_deterministic_and_bounded() {
        assert_eq!(class_slot(0), 0);
        assert_eq!(class_slot(31), 31);
        assert_eq!(class_slot(32), MAX_TRACKED_CLASSES);
        assert_eq!(class_slot(u16::MAX), MAX_TRACKED_CLASSES);
        assert_eq!(fold_class(5), 5);
        assert_eq!(fold_class(32), OTHER_CLASS);
        assert_eq!(fold_class(40_000), OTHER_CLASS);
        // Order-independence is the point: the fold of a class never
        // depends on what other classes were seen first.
        for class in [0u16, 31, 32, 1000, u16::MAX] {
            assert_eq!(class_slot(class), class_slot(class), "{class}");
            assert!(class_slot(class) < CLASS_SLOTS);
        }
    }

    #[test]
    fn table_reads_folded_slots() {
        let t = QuantumTable::fixed(Duration::from_micros(5));
        assert_eq!(t.get_ns(3), 5_000);
        t.set_slot_ns(class_slot(3), 2_000);
        assert_eq!(t.get(3), Duration::from_micros(2));
        // Overflow classes all read the shared slot.
        t.set_slot_ns(MAX_TRACKED_CLASSES, 7_000);
        assert_eq!(t.get_ns(32), 7_000);
        assert_eq!(t.get_ns(u16::MAX), 7_000);
    }

    /// The acceptance-criteria convergence scenario, run against the
    /// controller directly: a bimodal two-class mix (1µs short class,
    /// 100µs heavy class) must settle to distinct stable per-class
    /// quanta with zero retunes over the last 10 control intervals.
    #[test]
    fn controller_converges_without_flapping_on_bimodal_mix() {
        let quanta = QuantumTable::fixed(Duration::from_micros(5));
        let slo = SloState::default();
        let mut c = QuantumController::new(cfg(1_000_000), 0);
        let mut now = 0u64;
        let mut history: Vec<(u64, u64)> = Vec::new();
        for _ in 0..15 {
            // One interval of traffic: class 0 ~1µs, class 1 ~100µs,
            // with mild deterministic jitter.
            for i in 0..200u64 {
                c.observe(0, 900 + (i % 5) * 50, 2_000);
                c.observe(1, 95_000 + (i % 7) * 1_500, 150_000);
            }
            now += 1_000_000;
            assert!(c.poll(now, &quanta, &slo));
            history.push((quanta.get_ns(0), quanta.get_ns(1)));
        }
        let (short_q, heavy_q) = *history.last().unwrap();
        // Distinct stable values: the short class's quantum covers its
        // service in one slice; the heavy class's is much longer.
        assert!((1_000..=4_000).contains(&short_q), "short {short_q}");
        assert!(heavy_q >= 64_000, "heavy {heavy_q}");
        assert!(heavy_q >= 8 * short_q, "distinct: {short_q} vs {heavy_q}");
        // No flapping: the last 10 intervals hold the same values.
        let tail = &history[history.len() - 10..];
        assert!(
            tail.iter().all(|&v| v == (short_q, heavy_q)),
            "quanta flapped: {history:?}"
        );
    }

    #[test]
    fn controller_clamps_and_respects_hysteresis() {
        let quanta = QuantumTable::fixed(Duration::from_micros(5));
        let slo = SloState::default();
        let mut c = QuantumController::new(cfg(1_000), 0);
        // 100ns services clamp up to min_ns.
        for _ in 0..100 {
            c.observe(0, 100, 500);
        }
        c.poll(1_000, &quanta, &slo);
        assert_eq!(quanta.get_ns(0), 1_000, "clamped to floor");
        // 10ms services clamp down to max_ns.
        for _ in 0..100 {
            c.observe(1, 10_000_000, 10_000_000);
        }
        c.poll(2_000, &quanta, &slo);
        assert_eq!(quanta.get_ns(1), 100_000, "clamped to ceiling");
        // A target within the hysteresis band leaves the quantum alone.
        let retunes = c.retunes;
        for _ in 0..100 {
            c.observe(1, 9_000_000, 0); // still clamps to 100_000
        }
        c.poll(3_000, &quanta, &slo);
        assert_eq!(c.retunes, retunes, "within-band target must not retune");
        // Below MIN_SAMPLES nothing moves.
        for _ in 0..MIN_SAMPLES - 1 {
            c.observe(2, 50_000, 0);
        }
        c.poll(4_000, &quanta, &slo);
        assert_eq!(quanta.get_ns(2), 5_000, "sparse class untouched");
        // MIN_SAMPLES of them are enough to retune.
        for _ in 0..MIN_SAMPLES {
            c.observe(3, 50_000, 0);
        }
        c.poll(5_000, &quanta, &slo);
        assert_eq!(quanta.get_ns(3), 65_536, "dense class retuned");
    }

    #[test]
    fn slo_verdicts_follow_windowed_p99() {
        let quanta = QuantumTable::fixed(Duration::from_micros(5));
        let slo = SloState::new(&[(1, 200)]); // class 1: p99 ≤ 200µs
        assert!(slo.any_budget());
        assert_eq!(slo.budget_ns(class_slot(1)), 200_000);
        assert!(!slo.should_shed(1));
        let mut c = QuantumController::new(cfg(1_000), 0);
        // Interval 1: class 1 sojourns blow the budget.
        for _ in 0..100 {
            c.observe(1, 100_000, 1_000_000);
        }
        c.poll(1_000, &quanta, &slo);
        assert!(slo.should_shed(1), "over budget → shed");
        assert!(!slo.should_shed(0), "other classes unaffected");
        // Intervals 2..: the class is shed, completions stop, the
        // sketch decays, and the verdict clears.
        let mut cleared = false;
        for k in 2..12u64 {
            c.poll(k * 1_000, &quanta, &slo);
            if !slo.should_shed(1) {
                cleared = true;
                break;
            }
        }
        assert!(cleared, "verdict must clear once the window drains");
    }

    #[test]
    fn slo_budgets_fold_overflow_classes() {
        let slo = SloState::new(&[(40_000, 500)]);
        assert_eq!(slo.budget_ns(MAX_TRACKED_CLASSES), 500_000);
        slo.set_blown(MAX_TRACKED_CLASSES, true);
        assert!(slo.should_shed(33));
        assert!(slo.should_shed(u16::MAX));
        assert!(!slo.should_shed(0));
    }

    #[test]
    fn sketch_percentiles_and_decay() {
        let mut s = DecaySketch::new();
        for _ in 0..90 {
            s.record(1_000); // bucket 9 (512..1024), upper 1024...
        }
        for _ in 0..10 {
            s.record(100_000);
        }
        // p25 sits in the 1µs mode; upper bound covers it.
        let p25 = s.percentile_upper(25).unwrap();
        assert!((1_000..=2_048).contains(&p25), "{p25}");
        // p99 reaches the heavy mode.
        let p99 = s.percentile_upper(99).unwrap();
        assert!(p99 >= 100_000, "{p99}");
        let before = s.total;
        s.decay();
        assert_eq!(s.total, before / 2);
        let mut empty = DecaySketch::new();
        assert_eq!(empty.percentile_upper(50), None);
        empty.record(u64::MAX);
        assert_eq!(empty.percentile_upper(100), Some(u64::MAX));
    }
}
