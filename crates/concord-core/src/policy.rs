//! Scheduling policies: the one place an ordering decision is written.
//!
//! The paper's thesis is that *approximate* optimal scheduling —
//! quantum-based processor sharing with fast preemption — gets close to
//! the true tail-optimal policy. Measuring "close to what" requires the
//! baselines to be swappable, so a policy is a small `Copy` value,
//! [`PolicyKind`], with exactly two decisions on it:
//!
//! - **pick-next / requeue ordering** via [`PolicyKind::key`]: every
//!   entry in the central queue carries a priority key; the queue always
//!   pops the smallest `(key, seq)` pair, so a policy shapes the schedule
//!   purely by choosing keys. Constant keys degrade to the sequence
//!   order — round-robin processor sharing.
//! - **whether preemption signals are issued at all** via
//!   [`PolicyKind::preempts`]: run-to-completion baselines (Persephone)
//!   never interrupt a running request, which is a property of the
//!   policy, not of the quantum length.
//!
//! The key takes a plain [`KeyInput`] (id, size, attained service,
//! arrival — nanoseconds), not a task, so the runtime's dispatcher and
//! `concord-sim` order their queues with this same code:
//!
//! | policy       | key                                   | preempts |
//! |--------------|---------------------------------------|----------|
//! | `PsQuantum`  | `0` (pure round-robin seq order)      | yes      |
//! | `Fcfs`       | `0` (arrival order, run-to-completion)| **no**   |
//! | `Srpt`       | noisy size estimate − attained        | yes      |
//! | `Boost`      | arrival − b(size), b(s) = B²/s        | yes      |
//!
//! `Srpt` follows the noisy-estimate model of Scully & Harchol-Balter,
//! "How to Schedule Near-Optimally under Real-World Constraints": the
//! scheduler sees the true size perturbed by a bounded multiplicative
//! error, here a deterministic per-request factor in `±noise_pct%` so
//! runs (and their oracles) are reproducible. `Boost` follows Yu &
//! Scully, "Strongly Tail-Optimal Scheduling in the Light-Tailed
//! M/G/1": each request's priority is its arrival time *boosted*
//! (shifted earlier) by an amount inversely proportional to its size,
//! which interpolates between FCFS (boost → 0) and SRPT (boost → ∞)
//! and is tail-optimal in the light-tailed regime.

use concord_rng::{Rng, SeedableRng, SmallRng};

/// Salt mixed into the per-request SRPT noise seed.
const SRPT_NOISE_SALT: u64 = 0x5eed_5eed;

/// Boost parameter `B` for a bare `boost`, in microseconds.
const DEFAULT_BOOST_US: u64 = 10;

/// What a policy key is computed from, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyInput {
    /// Request id (seeds the SRPT estimate's noise).
    pub id: u64,
    /// True service time.
    pub size_ns: u64,
    /// Service attained so far (0 for a fresh arrival).
    pub attained_ns: u64,
    /// When the request arrived.
    pub arrived_ns: u64,
}

/// The SRPT size estimate for request `id`: the true `size_ns` perturbed
/// by a deterministic per-request multiplicative factor in
/// `±noise_pct%` (seeded from a fixed salt `^ id`), never below 1.
/// `noise_pct = 0` passes the size through.
pub fn srpt_estimate(noise_pct: u32, id: u64, size_ns: u64) -> u64 {
    if noise_pct == 0 {
        return size_ns;
    }
    let mut rng = SmallRng::seed_from_u64(SRPT_NOISE_SALT ^ id);
    let pct = i64::from(rng.gen_range(-(noise_pct as i32)..=noise_pct as i32));
    let shift = (size_ns as i64).saturating_mul(pct) / 100;
    size_ns.saturating_add_signed(shift).max(1)
}

/// The scheduling policy: a small `Copy` value that lives in
/// [`RuntimeConfig`](crate::config::RuntimeConfig) and in the
/// simulator's system config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Quantum-based processor sharing (the paper's policy; default).
    #[default]
    PsQuantum,
    /// FCFS run-to-completion (Persephone baseline).
    Fcfs,
    /// SRPT with `±noise_pct%` multiplicative estimate error.
    Srpt {
        /// Half-width of the estimate error, percent (0 = exact).
        noise_pct: u32,
    },
    /// Boost scheduling with parameter `B = boost_us` microseconds.
    Boost {
        /// Boost parameter in microseconds.
        boost_us: u64,
    },
}

impl PolicyKind {
    /// Whether quanta are policed and preemption signals sent at all.
    /// `false` (only `Fcfs`) is run-to-completion: zero signals by
    /// construction, which the conformance suite asserts exactly.
    pub fn preempts(self) -> bool {
        self != PolicyKind::Fcfs
    }

    /// Priority key for a request entering (or re-entering) the central
    /// queue. Smaller is sooner; ties dispatch in insertion order. Runs
    /// once per enqueue on the dispatcher's hot path.
    ///
    /// - `PsQuantum`, `Fcfs`: 0.
    /// - `Srpt`: the (noisy) size estimate minus attained service, so a
    ///   preempted long request sinks toward the back while short fresh
    ///   work jumps the queue.
    /// - `Boost`: arrival minus `B² / remaining size`.
    ///
    /// A request that has overrun its size (estimate) has unknown true
    /// remaining work; both keyed policies then fall back to
    /// elapsed-time ordering, so attained service pushes it ever later
    /// instead of pinning it at the front.
    pub fn key(self, t: KeyInput) -> u64 {
        match self {
            PolicyKind::PsQuantum | PolicyKind::Fcfs => 0,
            PolicyKind::Srpt { noise_pct } => {
                let estimate = srpt_estimate(noise_pct, t.id, t.size_ns);
                if t.attained_ns < estimate {
                    estimate - t.attained_ns
                } else {
                    t.attained_ns.max(1)
                }
            }
            PolicyKind::Boost { boost_us } => {
                let b = boost_us.saturating_mul(1_000);
                match t.size_ns.checked_sub(t.attained_ns) {
                    Some(remaining) if remaining > 0 => {
                        t.arrived_ns.saturating_sub(b.saturating_mul(b) / remaining)
                    }
                    _ => t.arrived_ns.saturating_add(t.attained_ns),
                }
            }
        }
    }

    /// Parses the CLI/env spelling: `ps`, `fcfs`, `srpt`, `srpt:<pct>`,
    /// `boost`, `boost:<us>`.
    pub fn parse(s: &str) -> Option<Self> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match (head, arg) {
            ("ps" | "ps-quantum", None) => Some(PolicyKind::PsQuantum),
            ("fcfs", None) => Some(PolicyKind::Fcfs),
            ("srpt", None) => Some(PolicyKind::Srpt { noise_pct: 0 }),
            ("srpt", Some(p)) => Some(PolicyKind::Srpt {
                noise_pct: p.parse().ok()?,
            }),
            ("boost", None) => Some(PolicyKind::Boost {
                boost_us: DEFAULT_BOOST_US,
            }),
            ("boost", Some(b)) => Some(PolicyKind::Boost {
                boost_us: b.parse().ok()?,
            }),
            _ => None,
        }
    }

    /// All four kinds with default parameters, for sweeps and benches.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::PsQuantum,
        PolicyKind::Fcfs,
        PolicyKind::Srpt { noise_pct: 0 },
        PolicyKind::Boost {
            boost_us: DEFAULT_BOOST_US,
        },
    ];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::PsQuantum => write!(f, "ps"),
            PolicyKind::Fcfs => write!(f, "fcfs"),
            PolicyKind::Srpt { noise_pct } => write!(f, "srpt:{noise_pct}"),
            PolicyKind::Boost { boost_us } => write!(f, "boost:{boost_us}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRPT: PolicyKind = PolicyKind::Srpt { noise_pct: 0 };
    const BOOST: PolicyKind = PolicyKind::Boost { boost_us: 10 };

    /// A request with the given size, attained service and arrival — the
    /// exact state the dispatcher's key computation sees on a requeue.
    fn input(id: u64, size_ns: u64, attained_ns: u64, arrived_ns: u64) -> KeyInput {
        KeyInput {
            id,
            size_ns,
            attained_ns,
            arrived_ns,
        }
    }

    /// Regression (pre-fix failure): a request that overran its SRPT
    /// size estimate collapsed to key 0 — the highest possible priority
    /// — and beat every genuinely short fresh request forever.
    #[test]
    fn srpt_overrun_sinks_behind_fresh_short_work() {
        // 10µs request that has already attained 12µs (estimate
        // exhausted, still not done).
        let overrun = input(1, 10_000, 12_000, 0);
        // Fresh 5µs request.
        let fresh = input(2, 5_000, 0, 50_000);
        assert!(
            SRPT.key(overrun) > SRPT.key(fresh),
            "overrunner (key {}) must not outrank fresh short work (key {})",
            SRPT.key(overrun),
            SRPT.key(fresh)
        );
        // And the longer it overruns, the further back it goes.
        let worse = input(1, 10_000, 30_000, 0);
        assert!(SRPT.key(worse) > SRPT.key(overrun));
        // Keys are never 0 (0 would pin the front of the queue).
        assert!(SRPT.key(input(3, 10_000, 10_000, 0)) > 0);
        // Normal SRPT ordering is untouched while the estimate holds.
        let half_done = input(4, 10_000, 6_000, 0);
        assert_eq!(SRPT.key(half_done), 4_000);
        assert!(SRPT.key(half_done) < SRPT.key(fresh));
    }

    /// Regression (pre-fix failure): clamping `remaining` to 1 handed an
    /// overrunning request a B² head start — the largest boost the
    /// policy can express — so it preempted ahead of short fresh work.
    #[test]
    fn boost_overrun_loses_its_headstart() {
        // Arrived at t=1ms, nominal 10µs, attained 10µs: exhausted.
        let overrun = input(1, 10_000, 10_000, 1_000_000);
        // Fresh 1µs request arriving 100µs later.
        let fresh = input(2, 1_000, 0, 1_100_000);
        assert!(
            BOOST.key(overrun) > BOOST.key(fresh),
            "exhausted request (key {}) must not outrank a later short \
             arrival (key {})",
            BOOST.key(overrun),
            BOOST.key(fresh)
        );
        // Pre-fix the exhausted key was arrival − B²/1 = 0 (saturated).
        assert!(BOOST.key(overrun) >= overrun.arrived_ns);
        // Attained service keeps pushing an overrunner later.
        let worse = input(1, 10_000, 40_000, 1_000_000);
        assert!(BOOST.key(worse) > BOOST.key(overrun));
        // In-estimate behavior unchanged: remaining size sets the boost.
        let b = 10_000u64 * 10_000;
        let in_flight = input(3, 10_000, 4_000, 1_000_000);
        assert_eq!(BOOST.key(in_flight), 1_000_000 - b / 6_000);
    }

    #[test]
    fn parse_round_trips_display() {
        for kind in [
            PolicyKind::PsQuantum,
            PolicyKind::Fcfs,
            PolicyKind::Srpt { noise_pct: 0 },
            PolicyKind::Srpt { noise_pct: 25 },
            PolicyKind::Boost { boost_us: 10 },
            PolicyKind::Boost { boost_us: 500 },
        ] {
            assert_eq!(PolicyKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("ps"), Some(PolicyKind::PsQuantum));
        assert_eq!(
            PolicyKind::parse("srpt"),
            Some(PolicyKind::Srpt { noise_pct: 0 })
        );
        assert_eq!(
            PolicyKind::parse("boost"),
            Some(PolicyKind::Boost { boost_us: 10 })
        );
        assert_eq!(PolicyKind::parse("lifo"), None);
        assert_eq!(PolicyKind::parse("srpt:x"), None);
    }

    #[test]
    fn only_fcfs_disables_preemption() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.preempts(), kind != PolicyKind::Fcfs, "policy {kind}");
        }
    }

    /// The round-robin policies key everything 0, whatever the request.
    #[test]
    fn round_robin_policies_key_zero() {
        let r = input(9, 123_456, 7_000, 42_000);
        assert_eq!(PolicyKind::PsQuantum.key(r), 0);
        assert_eq!(PolicyKind::Fcfs.key(r), 0);
    }

    #[test]
    fn srpt_estimate_is_deterministic_and_bounded() {
        for id in 0..200u64 {
            let s = 50_000;
            let e1 = srpt_estimate(20, id, s);
            let e2 = srpt_estimate(20, id, s);
            assert_eq!(e1, e2, "estimate must be deterministic per id");
            assert!(e1 >= s - s / 5 && e1 <= s + s / 5, "id {id}: {e1}");
        }
        // Exact mode passes sizes through untouched.
        assert_eq!(srpt_estimate(0, 7, 12_345), 12_345);
        // The noisy key is the estimate minus attained service.
        let noisy = PolicyKind::Srpt { noise_pct: 20 };
        let e = srpt_estimate(20, 7, 50_000);
        assert_eq!(noisy.key(input(7, 50_000, 1_000, 0)), e - 1_000);
    }

    /// A short request arriving after two long ones: a tiny B keeps
    /// arrival order (FCFS), a large B lets size win (SRPT).
    #[test]
    fn boost_interpolates_fcfs_and_srpt() {
        let long_a = input(0, 100_000, 0, 1_000_000);
        let long_b = input(1, 100_000, 0, 2_000_000);
        let short = input(2, 1_000, 0, 3_000_000);
        let tiny = PolicyKind::Boost { boost_us: 1 };
        assert!(tiny.key(long_a) < tiny.key(long_b));
        assert!(tiny.key(long_b) < tiny.key(short));
        let large = PolicyKind::Boost { boost_us: 100 };
        assert!(large.key(short) < large.key(long_a));
        assert!(large.key(long_a) < large.key(long_b));
    }

    #[test]
    fn boost_headstart_shrinks_with_size() {
        // b(s) = B²/s with B = 10µs: a fresh 1µs request gets a 100µs
        // head start, a fresh 100µs request only 1µs.
        let at = 1_000_000_000;
        assert_eq!(BOOST.key(input(1, 1_000, 0, at)), at - 100_000);
        assert_eq!(BOOST.key(input(2, 100_000, 0, at)), at - 1_000);
    }
}
