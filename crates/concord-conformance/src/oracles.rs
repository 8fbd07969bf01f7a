//! Invariant oracles over execution traces.
//!
//! Each oracle states a paper invariant as an exact equation or bound on
//! the counters a quiescent execution leaves behind. They return
//! human-readable violation strings instead of panicking so a sweep can
//! report *all* broken invariants of a failing case at once, and so the
//! same checks run identically on runtime and simulator executions.

use crate::case::{CaseConfig, FaultKind};
use crate::harness::RuntimeObservation;
use concord_sim::SimResult;

fn check(violations: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        violations.push(msg());
    }
}

/// Runtime oracles (all five paper invariants) on a quiescent execution
/// of any shard count.
pub fn check_runtime(obs: &RuntimeObservation) -> Vec<String> {
    let mut v = Vec::new();

    check(&mut v, obs.collected_ok, || {
        format!(
            "collector timed out: received {} of {} expected responses",
            obs.received, obs.expected
        )
    });
    check(&mut v, obs.rx_dropped == 0, || {
        format!(
            "load generator dropped {} requests on the RX ring",
            obs.rx_dropped
        )
    });

    // 1. Request conservation: every ingested request completes or fails
    //    (failures are answered too), and every completion the TX path
    //    didn't drop reaches the collector.
    check(&mut v, obs.ingested == obs.completed + obs.failed, || {
        format!(
            "conservation: ingested {} != completed {} + failed {}",
            obs.ingested, obs.completed, obs.failed
        )
    });
    check(&mut v, obs.ingested == obs.sent, || {
        format!(
            "conservation: ingested {} != sent {}",
            obs.ingested, obs.sent
        )
    });
    check(
        &mut v,
        obs.received == obs.ingested - obs.tx_dropped.min(obs.ingested),
        || {
            format!(
                "conservation: received {} != ingested {} - tx_dropped {}",
                obs.received, obs.ingested, obs.tx_dropped
            )
        },
    );

    // 1b. Per-shard books: ingest is charged to the polling shard, a
    //     hand-off to the giver (`offloaded`) and the taker
    //     (`steals_in`), completion to the running shard, so each shard
    //     balances exactly; no hand-off is lost in a mailbox or taken
    //     twice; and each shard's TX ring carries the answers to what
    //     that shard ingested, whichever shard ran it. At one shard
    //     these restate the laws above.
    let mut offloaded = 0u64;
    let mut steals_in = 0u64;
    for (i, s) in obs.rollup.per_shard.iter().enumerate() {
        offloaded += s.offloaded;
        steals_in += s.steals_in;
        check(&mut v, s.books_balance(), || {
            format!(
                "books: shard {i} ingested {} + steals_in {} != completed {} + failed {} + offloaded {}",
                s.ingested, s.steals_in, s.completed, s.failed, s.offloaded
            )
        });
        let answered = obs.received_per_shard.get(i).copied().unwrap_or(0);
        let owed = s.ingested - s.tx_dropped.min(s.ingested);
        check(&mut v, answered == owed, || {
            format!(
                "answers: shard {i} TX ring carried {answered} != ingested {} - tx_dropped {}",
                s.ingested, s.tx_dropped
            )
        });
    }
    check(&mut v, offloaded == steals_in, || {
        format!("hand-off: Σ offloaded {offloaded} != Σ steals_in {steals_in}")
    });

    // 2. Bounded queues: JBSQ occupancy never exceeded k on any worker
    //    of any shard.
    let n = obs.case.n_workers.max(1);
    for (i, w) in obs.per_worker.iter().enumerate() {
        check(&mut v, w.queue_max <= obs.case.jbsq_depth as u64, || {
            format!(
                "jbsq bound: shard {} worker {} reached occupancy {} > k={}",
                i / n,
                i % n,
                w.queue_max,
                obs.case.jbsq_depth
            )
        });
    }

    // 3. Work conservation: the dispatcher tripwire never fired.
    check(&mut v, obs.work_conservation_violations == 0, || {
        format!(
            "work conservation: dispatcher idled {} times with runnable work and capacity",
            obs.work_conservation_violations
        )
    });

    // 4. No lost preemption: every signal store has exactly one fate
    //    (consumed, obsolete, or stale), consumed signals map 1:1 onto
    //    observed preemptions, and only the injector may suppress stores.
    check(&mut v, obs.signals_sent == obs.acct.total(), || {
        format!(
            "signal accounting: sent {} != consumed {} + obsolete {} + stale {}",
            obs.signals_sent, obs.acct.consumed, obs.acct.obsolete, obs.acct.stale
        )
    });
    check(&mut v, obs.acct.consumed == obs.preemptions, || {
        format!(
            "signal accounting: consumed {} != preemptions {}",
            obs.acct.consumed, obs.preemptions
        )
    });
    if obs.case.fault == FaultKind::None {
        check(&mut v, obs.signals_dropped_injected == 0, || {
            format!(
                "signal accounting: {} stores suppressed without an injector",
                obs.signals_dropped_injected
            )
        });
    }

    // 5. Monotone telemetry: per-source completion stamps never ran
    //    backwards, and every finished request was recorded (minus
    //    explicitly-counted ring drops).
    check(&mut v, obs.telemetry.timestamp_regressions == 0, || {
        format!(
            "telemetry: {} completion stamps ran backwards",
            obs.telemetry.timestamp_regressions
        )
    });
    check(
        &mut v,
        obs.telemetry.recorded + obs.telemetry_dropped == obs.completed + obs.failed,
        || {
            format!(
                "telemetry: recorded {} + dropped {} != completed {} + failed {}",
                obs.telemetry.recorded, obs.telemetry_dropped, obs.completed, obs.failed
            )
        },
    );

    // 5b. Per-class conservation: the dispatcher's ingest-side class
    //     tallies and telemetry's completion-side class rows use the
    //     same deterministic fold, so with no telemetry loss they must
    //     agree class by class, and the class rows must partition the
    //     global ingest count exactly. (ClassTelemetry::completed
    //     includes contained failures, matching the ingest side.)
    if obs.telemetry_dropped == 0 {
        let ingest: std::collections::BTreeMap<u16, u64> =
            obs.ingested_by_class.iter().copied().collect();
        let ingest_sum: u64 = ingest.values().sum();
        check(&mut v, ingest_sum == obs.ingested, || {
            format!(
                "per-class conservation: class ingest rows sum to {} != ingested {}",
                ingest_sum, obs.ingested
            )
        });
        let mut classes: std::collections::BTreeSet<u16> = ingest.keys().copied().collect();
        classes.extend(obs.telemetry.per_class.keys().copied());
        for class in classes {
            let ingested_c = ingest.get(&class).copied().unwrap_or(0);
            let completed_c = obs
                .telemetry
                .per_class
                .get(&class)
                .map_or(0, |c| c.completed);
            check(&mut v, ingested_c == completed_c, || {
                format!(
                    "per-class conservation: class {class} ingested {} != completed+failed {}",
                    ingested_c, completed_c
                )
            });
        }
    }

    // Quantum-table sanity: the table a quiescent run leaves behind
    // holds a positive quantum in every slot (adaptive retunes clamp to
    // [probe period, quantum_max], fixed runs never move).
    check(&mut v, obs.quanta_ns.iter().all(|&q| q > 0), || {
        format!("quantum table holds a zero slot: {:?}", obs.quanta_ns)
    });

    // Per-worker rows must sum to the globals (failures included), so the
    // breakdowns can be trusted when an oracle above points at a worker.
    let sum_failed: u64 = obs.per_worker.iter().map(|w| w.failed).sum();
    let sum_preempted: u64 = obs.per_worker.iter().map(|w| w.preempted).sum();
    check(&mut v, sum_failed <= obs.failed, || {
        format!(
            "per-worker failed rows sum to {} > global {}",
            sum_failed, obs.failed
        )
    });
    check(&mut v, sum_preempted <= obs.preemptions, || {
        format!(
            "per-worker preempted rows sum to {} > global {}",
            sum_preempted, obs.preemptions
        )
    });

    // Fault-specific exact expectations.
    if let FaultKind::RejectTx(n) = obs.case.fault {
        check(&mut v, obs.tx_dropped == u64::from(n), || {
            format!(
                "fault: injected {} TX rejects but tx_dropped is {}",
                n, obs.tx_dropped
            )
        });
    } else {
        check(&mut v, obs.tx_dropped == 0, || {
            format!(
                "fault: {} responses dropped without TX injection",
                obs.tx_dropped
            )
        });
    }
    if let FaultKind::PanicOn { .. } = obs.case.fault {
        check(&mut v, obs.failed == 1, || {
            format!("fault: injected 1 panic but failed is {}", obs.failed)
        });
        check(
            &mut v,
            sum_failed + obs.dispatcher_failed() >= obs.failed,
            || "fault: panic not attributed to any worker row".to_string(),
        );
    } else {
        check(&mut v, obs.failed == 0, || {
            format!("fault: {} failures without panic injection", obs.failed)
        });
    }

    v
}

impl RuntimeObservation {
    /// Failures not attributed to any worker row (i.e. contained on the
    /// work-conserving dispatcher itself).
    pub fn dispatcher_failed(&self) -> u64 {
        let sum: u64 = self.per_worker.iter().map(|w| w.failed).sum();
        self.failed.saturating_sub(sum)
    }
}

/// Trace-replay oracle: re-derives the scheduling invariants from the
/// quiescent event stream *alone* and checks them against the counter
/// world. The two views share no bookkeeping — the counters are atomics
/// bumped at the action sites, the trace is what the per-core rings
/// carried — so agreement here means the events faithfully describe what
/// the scheduler did.
///
/// A multi-shard run's trace is the shards' traces merged; it is read
/// shard by shard, and its inter-shard `STEAL` events must match the
/// hand-offs the counters took.
///
/// With `trace_dropped > 0` (overflow under a stalled collector) only the
/// structural per-track timestamp monotonicity is checked: a lossy trace
/// cannot support exact replay accounting.
pub fn check_trace(obs: &RuntimeObservation) -> Vec<String> {
    use concord_trace::EventKind;
    let mut v = Vec::new();
    let Some(s) = obs.trace.as_ref() else {
        return v; // tracer disarmed
    };

    check(&mut v, s.monotone_violations == 0, || {
        format!(
            "trace: {} per-track timestamp regressions",
            s.monotone_violations
        )
    });
    if obs.trace_dropped > 0 {
        return v;
    }

    check(&mut v, s.negative_occupancy == 0, || {
        format!(
            "trace: occupancy replay went negative {} times",
            s.negative_occupancy
        )
    });
    // JBSQ ≤ k, re-derived purely from DISPATCH/YIELD/COMPLETE events.
    for (i, &occ) in s.max_occupancy.iter().enumerate() {
        check(&mut v, u64::from(occ) <= obs.case.jbsq_depth as u64, || {
            format!(
                "trace: replayed occupancy {} on shard {} worker {} > k={}",
                occ,
                i / s.n_workers,
                i % s.n_workers,
                obs.case.jbsq_depth
            )
        });
    }

    let pairs = [
        (EventKind::Arrive, obs.ingested, "ingested"),
        (EventKind::Complete, obs.completed + obs.failed, "finished"),
        (EventKind::SignalSent, obs.signals_sent, "signals_sent"),
        (EventKind::TxDrop, obs.tx_dropped, "tx_dropped"),
        (EventKind::AdmitDrop, obs.admission_shed, "admission_shed"),
    ];
    for (kind, counter, name) in pairs {
        check(&mut v, s.count(kind) == counter, || {
            format!(
                "trace: {} {} events but counter {name} is {counter}",
                s.count(kind),
                kind.name()
            )
        });
    }
    let steals_in: u64 = obs.rollup.per_shard.iter().map(|r| r.steals_in).sum();
    check(&mut v, s.total_steals() == steals_in, || {
        format!(
            "trace: {} inter-shard STEAL events but counters took {steals_in} hand-offs",
            s.total_steals()
        )
    });
    check(&mut v, s.worker_yields == obs.preemptions, || {
        format!(
            "trace: {} worker YIELDs but preemptions counter is {}",
            s.worker_yields, obs.preemptions
        )
    });
    // Signal-fate accounting from events alone: every consumed signal is
    // a SIGNAL_SENT→YIELD pair on the same (worker, generation).
    check(&mut v, s.matched_preemptions == obs.acct.consumed, || {
        format!(
            "trace: {} matched signal->yield pairs but {} signals consumed",
            s.matched_preemptions, obs.acct.consumed
        )
    });
    check(
        &mut v,
        s.matched_preemptions == obs.telemetry.preemptions_recorded(),
        || {
            format!(
                "trace: {} matched pairs but telemetry recorded {} preemption latencies",
                s.matched_preemptions,
                obs.telemetry.preemptions_recorded()
            )
        },
    );
    // The trace-derived signal->yield p99 and the telemetry histogram
    // measure the same stamps through independent channels; they must
    // agree within the cross-validation envelope.
    if !s.signal_to_yield.is_empty() && obs.telemetry.preemptions_recorded() > 0 {
        let tp99 = s.signal_to_yield.percentile(99.0) as f64;
        let mp99 = obs.telemetry.preemption_p99_ns() as f64;
        let tol = cross_tolerance();
        let slack = cross_slack_us() * 1_000.0; // µs of wall noise, in ns
        let within = tp99 <= mp99 * tol + slack && mp99 <= tp99 * tol + slack;
        check(&mut v, within, || {
            format!(
                "trace: signal->yield p99 disagrees beyond {tol}x (+{slack:.0}ns): \
                 trace {tp99:.0}ns vs telemetry {mp99:.0}ns"
            )
        });
    }

    v
}

/// Admission-gate oracles, for any transport that fronts the runtime with
/// an [`AdmissionQueue`](concord_core::AdmissionQueue) (the TCP server,
/// or an in-process gate):
///
/// 1. **Balance** — every offered request is admitted or shed, exactly
///    once: `offered == admitted + shed`.
/// 2. **Per-class agreement** — the per-class rows sum to the totals.
/// 3. **Trace agreement** (when a loss-free quiescent trace is given) —
///    one `ADMIT_DROP` event per shed request.
pub fn check_admission(
    counters: &concord_core::AdmissionCounters,
    trace: Option<&concord_trace::TraceSummary>,
) -> Vec<String> {
    use concord_trace::EventKind;
    let mut v = Vec::new();
    let offered = counters.offered();
    let shed = counters.shed();
    let admitted = offered - shed; // offered is defined as admitted + shed
    let per_class = counters.per_class();

    let class_admitted: u64 = per_class.values().map(|c| c.admitted).sum();
    let class_shed: u64 = per_class.values().map(|c| c.shed()).sum();
    check(&mut v, class_admitted == admitted, || {
        format!("admission: per-class admitted {class_admitted} != total {admitted}")
    });
    check(&mut v, class_shed == shed, || {
        format!("admission: per-class shed {class_shed} != total {shed}")
    });

    if let Some(s) = trace {
        check(&mut v, s.count(EventKind::AdmitDrop) == shed, || {
            format!(
                "admission: {} ADMIT_DROP trace events but shed counter is {shed}",
                s.count(EventKind::AdmitDrop)
            )
        });
    }
    v
}

/// Simulator oracles on the same case.
pub fn check_sim(r: &SimResult, case: &CaseConfig) -> Vec<String> {
    let mut v = Vec::new();

    // 1. Conservation over the whole run, warmup included.
    check(&mut v, r.arrivals == r.completed + r.incomplete, || {
        format!(
            "sim conservation: arrivals {} != completed {} + incomplete {}",
            r.arrivals, r.completed, r.incomplete
        )
    });
    check(&mut v, r.arrivals == case.requests, || {
        format!(
            "sim conservation: arrivals {} != requested {}",
            r.arrivals, case.requests
        )
    });
    // At the conformance operating points (≤ 60% load) the sim drains.
    check(&mut v, r.incomplete == 0, || {
        format!(
            "sim left {} requests incomplete at {}% load",
            r.incomplete, case.load_pct
        )
    });

    // 2. Bounded queues.
    check(
        &mut v,
        r.max_jbsq_inflight <= case.jbsq_depth as u64,
        || {
            format!(
                "sim jbsq bound: occupancy {} > k={}",
                r.max_jbsq_inflight, case.jbsq_depth
            )
        },
    );

    // Sanity: time advanced and the tail is well-formed.
    check(&mut v, r.span_cycles > 0, || "sim span is zero".into());
    check(&mut v, r.p999_slowdown() >= 0.99, || {
        format!("sim p999 slowdown {} < 1", r.p999_slowdown())
    });

    v
}

/// Tolerance factor for runtime↔sim slowdown comparison.
///
/// Deliberately loose (default 100×, override via `CONCORD_CONF_TOL`):
/// the cross-check catches *order-of-magnitude* disagreement — a
/// scheduling pathology one engine has and the other doesn't — not
/// percentage error; the exact invariants above carry the precision.
pub fn cross_tolerance() -> f64 {
    std::env::var("CONCORD_CONF_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100.0)
}

/// Additive scheduler-noise allowance for the slowdown comparison, in
/// microseconds of wall time (default 50 ms, override via
/// `CONCORD_CONF_SLACK_US`; 0 makes the check purely multiplicative).
///
/// The runtime runs on shared, possibly single-core CI hardware where a
/// single OS preemption suspends a spinning worker for milliseconds. On a
/// 1 µs request such a hiccup *is* a 1000× slowdown — the runtime
/// measured it correctly, the hardware caused it — so the comparison
/// grants each percentile one hiccup's worth of slowdown on the *smallest*
/// service class: `slack_us / short_us`. On dedicated hardware export
/// `CONCORD_CONF_SLACK_US=0` (and a small `CONCORD_CONF_TOL`) for a sharp
/// check.
pub fn cross_slack_us() -> f64 {
    std::env::var("CONCORD_CONF_SLACK_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000.0)
}

/// Cross-validation of a fault-free case: both engines completed the same
/// requests, and their p50/p99 slowdowns agree within
/// [`cross_tolerance`] plus the [`cross_slack_us`] noise allowance.
pub fn check_cross(obs: &RuntimeObservation, sim: &SimResult) -> Vec<String> {
    let mut v = Vec::new();

    check(
        &mut v,
        obs.completed == sim.completed + sim.incomplete,
        || {
            format!(
                "cross: runtime completed {} but sim completed {} (+{} incomplete)",
                obs.completed, sim.completed, sim.incomplete
            )
        },
    );

    let tol = cross_tolerance();
    // One OS hiccup on the smallest service class, expressed as slowdown.
    let slack = cross_slack_us() / f64::max(obs.case.short_us as f64, 1.0);
    let pairs = [
        ("p50", obs.telemetry.slowdown_p50(), sim.median_slowdown()),
        ("p99", obs.telemetry.slowdown_p99(), sim.slowdown.p99()),
    ];
    for (name, rt, sm) in pairs {
        check(&mut v, rt.is_finite() && rt > 0.0, || {
            format!("cross: runtime {name} slowdown is {rt}")
        });
        check(&mut v, sm.is_finite() && sm > 0.0, || {
            format!("cross: sim {name} slowdown is {sm}")
        });
        if rt > 0.0 && sm > 0.0 {
            // Symmetric: each side must lie under the other's envelope.
            let within = rt <= sm * tol + slack && sm <= rt * tol + slack;
            check(&mut v, within, || {
                format!(
                    "cross: {name} slowdown disagrees beyond {tol}x (+{slack:.0} slack): \
                     runtime {rt:.2} vs sim {sm:.2}"
                )
            });
        }
    }

    v
}

/// Per-policy oracles: each scheduling policy makes a promise beyond the
/// five shared invariants, checked here from counters and — where an
/// exact replay is possible — from the raw event stream.
///
/// * **`PsQuantum`** — the quantum-PS baseline is pinned structurally by
///   the golden-schedule tests on `CentralQueue` and by the virtual-time
///   "short requests are never preempted" test; the five shared
///   invariants already constrain its counters, so nothing extra here.
/// * **`Fcfs`** — run to completion: the dispatcher never polices
///   quanta, so zero preemption activity exists anywhere in the system —
///   even under injected signal faults, which have no signals to act on.
///   On a single worker without dispatcher work stealing, completion
///   order must additionally equal arrival order (FIFO).
/// * **`Srpt`** — a dispatched *fresh* (never-run) request must carry
///   the minimum estimated service time among all fresh queued requests.
///   The estimates are deterministic per request id (seeded noise), so
///   the replay reproduces them exactly — noisy estimates are checked
///   against their own noisy ordering, per Scully & Harchol-Balter.
/// * **`Boost`** — the same replay with the boosted-arrival key
///   `t_arrive − B²/size` (Yu & Scully).
///
/// The replay oracles need a loss-free one-shard raw trace and skip
/// silently when the tracer is disarmed or overflowed, or when the run
/// had several shards: a hand-off removes a task from its owner's queue
/// with no event on the owner's track, so no one-queue replay holds.
pub fn check_policy(obs: &RuntimeObservation) -> Vec<String> {
    use concord_core::PolicyKind;
    let mut v = Vec::new();
    let replayable = obs.trace_dropped == 0 && obs.case.shards == 1;
    match obs.case.policy {
        PolicyKind::PsQuantum => {}
        PolicyKind::Fcfs => {
            check(&mut v, obs.signals_sent == 0, || {
                format!(
                    "fcfs: {} preemption signals sent under run-to-completion",
                    obs.signals_sent
                )
            });
            check(&mut v, obs.preemptions == 0, || {
                format!(
                    "fcfs: {} preemptions under run-to-completion",
                    obs.preemptions
                )
            });
            check(&mut v, obs.expiries_deferred == 0, || {
                format!(
                    "fcfs: {} expiries observed with quantum policing disabled",
                    obs.expiries_deferred
                )
            });
            check(&mut v, obs.acct.total() == 0, || {
                format!(
                    "fcfs: signal fates recorded ({} consumed / {} obsolete / {} stale) \
                     with quantum policing disabled",
                    obs.acct.consumed, obs.acct.obsolete, obs.acct.stale
                )
            });
            // Injected signal faults act on the policing path, which
            // never runs: the injector must have found nothing to drop.
            check(&mut v, obs.signals_dropped_injected == 0, || {
                format!(
                    "fcfs: fault injector claimed {} signals that were never sent",
                    obs.signals_dropped_injected
                )
            });
            if obs.case.n_workers == 1 && !obs.case.work_conserving && replayable {
                if let Some(t) = obs.raw_trace.as_ref() {
                    v.extend(check_fifo_completion(t));
                }
            }
        }
        PolicyKind::Srpt { noise_pct } => {
            if replayable {
                if let Some(t) = obs.raw_trace.as_ref() {
                    v.extend(check_fresh_priority(t, "srpt", |id, service_ns, _| {
                        concord_core::policy::srpt_estimate(noise_pct, id, service_ns)
                    }));
                }
            }
        }
        PolicyKind::Boost { boost_us } => {
            if replayable {
                if let Some(t) = obs.raw_trace.as_ref() {
                    let b = boost_us.saturating_mul(1_000);
                    v.extend(check_fresh_priority(
                        t,
                        "boost",
                        |_, service_ns, arrive_ns| {
                            arrive_ns.saturating_sub(b.saturating_mul(b) / service_ns.max(1))
                        },
                    ));
                }
            }
        }
    }
    v
}

/// FIFO replay for a single-worker, non-work-conserving FCFS execution:
/// the id sequence of `COMPLETE` events on the worker track must equal
/// the id sequence of `ARRIVE` events on the dispatcher track. (With one
/// worker and no dispatcher slices, dispatch order is completion order.)
fn check_fifo_completion(trace: &concord_trace::Trace) -> Vec<String> {
    use concord_trace::EventKind;
    let mut v = Vec::new();
    let d = trace.dispatcher_track();
    let arrivals: Vec<u64> = trace
        .records
        .iter()
        .filter(|r| r.track == d && r.ev.kind() == EventKind::Arrive)
        .map(|r| r.ev.id())
        .collect();
    let completions: Vec<u64> = trace
        .records
        .iter()
        .filter(|r| r.track != d && r.ev.kind() == EventKind::Complete)
        .map(|r| r.ev.id())
        .collect();
    check(&mut v, arrivals == completions, || {
        let at = arrivals
            .iter()
            .zip(&completions)
            .position(|(a, c)| a != c)
            .unwrap_or_else(|| arrivals.len().min(completions.len()));
        format!(
            "fcfs: completion order diverges from arrival order at position {at} \
             ({} arrivals, {} completions)",
            arrivals.len(),
            completions.len()
        )
    });
    v
}

/// Replays the dispatcher track maintaining the set of *fresh*
/// (never-dispatched) queued requests, and asserts that every fresh
/// request leaving the queue — by `DISPATCH` or a work-conserving
/// `STEAL`, both of which pop the best-ranked fresh entry — carried a
/// key no greater than any fresh request left behind. Requeued requests
/// carry keys the trace cannot reconstruct (their remaining work changes
/// every slice), so only fresh picks are checked; for requests that are
/// never preempted that is every pick.
///
/// `key(id, service_ns, arrive_ns)` mirrors the policy's fresh-task key;
/// the service time is recovered from the `ARRIVE` generation field
/// (microseconds).
fn check_fresh_priority(
    trace: &concord_trace::Trace,
    name: &str,
    key: impl Fn(u64, u64, u64) -> u64,
) -> Vec<String> {
    use concord_trace::EventKind;
    use std::collections::HashMap;
    let mut v = Vec::new();
    let d = trace.dispatcher_track();
    let mut fresh: HashMap<u64, u64> = HashMap::new();
    let mut inversions = 0u64;
    let mut example = None;
    for r in trace.records.iter().filter(|r| r.track == d) {
        match r.ev.kind() {
            EventKind::Arrive => {
                let service_ns = r.ev.gen().saturating_mul(1_000);
                fresh.insert(r.ev.id(), key(r.ev.id(), service_ns, r.ev.ts_ns));
            }
            EventKind::Dispatch | EventKind::Steal => {
                if let Some(k) = fresh.remove(&r.ev.id()) {
                    let best = fresh.iter().min_by_key(|&(_, bk)| *bk);
                    if let Some((&bid, &bk)) = best {
                        if k > bk {
                            inversions += 1;
                            example.get_or_insert_with(|| {
                                format!(
                                    "request {} (key {k}) picked over request {bid} (key {bk})",
                                    r.ev.id()
                                )
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
    check(&mut v, inversions == 0, || {
        format!(
            "{name}: {inversions} priority inversions on fresh dispatches, e.g. {}",
            example.unwrap_or_default()
        )
    });
    v
}

/// What the rack's clients observed in aggregate, summed across every
/// connection of a loopback run. Callers must have let every client
/// drain (wait for a response to each sent request) before tallying.
#[derive(Clone, Copy, Debug, Default)]
pub struct RackClientTotals {
    /// Requests written to rack connections.
    pub sent: u64,
    /// Ok responses received.
    pub completed: u64,
    /// RETRY responses received (backend admission, rack-local
    /// rejection, or failover — the client cannot tell them apart).
    pub rejected: u64,
    /// Failed-status responses received.
    pub failed: u64,
    /// Requests with no response of any kind.
    pub unaccounted: u64,
}

/// Rack-tier conservation oracle: the front-end balancer's ledger and
/// its clients' ledgers must agree *exactly*, even across backend
/// deaths mid-load.
///
/// 1. **Rack-internal identities** — `requests_in == forwarded +
///    rejected_local` and every forwarded request settled exactly once
///    ([`concord_rack::RackReport::check`]).
/// 2. **Quiescence** — nothing pending at exit, nothing unaccounted on
///    any client (which also rules out cross-connection misdelivery:
///    a response delivered to the wrong connection leaves a hole in
///    the rightful owner's per-id ledger).
/// 3. **Ledger agreement** — Σ client-sent == requests_in, and each
///    client-visible disposition matches the rack counter that
///    produced it (`relayed_ok`/`relayed_failed`; RETRYs pool
///    `relayed_retry + failed_over + rejected_local`).
/// 4. **No silent drops** — `relay_dropped == 0` (clients drained, so
///    no response may have been addressed to a vanished connection)
///    and `orphaned == 0` (no response matched an already-settled
///    request).
pub fn check_rack(report: &concord_rack::RackReport, clients: &RackClientTotals) -> Vec<String> {
    let mut v = Vec::new();
    if let Err(why) = report.check() {
        v.push(format!("rack: {why}"));
    }
    check(&mut v, report.pending_at_exit == 0, || {
        format!(
            "rack: {} requests still pending at exit",
            report.pending_at_exit
        )
    });
    check(&mut v, clients.unaccounted == 0, || {
        format!(
            "rack clients: {} requests got no response (loss or misdelivery)",
            clients.unaccounted
        )
    });
    check(&mut v, clients.sent == report.requests_in, || {
        format!(
            "rack ledger: clients sent {} but rack decoded {}",
            clients.sent, report.requests_in
        )
    });
    check(&mut v, clients.completed == report.relayed_ok, || {
        format!(
            "rack ledger: clients saw {} Ok but rack relayed {}",
            clients.completed, report.relayed_ok
        )
    });
    check(&mut v, clients.failed == report.relayed_failed, || {
        format!(
            "rack ledger: clients saw {} Failed but rack relayed {}",
            clients.failed, report.relayed_failed
        )
    });
    let retries = report.relayed_retry + report.failed_over + report.rejected_local;
    check(&mut v, clients.rejected == retries, || {
        format!(
            "rack ledger: clients saw {} RETRY but rack produced {} \
             (relayed {} + failed_over {} + rejected_local {})",
            clients.rejected,
            retries,
            report.relayed_retry,
            report.failed_over,
            report.rejected_local
        )
    });
    check(&mut v, report.relay_dropped == 0, || {
        format!(
            "rack: {} responses dropped for vanished clients in a drained run",
            report.relay_dropped
        )
    });
    check(&mut v, report.orphaned == 0, || {
        format!("rack: {} orphaned responses", report.orphaned)
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::ArrivalKind;
    use concord_core::preempt::SignalAccounting;

    fn clean_obs() -> RuntimeObservation {
        let case = CaseConfig {
            seed: 0,
            n_workers: 2,
            jbsq_depth: 2,
            quantum_us: 100,
            work_conserving: true,
            arrival: ArrivalKind::Poisson,
            short_us: 1,
            long_us: 20,
            short_weight: 50,
            requests: 10,
            load_pct: 10,
            fault: FaultKind::None,
            policy: concord_core::PolicyKind::PsQuantum,
            shards: 1,
        };
        let telemetry = {
            let mut t = concord_core::telemetry::Telemetry::new();
            for i in 0..10 {
                t.record(&concord_core::CompletionRecord {
                    queue_ns: 100,
                    service_ns: 1_000,
                    sojourn_ns: 1_100,
                    nominal_ns: 1_000,
                    completed_at_ns: 1_000 * (i + 1),
                    slices: 1,
                    worker: 0,
                    class: 0,
                    failed: false,
                });
            }
            // The two preemptions each measured a 2ns signal->yield
            // interval (matches the hand-built trace in matching_trace).
            t.record_preemption_latency(2);
            t.record_preemption_latency(2);
            t.snapshot()
        };
        RuntimeObservation {
            case,
            sent: 10,
            rx_dropped: 0,
            received: 10,
            received_per_shard: vec![10],
            collected_ok: true,
            expected: 10,
            ingested: 10,
            completed: 10,
            failed: 0,
            tx_dropped: 0,
            telemetry_dropped: 0,
            signals_sent: 3,
            expiries_deferred: 0,
            signals_dropped_injected: 0,
            preemptions: 2,
            work_conservation_violations: 0,
            admission_shed: 0,
            ingested_by_class: vec![(0, 10)],
            quanta_ns: vec![100_000; 33],
            acct: SignalAccounting {
                consumed: 2,
                obsolete: 1,
                stale: 0,
            },
            per_worker: vec![
                concord_core::WorkerStatsSnapshot {
                    completed: 6,
                    preempted: 2,
                    failed: 0,
                    queue_max: 2,
                    signals_consumed: 2,
                    signals_obsolete: 1,
                    signals_stale: 0,
                    trace_dropped: 0,
                },
                concord_core::WorkerStatsSnapshot {
                    completed: 4,
                    preempted: 0,
                    failed: 0,
                    queue_max: 1,
                    signals_consumed: 0,
                    signals_obsolete: 0,
                    signals_stale: 0,
                    trace_dropped: 0,
                },
            ],
            telemetry,
            rollup: concord_core::ShardRollup {
                per_shard: vec![concord_core::ShardCounters {
                    ingested: 10,
                    completed: 10,
                    queue_max: vec![2, 1],
                    ..Default::default()
                }],
            },
            trace_dropped: 0,
            trace: None,
            raw_trace: None,
        }
    }

    /// A hand-built event stream that exactly matches [`clean_obs`]'s
    /// counters: 10 arrivals through worker 0, the first two preempted
    /// by matched signals, one extra signal landing obsolete.
    fn matching_trace() -> concord_trace::TraceSummary {
        use concord_trace::{EventKind as K, Trace, TraceEvent};
        fn step(t: &mut Trace, ts: &mut u64, track: u32, k: K, id: u64, gen: u64) {
            *ts += 1;
            t.record(track, TraceEvent::new(*ts, k, id, gen));
        }
        let mut t = Trace::new(2);
        let d = 2; // dispatcher track
        let mut ts = 0u64;
        for i in 0..10u64 {
            let gen = i + 1;
            step(&mut t, &mut ts, d, K::Arrive, i, 0);
            step(&mut t, &mut ts, d, K::Dispatch, i, 0);
            step(&mut t, &mut ts, 0, K::Resume, i, gen);
            if i < 2 {
                step(&mut t, &mut ts, d, K::SignalSent, 0, gen);
                step(&mut t, &mut ts, 0, K::SignalSeen, i, gen);
                step(&mut t, &mut ts, 0, K::Yield, i, gen);
                step(&mut t, &mut ts, d, K::Dispatch, i, 0);
                step(&mut t, &mut ts, 0, K::Resume, i, gen + 100);
            }
            step(
                &mut t,
                &mut ts,
                0,
                K::Complete,
                i,
                if i < 2 { 2 } else { 1 },
            );
        }
        // Third signal store: landed on an idle line (obsolete fate) —
        // no YIELD ever matches it.
        step(&mut t, &mut ts, d, K::SignalSent, 0, 999);
        concord_trace::TraceSummary::from_trace(&t)
    }

    #[test]
    fn clean_observation_passes_all_oracles() {
        let v = check_runtime(&clean_obs());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn conservation_violation_is_reported() {
        let mut obs = clean_obs();
        obs.completed = 9; // one request vanished
        let v = check_runtime(&obs);
        assert!(
            v.iter().any(|m| m.contains("conservation")),
            "missing conservation violation in {v:?}"
        );
    }

    #[test]
    fn jbsq_overflow_is_reported() {
        let mut obs = clean_obs();
        obs.per_worker[1].queue_max = 5;
        let v = check_runtime(&obs);
        assert!(v.iter().any(|m| m.contains("jbsq bound")), "{v:?}");
    }

    #[test]
    fn lost_signal_is_reported() {
        let mut obs = clean_obs();
        obs.signals_sent = 4; // one signal has no fate
        let v = check_runtime(&obs);
        assert!(v.iter().any(|m| m.contains("signal accounting")), "{v:?}");
    }

    #[test]
    fn work_conservation_tripwire_is_reported() {
        let mut obs = clean_obs();
        obs.work_conservation_violations = 1;
        let v = check_runtime(&obs);
        assert!(v.iter().any(|m| m.contains("work conservation")), "{v:?}");
    }

    #[test]
    fn uninjected_failure_is_reported() {
        let mut obs = clean_obs();
        obs.failed += 1;
        obs.ingested += 1;
        obs.sent += 1;
        obs.received += 1;
        let v = check_runtime(&obs);
        assert!(
            v.iter().any(|m| m.contains("without panic injection")),
            "{v:?}"
        );
    }

    #[test]
    fn absent_trace_passes_trace_oracle() {
        // trace: None models a disarmed tracer;
        // the replay oracle must be a no-op, not a failure.
        let v = check_trace(&clean_obs());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn matching_trace_passes_trace_oracle() {
        let mut obs = clean_obs();
        obs.trace = Some(matching_trace());
        let v = check_trace(&obs);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn trace_counter_mismatch_is_reported() {
        let mut obs = clean_obs();
        // An empty event stream cannot account for 10 ingested requests.
        obs.trace = Some(concord_trace::TraceSummary::from_trace(
            &concord_trace::Trace::new(2),
        ));
        let v = check_trace(&obs);
        assert!(v.iter().any(|m| m.contains("trace:")), "{v:?}");
    }

    #[test]
    fn lossy_trace_skips_exact_accounting() {
        let mut obs = clean_obs();
        obs.trace = Some(concord_trace::TraceSummary::from_trace(
            &concord_trace::Trace::new(2),
        ));
        obs.trace_dropped = 7; // overflow: counts are truncated, not wrong
        let v = check_trace(&obs);
        assert!(v.is_empty(), "lossy trace must skip count checks: {v:?}");
    }

    /// [`clean_obs`] on two shards: shard 0 ingested everything and
    /// handed two never-started tasks to shard 1, which asked for them,
    /// completed them and sent their answers home through shard 0.
    fn clean_two_shard_obs() -> RuntimeObservation {
        use concord_core::ShardCounters;
        let mut obs = clean_obs();
        obs.case.shards = 2;
        obs.received_per_shard = vec![10, 0];
        obs.rollup.per_shard = vec![
            ShardCounters {
                ingested: 10,
                completed: 8,
                offloaded: 2,
                queue_max: vec![2, 1],
                ..Default::default()
            },
            ShardCounters {
                completed: 2,
                steals_in: 2,
                queue_max: vec![1, 0],
                ..Default::default()
            },
        ];
        obs
    }

    #[test]
    fn clean_sharded_observation_passes() {
        let v = check_runtime(&clean_two_shard_obs());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn lost_hand_off_is_reported() {
        // Shard 0 gave a third task that no mailbox delivered.
        let mut obs = clean_two_shard_obs();
        obs.rollup.per_shard[0].offloaded = 3;
        obs.rollup.per_shard[0].completed = 7;
        let v = check_runtime(&obs);
        assert!(
            v.iter()
                .any(|m| m.contains("hand-off: Σ offloaded 3 != Σ steals_in 2")),
            "{v:?}"
        );
    }

    #[test]
    fn over_delivered_hand_off_is_reported() {
        // Shard 1 took (and ran) one hand-off twice.
        let mut obs = clean_two_shard_obs();
        obs.rollup.per_shard[1].steals_in = 3;
        obs.rollup.per_shard[1].completed = 3;
        let v = check_runtime(&obs);
        assert!(
            v.iter()
                .any(|m| m.contains("hand-off: Σ offloaded 2 != Σ steals_in 3")),
            "{v:?}"
        );
    }

    #[test]
    fn per_shard_book_imbalance_is_reported() {
        // A completion charged to the wrong shard: the sums still hold.
        let mut obs = clean_two_shard_obs();
        obs.rollup.per_shard[0].completed = 9;
        obs.rollup.per_shard[1].completed = 1;
        let v = check_runtime(&obs);
        assert!(v.iter().any(|m| m.contains("books: shard 0")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("books: shard 1")), "{v:?}");
        assert!(!v.iter().any(|m| m.contains("conservation")), "{v:?}");
    }

    #[test]
    fn an_answer_on_the_wrong_shard_is_reported() {
        // Shard 1 ran a request shard 0 ingested and answered it on its
        // own TX ring: every total still holds.
        let mut obs = clean_two_shard_obs();
        obs.received_per_shard = vec![9, 1];
        let v = check_runtime(&obs);
        assert!(
            v.iter()
                .any(|m| m
                    .contains("answers: shard 0 TX ring carried 9 != ingested 10 - tx_dropped 0")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("answers: shard 1")), "{v:?}");
        assert!(!v.iter().any(|m| m.contains("conservation")), "{v:?}");
    }

    #[test]
    fn jbsq_overflow_names_the_shard() {
        let mut obs = clean_two_shard_obs();
        obs.per_worker.push(obs.per_worker[0]);
        obs.per_worker.push(obs.per_worker[1]);
        obs.per_worker[2].queue_max = 9;
        let v = check_runtime(&obs);
        assert!(
            v.iter()
                .any(|m| m.contains("jbsq bound: shard 1 worker 0 reached occupancy 9")),
            "{v:?}"
        );
    }

    #[test]
    fn trace_steals_must_match_the_hand_offs() {
        // matching_trace() records no inter-shard STEAL, but the two-shard
        // counters took two hand-offs.
        let mut obs = clean_two_shard_obs();
        obs.trace = Some(matching_trace());
        let v = check_trace(&obs);
        assert_eq!(
            v,
            vec!["trace: 0 inter-shard STEAL events but counters took 2 hand-offs".to_string()]
        );
    }

    /// Builds a dispatcher-track-only trace from `(kind, id, gen, ts)`
    /// rows for the policy replay oracles (1 worker, dispatcher track 1).
    fn dispatcher_trace(
        rows: &[(concord_trace::EventKind, u64, u64, u64)],
    ) -> concord_trace::Trace {
        let mut t = concord_trace::Trace::new(1);
        for &(kind, id, gen, ts) in rows {
            t.record(1, concord_trace::TraceEvent::new(ts, kind, id, gen));
        }
        t
    }

    #[test]
    fn ps_quantum_has_no_extra_policy_oracle() {
        let v = check_policy(&clean_obs());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fcfs_preemption_activity_is_reported() {
        // clean_obs carries quantum-PS counters (signals, preemptions);
        // under FCFS every one of them is a violation.
        let mut obs = clean_obs();
        obs.case.policy = concord_core::PolicyKind::Fcfs;
        let v = check_policy(&obs);
        assert!(v.iter().any(|m| m.contains("signals sent")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("preemptions")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("signal fates")), "{v:?}");
    }

    #[test]
    fn fcfs_silent_counters_pass() {
        let mut obs = clean_obs();
        obs.case.policy = concord_core::PolicyKind::Fcfs;
        obs.signals_sent = 0;
        obs.preemptions = 0;
        obs.acct = SignalAccounting::default();
        for w in &mut obs.per_worker {
            w.preempted = 0;
            w.signals_consumed = 0;
            w.signals_obsolete = 0;
        }
        let v = check_policy(&obs);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fcfs_fifo_violation_is_reported() {
        use concord_trace::EventKind as K;
        let mut obs = clean_obs();
        obs.case.policy = concord_core::PolicyKind::Fcfs;
        obs.case.n_workers = 1;
        obs.case.work_conserving = false;
        obs.signals_sent = 0;
        obs.preemptions = 0;
        obs.acct = SignalAccounting::default();
        let mut t = dispatcher_trace(&[(K::Arrive, 0, 1, 10), (K::Arrive, 1, 1, 20)]);
        // Worker (track 0) completed them out of order.
        t.record(0, concord_trace::TraceEvent::new(30, K::Complete, 1, 1));
        t.record(0, concord_trace::TraceEvent::new(40, K::Complete, 0, 1));
        obs.raw_trace = Some(t);
        let v = check_policy(&obs);
        assert!(v.iter().any(|m| m.contains("completion order")), "{v:?}");

        // The same trace is fine once FIFO cannot be asserted (2 workers).
        obs.case.n_workers = 2;
        let v = check_policy(&obs);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn srpt_priority_inversion_is_reported() {
        use concord_trace::EventKind as K;
        let mut obs = clean_obs();
        obs.case.policy = concord_core::PolicyKind::Srpt { noise_pct: 0 };
        // A 20µs request dispatched while a fresh 1µs request waits.
        obs.raw_trace = Some(dispatcher_trace(&[
            (K::Arrive, 0, 20, 10),
            (K::Arrive, 1, 1, 20),
            (K::Dispatch, 0, 0, 30),
            (K::Dispatch, 1, 0, 40),
        ]));
        let v = check_policy(&obs);
        assert!(v.iter().any(|m| m.contains("priority inversions")), "{v:?}");

        // Shortest-first order passes.
        obs.raw_trace = Some(dispatcher_trace(&[
            (K::Arrive, 0, 20, 10),
            (K::Arrive, 1, 1, 20),
            (K::Dispatch, 1, 0, 30),
            (K::Dispatch, 0, 0, 40),
        ]));
        let v = check_policy(&obs);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn boost_replay_uses_shifted_arrival_order() {
        use concord_trace::EventKind as K;
        let mut obs = clean_obs();
        // B = 100µs: the 1µs request's head start (B²/s = 10ms) dwarfs
        // both its later arrival and the 20µs request's 500µs head
        // start, so dispatching the earlier 20µs request first is an
        // inversion. (Arrivals sit late enough on the timeline that the
        // long request's shifted key stays positive.)
        obs.case.policy = concord_core::PolicyKind::Boost { boost_us: 100 };
        let rows = [
            (K::Arrive, 0, 20, 1_000_000),
            (K::Arrive, 1, 1, 1_010_000),
            (K::Dispatch, 0, 0, 1_020_000),
            (K::Dispatch, 1, 0, 1_030_000),
        ];
        obs.raw_trace = Some(dispatcher_trace(&rows));
        let v = check_policy(&obs);
        assert!(v.iter().any(|m| m.contains("priority inversions")), "{v:?}");

        // B = 1µs: the head start (≤ 1µs) no longer overcomes the 10µs
        // arrival gap — the same FIFO-ish schedule is now conforming.
        obs.case.policy = concord_core::PolicyKind::Boost { boost_us: 1 };
        obs.raw_trace = Some(dispatcher_trace(&rows));
        let v = check_policy(&obs);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lossy_trace_skips_policy_replay() {
        use concord_trace::EventKind as K;
        let mut obs = clean_obs();
        obs.case.policy = concord_core::PolicyKind::Srpt { noise_pct: 0 };
        obs.raw_trace = Some(dispatcher_trace(&[
            (K::Arrive, 0, 20, 10),
            (K::Arrive, 1, 1, 20),
            (K::Dispatch, 0, 0, 30),
        ]));
        obs.trace_dropped = 1;
        let v = check_policy(&obs);
        assert!(v.is_empty(), "lossy trace must skip replay: {v:?}");
    }

    #[test]
    fn tolerance_env_overrides_default() {
        // Not set in the test environment unless CI exports it.
        if std::env::var("CONCORD_CONF_TOL").is_err() {
            assert_eq!(cross_tolerance(), 100.0);
        }
    }

    #[test]
    fn rack_oracle_accepts_a_balanced_run_and_names_each_break() {
        let report = concord_rack::RackReport {
            requests_in: 100,
            forwarded: 95,
            rejected_local: 5,
            relayed_ok: 90,
            relayed_failed: 1,
            relayed_retry: 2,
            failed_over: 2,
            relay_dropped: 0,
            orphaned: 0,
            protocol_errors: 0,
            conns_accepted: 4,
            pending_at_exit: 0,
        };
        let clients = RackClientTotals {
            sent: 100,
            completed: 90,
            rejected: 9, // relayed_retry 2 + failed_over 2 + rejected_local 5
            failed: 1,
            unaccounted: 0,
        };
        assert!(check_rack(&report, &clients).is_empty());

        // Each perturbation trips a distinct, named violation.
        let mut r = report;
        r.relayed_ok = 89; // breaks the internal egress identity
        assert!(check_rack(&r, &clients)
            .iter()
            .any(|m| m.contains("egress identity")));

        let mut c = clients;
        c.unaccounted = 1;
        c.completed = 89;
        assert!(check_rack(&report, &c)
            .iter()
            .any(|m| m.contains("no response")));

        let mut c = clients;
        c.rejected = 8;
        assert!(check_rack(&report, &c).iter().any(|m| m.contains("RETRY")));

        let mut r = report;
        r.pending_at_exit = 3;
        r.forwarded += 3;
        r.requests_in += 3;
        let mut c = clients;
        c.sent += 3;
        c.unaccounted = 3;
        let v = check_rack(&r, &c);
        assert!(v.iter().any(|m| m.contains("pending at exit")));
    }
}
