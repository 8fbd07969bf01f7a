//! Open/closed-loop load client for the wire protocol.
//!
//! Reuses the workload machinery from `concord-workloads` (Poisson
//! arrivals, the paper's service-time mixes) and reports the same
//! slowdown percentiles as the in-process
//! [`Collector`](concord_net::Collector) so TCP runs are directly
//! comparable to in-process runs.
//!
//! - **Open loop**: requests are sent on the generator's Poisson
//!   schedule regardless of responses — the paper's methodology, which
//!   is what exposes queueing collapse under overload.
//! - **Closed loop** (`window > 0`): at most `window` requests are
//!   outstanding; a completion or reject returns its credit.

use concord_metrics::{Histogram, SlowdownTracker};
use concord_wire::frame::{self as wire, Frame, Status};
use concord_workloads::arrival::Poisson;
use concord_workloads::trace::TraceGenerator;
use concord_workloads::Workload;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the client waits after its last send for straggler
/// responses before declaring the remainder unaccounted.
const DRAIN_IDLE_TIMEOUT: Duration = Duration::from_secs(2);

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Total requests to send.
    pub requests: u64,
    /// Open-loop offered rate in requests/second (ignored when
    /// `window > 0`).
    pub rate_rps: f64,
    /// Closed-loop credit window; `0` selects open loop.
    pub window: usize,
    /// Seed for arrivals and service-time draws.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            requests: 10_000,
            rate_rps: 20_000.0,
            window: 0,
            seed: 42,
        }
    }
}

/// Per-class tallies observed by the client.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassTally {
    /// Requests sent in this class.
    pub sent: u64,
    /// Ok responses received.
    pub completed: u64,
    /// RETRY (admission-rejected) responses received.
    pub rejected: u64,
}

/// What one load run observed, from the wire side.
pub struct ClientReport {
    /// Requests written to the socket.
    pub sent: u64,
    /// Ok responses received.
    pub completed: u64,
    /// RETRY responses received (early-rejected at the admission gate).
    pub rejected: u64,
    /// Failed-status responses received.
    pub failed: u64,
    /// Wall-clock from first send to last response (or drain timeout).
    pub elapsed: Duration,
    /// Client-measured sojourn time (send → response arrival), ns.
    pub sojourn_ns: Histogram,
    /// Client-measured slowdown (sojourn / nominal service time).
    pub slowdown: SlowdownTracker,
    /// Per-class tallies, keyed by service class.
    pub by_class: BTreeMap<u16, ClassTally>,
}

impl ClientReport {
    /// Requests that got no response of any kind: server-side drops
    /// (admission overflow, tx drops, orphans) plus anything lost to the
    /// drain timeout. Zero in a healthy below-threshold run.
    pub fn unaccounted(&self) -> u64 {
        self.sent - self.completed - self.rejected - self.failed
    }

    /// Achieved goodput in completed requests/second.
    pub fn goodput_rps(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Renders the report in the same shape as the in-process
    /// collector's summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "sent {}  completed {}  rejected {}  failed {}  unaccounted {}\n",
            self.sent,
            self.completed,
            self.rejected,
            self.failed,
            self.unaccounted()
        ));
        s.push_str(&format!(
            "elapsed {:.3}s  goodput {:.0} req/s\n",
            self.elapsed.as_secs_f64(),
            self.goodput_rps()
        ));
        if !self.sojourn_ns.is_empty() {
            s.push_str(&format!(
                "sojourn ns: p50 {}  p99 {}  p99.9 {}  max {}\n",
                self.sojourn_ns.percentile(50.0),
                self.sojourn_ns.percentile(99.0),
                self.sojourn_ns.percentile(99.9),
                self.sojourn_ns.max()
            ));
            s.push_str(&format!(
                "slowdown: p50 {:.2}  p99 {:.2}  p99.9 {:.2}\n",
                self.slowdown.at_quantile(0.50),
                self.slowdown.p99(),
                self.slowdown.p999()
            ));
        }
        for (class, t) in &self.by_class {
            s.push_str(&format!(
                "class {class}: sent {}  completed {}  rejected {}\n",
                t.sent, t.completed, t.rejected
            ));
        }
        s
    }
}

/// In-flight bookkeeping shared between the sending thread and the
/// response reader, indexed by the sequential request id.
struct Inflight {
    sent_at: Mutex<Vec<Option<Instant>>>,
    /// Nominal service time per id, for slowdown (immutable after send,
    /// but written by the sender — hence the lock above covers both).
    service_ns: Mutex<Vec<u64>>,
}

struct Credits {
    avail: Mutex<usize>,
    ret: Condvar,
}

impl Credits {
    fn take(&self) {
        let mut n = self.avail.lock().expect("credits lock");
        while *n == 0 {
            n = self.ret.wait(n).expect("credits wait");
        }
        *n -= 1;
    }

    fn put(&self) {
        *self.avail.lock().expect("credits lock") += 1;
        self.ret.notify_one();
    }
}

struct ReaderShared {
    inflight: Inflight,
    credits: Option<Credits>,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    /// Nanos since `epoch` of the last response, for drain-idle detection.
    last_progress_ns: AtomicU64,
}

/// Results accumulated by the reader thread.
struct ReaderStats {
    sojourn_ns: Histogram,
    slowdown: SlowdownTracker,
    by_class: BTreeMap<u16, ClassTally>,
}

/// Runs one load generation pass against `addr` using `workload` for
/// service-time draws. Blocks until all responses arrived or the drain
/// timeout expired.
pub fn run<W: Workload>(
    addr: &str,
    cfg: &ClientConfig,
    workload: W,
) -> std::io::Result<ClientReport> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;

    let n = cfg.requests as usize;
    let shared = Arc::new(ReaderShared {
        inflight: Inflight {
            sent_at: Mutex::new(vec![None; n]),
            service_ns: Mutex::new(vec![0; n]),
        },
        credits: (cfg.window > 0).then(|| Credits {
            avail: Mutex::new(cfg.window),
            ret: Condvar::new(),
        }),
        completed: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        last_progress_ns: AtomicU64::new(0),
    });
    let epoch = Instant::now();

    let reader = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("concord-client-reader".into())
            .spawn(move || reader_loop(reader_stream, shared, epoch))
            .expect("spawn client reader")
    };

    // Rate pacing comes from the trace generator's Poisson arrivals;
    // closed loop keeps the schedule but gates each send on a credit.
    let mut gen = TraceGenerator::new(Poisson::with_rate(cfg.rate_rps), workload, cfg.seed);
    let mut out = Vec::with_capacity(64);
    let mut by_class_sent: BTreeMap<u16, u64> = BTreeMap::new();
    let start = Instant::now();
    let mut sent = 0u64;
    let mut stream = stream;
    for i in 0..cfg.requests {
        let arrival = gen.next_arrival();
        if let Some(credits) = &shared.credits {
            credits.take();
        } else {
            // Open loop: hold to the schedule even if the server lags.
            let due = start + Duration::from_nanos(arrival.time_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        {
            let mut at = shared.inflight.sent_at.lock().expect("sent_at lock");
            let mut svc = shared.inflight.service_ns.lock().expect("service_ns lock");
            at[i as usize] = Some(Instant::now());
            svc[i as usize] = arrival.spec.service_ns;
        }
        out.clear();
        wire::encode_request(
            &mut out,
            i,
            arrival.spec.class,
            arrival.spec.service_ns,
            &[],
        );
        if stream.write_all(&out).is_err() {
            break; // server gone; reader will account the shortfall
        }
        sent += 1;
        *by_class_sent.entry(arrival.spec.class).or_default() += 1;
    }
    let _ = stream.flush();
    // Half-close: tells the server's reader we are done sending while
    // leaving the response path open.
    let _ = stream.shutdown(Shutdown::Write);

    // Drain: wait until every sent request is answered, or responses
    // stop arriving for DRAIN_IDLE_TIMEOUT.
    loop {
        let answered = shared.completed.load(Ordering::Relaxed)
            + shared.rejected.load(Ordering::Relaxed)
            + shared.failed.load(Ordering::Relaxed);
        if answered >= sent {
            break;
        }
        let last = shared.last_progress_ns.load(Ordering::Relaxed);
        let idle_since = if last == 0 {
            start
        } else {
            epoch + Duration::from_nanos(last)
        };
        if idle_since.elapsed() > DRAIN_IDLE_TIMEOUT {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = start.elapsed();
    let _ = stream.shutdown(Shutdown::Both);
    let mut stats = reader.join().expect("client reader");

    for (class, sent) in by_class_sent {
        stats.by_class.entry(class).or_default().sent = sent;
    }
    Ok(ClientReport {
        sent,
        completed: shared.completed.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        failed: shared.failed.load(Ordering::Relaxed),
        elapsed,
        sojourn_ns: stats.sojourn_ns,
        slowdown: stats.slowdown,
        by_class: stats.by_class,
    })
}

fn reader_loop(mut stream: TcpStream, shared: Arc<ReaderShared>, epoch: Instant) -> ReaderStats {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut stats = ReaderStats {
        // 3 significant figures up to ~73 minutes of sojourn.
        sojourn_ns: Histogram::with_max(3, 1 << 42),
        slowdown: SlowdownTracker::new(),
        by_class: BTreeMap::new(),
    };
    let mut buf = concord_wire::RecvBuf::new();
    loop {
        match buf.fill(&mut stream) {
            Ok(0) => return stats,
            Ok(_) => {
                let mut at = 0;
                loop {
                    match wire::decode(&buf.data()[at..]) {
                        Ok(Some((Frame::Response(rf), consumed))) => {
                            at += consumed;
                            record_response(&rf, &shared, &mut stats, epoch);
                        }
                        Ok(Some((Frame::Request(_), _))) | Err(_) => {
                            // Server sent garbage; nothing sane to do but
                            // stop reading.
                            return stats;
                        }
                        Ok(None) => break,
                    }
                }
                if at > 0 {
                    buf.consume(at);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => return stats,
        }
    }
}

fn record_response(
    rf: &wire::ResponseFrame<'_>,
    shared: &ReaderShared,
    stats: &mut ReaderStats,
    epoch: Instant,
) {
    let now = Instant::now();
    shared.last_progress_ns.store(
        now.duration_since(epoch).as_nanos() as u64,
        Ordering::Relaxed,
    );
    if let Some(credits) = &shared.credits {
        credits.put();
    }
    let idx = rf.id as usize;
    let tally = stats.by_class.entry(rf.class).or_default();
    match rf.status {
        Status::Ok => {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            tally.completed += 1;
            let (sent_at, nominal_ns) = {
                let at = shared.inflight.sent_at.lock().expect("sent_at lock");
                let svc = shared.inflight.service_ns.lock().expect("service_ns lock");
                match at.get(idx).copied().flatten() {
                    Some(t) => (t, svc.get(idx).copied().unwrap_or(rf.service_ns)),
                    None => return, // unknown id: ignore rather than skew stats
                }
            };
            let sojourn = now.duration_since(sent_at).as_nanos() as u64;
            stats.sojourn_ns.record(sojourn.max(1));
            stats.slowdown.record(nominal_ns.max(1), sojourn.max(1));
        }
        Status::Retry => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            tally.rejected += 1;
        }
        Status::Failed => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_block_and_release() {
        let c = Arc::new(Credits {
            avail: Mutex::new(1),
            ret: Condvar::new(),
        });
        c.take();
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.take());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "second take must block with 0 credits");
        c.put();
        h.join().unwrap();
    }

    #[test]
    fn report_accounts_everything() {
        let r = ClientReport {
            sent: 10,
            completed: 6,
            rejected: 2,
            failed: 1,
            elapsed: Duration::from_secs(1),
            sojourn_ns: Histogram::with_max(3, 1 << 20),
            slowdown: SlowdownTracker::new(),
            by_class: BTreeMap::new(),
        };
        assert_eq!(r.unaccounted(), 1);
        assert!((r.goodput_rps() - 6.0).abs() < 1e-9);
        assert!(r.render().contains("unaccounted 1"));
    }
}
