//! Open/closed-loop load client for the wire protocol.
//!
//! Reuses the workload machinery from `concord-workloads` (Poisson
//! arrivals, the paper's service-time mixes) and the in-process
//! [`Collector`](concord_net::Collector)'s pacing rule
//! ([`pace_until`]) and record ([`Tally`]), so TCP runs are directly
//! comparable to in-process runs.
//!
//! - **Open loop**: requests are sent on the generator's Poisson
//!   schedule regardless of responses — the paper's methodology, which
//!   is what exposes queueing collapse under overload.
//! - **Closed loop** (`window > 0`): at most `window` requests are
//!   outstanding; a completion or reject returns its credit.
//!
//! Each request id is answered once: its first answer takes its slot,
//! and any other answer (a duplicate, or an id never sent) is counted in
//! [`ClientReport::unexpected`] and nowhere else.

use concord_net::loadgen::{pace_until, Tally};
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
    /// Answers for an id never sent or already answered; they touch
    /// nothing else in the report.
    pub unexpected: u64,
    /// Wall-clock from first send to last response (or drain timeout).
    pub elapsed: Duration,
    /// Client-measured sojourn (send → response arrival, ns), slowdown
    /// and per-class tallies.
    pub tally: Tally,
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
            "sent {}  completed {}  rejected {}  failed {}  unaccounted {}  unexpected {}\n",
            self.sent,
            self.completed,
            self.rejected,
            self.failed,
            self.unaccounted(),
            self.unexpected
        ));
        s.push_str(&format!(
            "elapsed {:.3}s  goodput {:.0} req/s\n",
            self.elapsed.as_secs_f64(),
            self.goodput_rps()
        ));
        let (sojourn, slowdown) = (&self.tally.latency_ns, &self.tally.slowdown);
        if !sojourn.is_empty() {
            s.push_str(&format!(
                "sojourn ns: p50 {}  p99 {}  p99.9 {}  max {}\n",
                sojourn.percentile(50.0),
                sojourn.percentile(99.0),
                sojourn.percentile(99.9),
                sojourn.max()
            ));
            s.push_str(&format!(
                "slowdown: p50 {:.2}  p99 {:.2}  p99.9 {:.2}\n",
                slowdown.at_quantile(0.50),
                slowdown.p99(),
                slowdown.p999()
            ));
        }
        for (class, t) in &self.tally.by_class {
            s.push_str(&format!(
                "class {class}: sent {}  completed {}  rejected {}\n",
                t.sent, t.completed, t.rejected
            ));
        }
        s
    }
}

/// One sent request awaiting its answer.
#[derive(Clone, Copy)]
struct Slot {
    sent_at: Instant,
    /// Nominal service time, the slowdown denominator.
    service_ns: u64,
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
    /// In-flight bookkeeping shared between the sending thread and the
    /// response reader, indexed by the sequential request id: the
    /// sender fills a slot before writing the request, its first answer
    /// takes it.
    inflight: Mutex<Vec<Option<Slot>>>,
    credits: Option<Credits>,
    /// Sent requests answered so far, whatever the status: all the drain
    /// loop needs.
    answered: AtomicU64,
    /// Nanos since the run started of the last response, for drain-idle
    /// detection.
    last_progress_ns: AtomicU64,
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
        inflight: Mutex::new(vec![None; n]),
        credits: (cfg.window > 0).then(|| Credits {
            avail: Mutex::new(cfg.window),
            ret: Condvar::new(),
        }),
        answered: AtomicU64::new(0),
        last_progress_ns: AtomicU64::new(0),
    });
    let start = Instant::now();

    let reader = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("concord-client-reader".into())
            .spawn(move || reader_loop(reader_stream, shared, start))
            .expect("spawn client reader")
    };

    // Rate pacing comes from the trace generator's Poisson arrivals;
    // closed loop keeps the schedule but gates each send on a credit.
    let mut gen = TraceGenerator::new(Poisson::with_rate(cfg.rate_rps), workload, cfg.seed);
    let mut out = Vec::with_capacity(64);
    let mut by_class_sent: BTreeMap<u16, u64> = BTreeMap::new();
    let mut sent = 0u64;
    let mut stream = stream;
    for i in 0..cfg.requests {
        let arrival = gen.next_arrival();
        if let Some(credits) = &shared.credits {
            credits.take();
        } else {
            // Open loop: hold to the schedule even if the server lags.
            pace_until(start + Duration::from_nanos(arrival.time_ns));
        }
        shared.inflight.lock().expect("inflight lock")[i as usize] = Some(Slot {
            sent_at: Instant::now(),
            service_ns: arrival.spec.service_ns,
        });
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
        if shared.answered.load(Ordering::Relaxed) >= sent {
            break;
        }
        let last = shared.last_progress_ns.load(Ordering::Relaxed);
        if (start + Duration::from_nanos(last)).elapsed() > DRAIN_IDLE_TIMEOUT {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = start.elapsed();
    let _ = stream.shutdown(Shutdown::Both);
    let mut answers = reader.join().expect("client reader");

    for (class, sent) in by_class_sent {
        answers.tally.by_class.entry(class).or_default().sent = sent;
    }
    Ok(ClientReport {
        sent,
        completed: answers.completed,
        rejected: answers.rejected,
        failed: answers.failed,
        unexpected: answers.unexpected,
        elapsed,
        tally: answers.tally,
    })
}

/// What the reader thread saw. It alone classifies answers, so it keeps
/// these counts to itself and hands them over when it exits.
#[derive(Default)]
struct Answers {
    completed: u64,
    rejected: u64,
    failed: u64,
    unexpected: u64,
    tally: Tally,
}

fn reader_loop(mut stream: TcpStream, shared: Arc<ReaderShared>, start: Instant) -> Answers {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut answers = Answers::default();
    let mut buf = concord_wire::RecvBuf::new();
    loop {
        match buf.fill(&mut stream) {
            Ok(0) => return answers,
            Ok(_) => {
                let mut at = 0;
                loop {
                    match wire::decode(&buf.data()[at..]) {
                        Ok(Some((Frame::Response(rf), consumed))) => {
                            at += consumed;
                            record_response(&rf, &shared, &mut answers, start);
                        }
                        Ok(Some((Frame::Request(_), _))) | Err(_) => {
                            // Server sent garbage; nothing sane to do but
                            // stop reading.
                            return answers;
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
            Err(_) => return answers,
        }
    }
}

fn record_response(
    rf: &wire::ResponseFrame<'_>,
    shared: &ReaderShared,
    answers: &mut Answers,
    start: Instant,
) {
    let now = Instant::now();
    shared.last_progress_ns.store(
        now.duration_since(start).as_nanos() as u64,
        Ordering::Relaxed,
    );
    let slot = shared
        .inflight
        .lock()
        .expect("inflight lock")
        .get_mut(rf.id as usize)
        .and_then(Option::take);
    let Some(slot) = slot else {
        answers.unexpected += 1;
        return;
    };
    if let Some(credits) = &shared.credits {
        credits.put();
    }
    match rf.status {
        Status::Ok => {
            answers.completed += 1;
            let sojourn = now.duration_since(slot.sent_at).as_nanos() as u64;
            answers.tally.completed(rf.class, slot.service_ns, sojourn);
        }
        Status::Retry => {
            answers.rejected += 1;
            answers.tally.rejected(rf.class);
        }
        Status::Failed => answers.failed += 1,
    }
    shared.answered.fetch_add(1, Ordering::Relaxed);
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

    /// A server answering request 0 twice and id 9 999 once, in one
    /// write: only the first answer counts, the other two are unexpected.
    #[test]
    fn duplicate_and_unknown_answers_are_counted_once_as_unexpected() {
        use concord_net::{Request, Response};
        use std::io::Read;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut got = Vec::new();
            let mut buf = [0u8; 256];
            while !matches!(wire::decode(&got), Ok(Some(_))) {
                let n = conn.read(&mut buf).expect("read request");
                assert!(n > 0, "client closed before sending");
                got.extend_from_slice(&buf[..n]);
            }
            let answer = |id| {
                Response::completed(&Request {
                    id,
                    class: 0,
                    service_ns: 1_000,
                    sent_at: Instant::now(),
                })
            };
            let mut out = Vec::new();
            for id in [0, 0, 9_999] {
                wire::encode_response(&mut out, id, &answer(id), Status::Ok);
            }
            conn.write_all(&out).expect("answer");
            // Hold the connection until the client closes it.
            let _ = conn.read_to_end(&mut got);
        });
        let cfg = ClientConfig {
            requests: 1,
            ..ClientConfig::default()
        };
        let report = run(&addr, &cfg, concord_workloads::mix::fixed_1us()).expect("run");
        server.join().expect("fake server");
        assert_eq!((report.sent, report.completed), (1, 1));
        assert_eq!(report.unexpected, 2);
        assert_eq!(report.unaccounted(), 0);
        assert_eq!(report.tally.latency_ns.len(), 1);
        assert_eq!(report.tally.by_class[&0].completed, 1);
        assert!(report.render().contains("unexpected 2"));
    }

    #[test]
    fn report_accounts_everything() {
        let r = ClientReport {
            sent: 10,
            completed: 6,
            rejected: 2,
            failed: 1,
            unexpected: 0,
            elapsed: Duration::from_secs(1),
            tally: Tally::default(),
        };
        assert_eq!(r.unaccounted(), 1);
        assert!((r.goodput_rps() - 6.0).abs() < 1e-9);
        assert!(r.render().contains("unaccounted 1"));
    }
}
