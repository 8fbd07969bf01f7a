//! The live workloads: one generator thread driving the in-process
//! `Runtime` over rings, or the TCP `Server` over loopback.
//!
//! The generator sends and receives on the calling thread. When it has
//! nothing due and nothing to read it calls `yield_now`: a spinning
//! generator starves the runtime's two spin-yield threads on a 2-core
//! box, a sleeping one adds timer slack to every latency.

use crate::spec::{self, MixKind, Path, Workload};
use crate::stats::Windows;
use concord_core::admission::{AdmissionConfig, AdmissionPolicy};
use concord_core::{Runtime, RuntimeConfig, RuntimeStats, ShardRollup, SpinApp, TelemetrySnapshot};
use concord_metrics::Histogram;
use concord_net::ring::{ring, Consumer, Producer};
use concord_net::{Request, Response};
use concord_server::{Server, ServerConfig};
use concord_trace::Trace;
use concord_wire::frame::{self as wire, Frame, Status};
use concord_wire::RecvBuf;
use concord_workloads::arrival::Poisson;
use concord_workloads::{seeded_rng, Mix, RequestSpec, TraceGenerator, Workload as _};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slots of each NIC-model ring between generator and runtime: deep
/// enough to ride out a 400 ms host stall at the highest open-loop rate
/// without dropping (a drop would be a failed operation).
const RING_SLOTS: usize = 1 << 16;

/// Slots of the pending-request table (`id & mask`); bounds how many
/// requests may be outstanding before the oldest counts as unanswered.
const PENDING_SLOTS: usize = 1 << 17;

/// How long a phase waits for outstanding replies after its last send.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Seed offsets that keep the warm-up, open and closed phases of one
/// run on distinct, reproducible request streams.
const WARMUP_STREAM: u64 = 0x5741_524d;
const CLOSED_STREAM: u64 = 0x434c_4f53;

/// One answered request as the generator sees it.
struct Reply {
    id: u64,
    class: u16,
    service_ns: u64,
    queue_ns: u64,
    busy_ns: u64,
    ok: bool,
    /// When the server finished it, nanoseconds since the epoch of the
    /// run; the wire does not carry it.
    finished_ns: Option<u64>,
    lane: usize,
}

/// The generator's side of a transport.
trait Port {
    /// Independent paths into the system (connections); 1 for rings.
    fn lanes(&self) -> usize;
    /// Hands one request over; `false` when the transport dropped it.
    fn send(&mut self, lane: usize, id: u64, spec: RequestSpec, due: Instant) -> bool;
    /// Pushes buffered bytes towards the system.
    fn flush(&mut self, errors: &mut Vec<String>);
    /// Appends every reply that has arrived to `out`.
    fn poll(&mut self, epoch: Instant, out: &mut Vec<Reply>, errors: &mut Vec<String>);
    /// Releases client-side resources before the system shuts down.
    fn close(&mut self) {}
}

struct RingPort {
    tx: Producer<Request>,
    rx: Consumer<Response>,
}

impl Port for RingPort {
    fn lanes(&self) -> usize {
        1
    }

    fn send(&mut self, _lane: usize, id: u64, spec: RequestSpec, due: Instant) -> bool {
        self.tx
            .push(Request {
                id,
                class: spec.class,
                service_ns: spec.service_ns,
                sent_at: due,
            })
            .is_ok()
    }

    fn flush(&mut self, _errors: &mut Vec<String>) {}

    fn poll(&mut self, epoch: Instant, out: &mut Vec<Reply>, _errors: &mut Vec<String>) {
        while let Some(r) = self.rx.pop() {
            out.push(Reply {
                id: r.id,
                class: r.class,
                service_ns: r.service_ns,
                queue_ns: r.queue_ns,
                busy_ns: r.busy_ns,
                ok: true,
                finished_ns: Some(r.finished_at.saturating_duration_since(epoch).as_nanos() as u64),
                lane: 0,
            });
        }
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: RecvBuf,
    out: Vec<u8>,
    off: usize,
    open: bool,
}

struct TcpPort {
    conns: Vec<Conn>,
}

impl TcpPort {
    fn connect(addr: &str, n: usize) -> std::io::Result<TcpPort> {
        let conns = (0..n)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    rbuf: RecvBuf::new(),
                    out: Vec::with_capacity(4096),
                    off: 0,
                    open: true,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(TcpPort { conns })
    }
}

impl Port for TcpPort {
    fn close(&mut self) {
        for c in &mut self.conns {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
            c.open = false;
        }
    }

    fn lanes(&self) -> usize {
        self.conns.len()
    }

    fn send(&mut self, lane: usize, id: u64, spec: RequestSpec, _due: Instant) -> bool {
        let c = &mut self.conns[lane];
        if c.open {
            wire::encode_request(&mut c.out, id, spec.class, spec.service_ns, &[]);
        }
        c.open
    }

    fn flush(&mut self, errors: &mut Vec<String>) {
        for (lane, c) in self.conns.iter_mut().enumerate() {
            while c.open && c.off < c.out.len() {
                match c.stream.write(&c.out[c.off..]) {
                    Ok(n) => c.off += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        errors.push(format!("connection {lane}: write failed: {e}"));
                        c.open = false;
                    }
                }
            }
            if c.off == c.out.len() {
                c.out.clear();
                c.off = 0;
            }
        }
    }

    fn poll(&mut self, _epoch: Instant, out: &mut Vec<Reply>, errors: &mut Vec<String>) {
        for (lane, c) in self.conns.iter_mut().enumerate() {
            if !c.open {
                continue;
            }
            match c.rbuf.fill(&mut c.stream) {
                Ok(0) => {
                    errors.push(format!("connection {lane}: closed by the server"));
                    c.open = false;
                }
                Ok(_) => {
                    let mut at = 0;
                    loop {
                        match wire::decode(&c.rbuf.data()[at..]) {
                            Ok(Some((Frame::Response(rf), used))) => {
                                out.push(Reply {
                                    id: rf.id,
                                    class: rf.class,
                                    service_ns: rf.service_ns,
                                    queue_ns: rf.queue_ns,
                                    busy_ns: rf.busy_ns,
                                    ok: rf.status == Status::Ok,
                                    finished_ns: None,
                                    lane,
                                });
                                at += used;
                            }
                            Ok(Some((Frame::Request(_), _))) => {
                                errors.push(format!("connection {lane}: server sent a request"));
                                c.open = false;
                                break;
                            }
                            Ok(None) => break,
                            Err(e) => {
                                errors.push(format!("connection {lane}: malformed frame: {e}"));
                                c.open = false;
                                break;
                            }
                        }
                    }
                    c.rbuf.consume(at);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => {
                    errors.push(format!("connection {lane}: read failed: {e}"));
                    c.open = false;
                }
            }
        }
    }
}

/// What the generator remembers about a request until it is answered.
#[derive(Clone, Copy, Default)]
struct Pending {
    live: bool,
    id: u64,
    spec_class: u16,
    service_ns: u64,
    /// When it was due, nanoseconds since the epoch of the run.
    due_ns: u64,
    /// When it was handed to the transport.
    sent_ns: u64,
}

/// One request's boundary stamps, the rows the span file is built from.
#[derive(Clone, Copy, Debug)]
pub struct SpanRow {
    /// Request id.
    pub id: u64,
    /// Request class.
    pub class: u16,
    /// Due, sent and received, nanoseconds since the epoch of the run.
    pub due_ns: u64,
    /// See `due_ns`.
    pub sent_ns: u64,
    /// See `due_ns`.
    pub recv_ns: u64,
    /// Server-measured ingest → first slice.
    pub queue_ns: u64,
    /// Server-measured sum of slices.
    pub busy_ns: u64,
    /// When the server finished it; rings only.
    pub finished_ns: Option<u64>,
}

/// Everything recorded about one measured phase.
pub struct PhaseRecord {
    /// Client-observed latency from the due instant, per class.
    pub latency: Vec<Windows>,
    /// Requests sent in the phase.
    pub sent: u64,
    /// Replies received while the phase was sending.
    pub replies_while_sending: u64,
    /// Length of the sending period, seconds.
    pub sending_s: f64,
    /// `sent − due` per request: how late the generator ran.
    pub late: Histogram,
    /// Server-measured ingest → first slice, every class.
    pub queue: Histogram,
    /// Client round trip minus server-measured queue and busy time,
    /// shortest class: transport, event loop, admission, egress.
    pub io_overhead: Histogram,
    /// Server `finished_at` → generator read; rings only.
    pub pickup: Histogram,
    /// Server sojourn minus queue minus busy, longest class: the time a
    /// preempted request waited to run again. Rings only.
    pub preempted_wait: Histogram,
    /// Σ busy and Σ nominal service of the longest class.
    pub busy_long_ns: u64,
    /// See `busy_long_ns`.
    pub nominal_long_ns: u64,
    /// Boundary stamps of the first [`spec::SPAN_REQUESTS`] replies;
    /// filled only when the phase records spans.
    pub spans: Vec<SpanRow>,
    keep_spans: bool,
}

impl PhaseRecord {
    fn new(classes: usize, len: Duration, window: Duration, keep_spans: bool) -> Self {
        let count = (len.as_nanos() / window.as_nanos().max(1)) as usize;
        Self {
            latency: (0..classes)
                .map(|_| Windows::new(window.as_nanos() as u64, count.max(1)))
                .collect(),
            sent: 0,
            replies_while_sending: 0,
            sending_s: 0.0,
            late: Histogram::new(3),
            queue: Histogram::new(3),
            io_overhead: Histogram::new(3),
            pickup: Histogram::new(3),
            preempted_wait: Histogram::new(3),
            busy_long_ns: 0,
            nominal_long_ns: 0,
            spans: Vec::new(),
            keep_spans,
        }
    }

    /// Completions per second over the sending period.
    pub fn throughput_rps(&self) -> f64 {
        if self.sending_s > 0.0 {
            self.replies_while_sending as f64 / self.sending_s
        } else {
            0.0
        }
    }
}

/// Generator state shared by all phases of one run.
struct Driver<P: Port> {
    port: P,
    epoch: Instant,
    pending: Vec<Pending>,
    outstanding: usize,
    next_id: u64,
    classes: usize,
    /// Width of the tail-estimator windows.
    window: Duration,
    replies: Vec<Reply>,
    attempted: u64,
    dropped: u64,
    bad_status: u64,
    unanswered: u64,
    errors: Vec<String>,
}

impl<P: Port> Driver<P> {
    fn new(port: P, epoch: Instant, classes: usize, window: Duration) -> Self {
        Self {
            port,
            epoch,
            window,
            pending: vec![Pending::default(); PENDING_SLOTS],
            outstanding: 0,
            next_id: 1,
            classes,
            replies: Vec::with_capacity(256),
            attempted: 0,
            dropped: 0,
            bad_status: 0,
            unanswered: 0,
            errors: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Sends one request due at `due_ns` (since the epoch), stamped as
    /// handed over at `now_ns`.
    fn send(
        &mut self,
        lane: usize,
        spec: RequestSpec,
        due_ns: u64,
        now_ns: u64,
        rec: &mut PhaseRecord,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.attempted += 1;
        rec.sent += 1;
        rec.late.record(now_ns.saturating_sub(due_ns).max(1));
        let slot = id as usize & (PENDING_SLOTS - 1);
        if self.pending[slot].live {
            // The table wrapped onto a request that never came back.
            self.unanswered += 1;
            self.outstanding -= 1;
        }
        self.pending[slot] = Pending {
            live: true,
            id,
            spec_class: spec.class,
            service_ns: spec.service_ns,
            due_ns,
            sent_ns: now_ns,
        };
        self.outstanding += 1;
        let due = self.epoch + Duration::from_nanos(due_ns);
        if !self.port.send(lane, id, spec, due) {
            self.dropped += 1;
            self.pending[slot].live = false;
            self.outstanding -= 1;
        }
    }

    /// Reads every reply that has arrived, checks it against the
    /// request it answers and records it. `phase_start_ns` anchors the
    /// tail-estimator windows; `on_reply` sees the lane of each reply.
    fn receive(
        &mut self,
        phase_start_ns: u64,
        sending: bool,
        rec: &mut PhaseRecord,
        mut on_reply: impl FnMut(usize),
    ) -> bool {
        let mut replies = std::mem::take(&mut self.replies);
        let epoch = self.epoch;
        self.port.poll(epoch, &mut replies, &mut self.errors);
        let any = !replies.is_empty();
        for r in replies.drain(..) {
            let now_ns = self.now_ns();
            let slot = self.pending[r.id as usize & (PENDING_SLOTS - 1)];
            if !slot.live || slot.id != r.id {
                self.error(format!("reply for id {} which is not outstanding", r.id));
                continue;
            }
            self.pending[r.id as usize & (PENDING_SLOTS - 1)].live = false;
            self.outstanding -= 1;
            if r.class != slot.spec_class || r.service_ns != slot.service_ns {
                self.error(format!(
                    "id {}: sent class {} service {} ns, echoed class {} service {} ns",
                    r.id, slot.spec_class, slot.service_ns, r.class, r.service_ns
                ));
                continue;
            }
            if !r.ok {
                self.bad_status += 1;
                continue;
            }
            on_reply(r.lane);
            if slot.due_ns < phase_start_ns {
                continue; // answered late, belongs to an earlier phase
            }
            if sending {
                rec.replies_while_sending += 1;
            }
            let class = usize::from(r.class).min(self.classes - 1);
            rec.latency[class].record(
                slot.due_ns - phase_start_ns,
                now_ns.saturating_sub(slot.due_ns),
            );
            rec.queue.record(r.queue_ns.max(1));
            let rtt = now_ns.saturating_sub(slot.sent_ns);
            if class == 0 {
                rec.io_overhead
                    .record(rtt.saturating_sub(r.queue_ns + r.busy_ns).max(1));
            }
            if let Some(fin) = r.finished_ns {
                rec.pickup.record(now_ns.saturating_sub(fin).max(1));
            }
            if self.classes > 1 && class == self.classes - 1 {
                rec.busy_long_ns += r.busy_ns;
                rec.nominal_long_ns += r.service_ns;
                if let Some(fin) = r.finished_ns {
                    let sojourn = fin.saturating_sub(slot.sent_ns);
                    rec.preempted_wait
                        .record(sojourn.saturating_sub(r.queue_ns + r.busy_ns).max(1));
                }
            }
            if rec.keep_spans && rec.spans.len() < spec::SPAN_REQUESTS {
                rec.spans.push(SpanRow {
                    id: r.id,
                    class: r.class,
                    due_ns: slot.due_ns,
                    sent_ns: slot.sent_ns,
                    recv_ns: now_ns,
                    queue_ns: r.queue_ns,
                    busy_ns: r.busy_ns,
                    finished_ns: r.finished_ns,
                });
            }
        }
        self.replies = replies;
        any
    }

    /// Waits for outstanding replies after a phase's last send; what is
    /// still missing after the grace period counts as unanswered.
    fn drain(&mut self, phase_start_ns: u64, rec: &mut PhaseRecord) {
        let deadline = Instant::now() + DRAIN_GRACE;
        while self.outstanding > 0 && Instant::now() < deadline {
            self.port.flush(&mut self.errors);
            if !self.receive(phase_start_ns, false, rec, |_| {}) {
                std::thread::yield_now();
            }
        }
        if self.outstanding > 0 {
            self.unanswered += self.outstanding as u64;
            self.outstanding = 0;
            for p in &mut self.pending {
                p.live = false;
            }
        }
    }

    /// Open loop: Poisson arrivals at `rate_rps` for `len`, each request
    /// timed from the instant it was due.
    fn open_phase(
        &mut self,
        mix: Mix,
        rate_rps: f64,
        seed: u64,
        len: Duration,
        keep_spans: bool,
    ) -> PhaseRecord {
        let window = self.window.min(len / 4);
        let mut rec = PhaseRecord::new(self.classes, len, window, keep_spans);
        let mut arrivals = TraceGenerator::new(Poisson::with_rate(rate_rps), mix, seed);
        let len_ns = len.as_nanos() as u64;
        let start_ns = self.now_ns();
        let mut next = arrivals.next_arrival();
        loop {
            let now_ns = self.now_ns();
            let mut worked = false;
            while next.time_ns < len_ns && start_ns + next.time_ns <= now_ns {
                self.send(0, next.spec, start_ns + next.time_ns, now_ns, &mut rec);
                next = arrivals.next_arrival();
                worked = true;
            }
            if worked {
                self.port.flush(&mut self.errors);
            }
            worked |= self.receive(start_ns, true, &mut rec, |_| {});
            if next.time_ns >= len_ns {
                break;
            }
            if !worked {
                std::thread::yield_now();
            }
        }
        rec.sending_s = (self.now_ns() - start_ns) as f64 / 1e9;
        self.drain(start_ns, &mut rec);
        rec
    }

    /// Closed loop: `window` requests outstanding, split evenly over the
    /// port's lanes; each reply releases the next request on its lane.
    fn closed_phase(
        &mut self,
        mut mix: Mix,
        window: usize,
        seed: u64,
        len: Duration,
        keep_spans: bool,
    ) -> PhaseRecord {
        let win = self.window.min(len / 4);
        let mut rec = PhaseRecord::new(self.classes, len, win, keep_spans);
        let mut rng = seeded_rng(seed);
        let lanes = self.port.lanes();
        let start_ns = self.now_ns();
        let end_ns = start_ns + len.as_nanos() as u64;
        for i in 0..window {
            let now_ns = self.now_ns();
            let spec = mix.next_request(&mut rng);
            self.send(i % lanes, spec, now_ns, now_ns, &mut rec);
        }
        self.port.flush(&mut self.errors);
        let mut freed: Vec<usize> = Vec::with_capacity(window);
        loop {
            if self.now_ns() >= end_ns || self.outstanding == 0 {
                break;
            }
            let got = self.receive(start_ns, true, &mut rec, |lane| freed.push(lane));
            for lane in freed.drain(..) {
                let now_ns = self.now_ns();
                if now_ns < end_ns {
                    let spec = mix.next_request(&mut rng);
                    self.send(lane, spec, now_ns, now_ns, &mut rec);
                }
            }
            if got {
                self.port.flush(&mut self.errors);
            } else {
                std::thread::yield_now();
            }
        }
        rec.sending_s = (self.now_ns() - start_ns) as f64 / 1e9;
        self.drain(start_ns, &mut rec);
        rec
    }
}

/// The runtime configuration every live workload runs: one worker per
/// shard, JBSQ(2), 5 µs quantum, work conservation, quantum-PS, no
/// adaptive quanta.
pub fn runtime_config(shards: usize, trace: bool) -> RuntimeConfig {
    RuntimeConfig::builder()
        .workers(1)
        .num_shards(shards)
        .jbsq_depth(2)
        .quantum(Duration::from_micros(5))
        .work_conserving(true)
        .policy(concord_core::PolicyKind::PsQuantum)
        .adaptive_quantum(false)
        .trace(trace)
        .build()
        .expect("the benchmark's runtime configuration is valid")
}

/// The system under test, started and answering.
enum System {
    Ring(Box<Runtime>),
    Tcp(Box<Server>),
}

/// Counters and handles read from the system after it has drained.
pub struct Final {
    /// Shard 0's counters (the whole runtime off TCP and at one shard).
    pub stats: Arc<RuntimeStats>,
    /// Shard 0's lifecycle telemetry.
    pub telemetry: TelemetrySnapshot,
    /// Per-shard counters; one row for ring workloads.
    pub rollup: ShardRollup,
    /// Server accounting; zero for ring workloads.
    pub protocol_errors: u64,
    /// See `protocol_errors`.
    pub orphaned_responses: u64,
    /// Requests the admission gates shed and saw.
    pub admission_shed: u64,
    /// See `admission_shed`.
    pub admission_offered: u64,
    /// The scheduling-event trace of a traced run.
    pub trace: Option<Trace>,
}

fn start_ring(trace: bool) -> (System, RingPort) {
    let (req_tx, req_rx) = ring::<Request>(RING_SLOTS);
    let (resp_tx, resp_rx) = ring::<Response>(RING_SLOTS);
    let rt = Runtime::start(
        runtime_config(1, trace),
        Arc::new(SpinApp::new()),
        req_rx,
        resp_tx,
    );
    (
        System::Ring(Box::new(rt)),
        RingPort {
            tx: req_tx,
            rx: resp_rx,
        },
    )
}

fn start_tcp(shards: usize, trace: bool) -> std::io::Result<(System, TcpPort)> {
    let cfg = ServerConfig {
        admission: AdmissionConfig {
            capacity: 4096,
            policy: AdmissionPolicy::RejectNewest,
        },
        ..ServerConfig::new(runtime_config(shards, trace))
    };
    let server = Server::bind("127.0.0.1:0", cfg, Arc::new(SpinApp::new()))?;
    let port = TcpPort::connect(&server.local_addr().to_string(), spec::TCP_CONNECTIONS)?;
    Ok((System::Tcp(Box::new(server)), port))
}

impl System {
    /// Stops the system after it has answered everything and reads its
    /// final counters.
    fn finish(self) -> Final {
        match self {
            System::Ring(mut rt) => {
                rt.quiesce();
                let stats = rt.stats();
                let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
                let rollup = ShardRollup {
                    per_shard: vec![concord_core::ShardCounters {
                        ingested: load(&stats.ingested),
                        completed: stats.completed(),
                        failed: load(&stats.failed),
                        tx_dropped: load(&stats.tx_dropped),
                        ..Default::default()
                    }],
                };
                Final {
                    telemetry: rt.telemetry(),
                    trace: rt.take_trace(),
                    stats,
                    rollup,
                    protocol_errors: 0,
                    orphaned_responses: 0,
                    admission_shed: 0,
                    admission_offered: 0,
                }
            }
            System::Tcp(server) => {
                let report = server.shutdown();
                Final {
                    stats: report.stats,
                    telemetry: report.telemetry,
                    rollup: report.rollup,
                    protocol_errors: report.protocol_errors,
                    orphaned_responses: report.orphaned_responses,
                    admission_shed: report.admission_per_shard.iter().map(|a| a.shed()).sum(),
                    admission_offered: report.admission_per_shard.iter().map(|a| a.offered()).sum(),
                    trace: report.trace,
                }
            }
        }
    }
}

/// Result of one pass over a live workload.
pub struct LiveRun {
    /// The open-loop phase; ring workloads only.
    pub open: Option<PhaseRecord>,
    /// The closed-loop phase.
    pub closed: PhaseRecord,
    /// Median seconds from starting the system to its first reply.
    pub setup_s: f64,
    /// Requests sent over all phases, warm-up included.
    pub attempted: u64,
    /// Requests the transport dropped, answered RETRY/Failed, or never
    /// answered.
    pub failed: u64,
    /// Output-check violations, empty when the run is correct.
    pub errors: Vec<String>,
    /// CPU the process used over the measured phases, in cores.
    pub cpu_cores: f64,
    /// Share of that CPU spent in the kernel.
    pub sys_cpu_share: f64,
    /// Context switches over the measured phases.
    pub ctx_switches: u64,
    /// Replies over the measured phases.
    pub measured_replies: u64,
    /// The system's own final counters.
    pub fin: Final,
}

impl LiveRun {
    /// The phase latency metrics are read from: open loop on rings
    /// (timed from the due instant), closed loop on TCP.
    pub fn latency_phase(&mut self) -> &mut PhaseRecord {
        self.open.as_mut().unwrap_or(&mut self.closed)
    }
}

/// How long each part of a live run lasts.
#[derive(Clone, Copy, Debug)]
pub struct Durations {
    /// Discarded warm-up.
    pub warmup: Duration,
    /// Measured time, split into phases by the workload's path.
    pub measured: Duration,
}

/// Runs one live workload end to end: repeated set-up, warm-up, the
/// measured phases, shutdown and the output checks.
pub fn run(w: &Workload, seed: u64, d: Durations, trace: bool) -> std::io::Result<LiveRun> {
    let window = Duration::from_millis(w.window_ms);
    match w.path {
        Path::Ring { open_rps } => {
            let setup_s = time_setups(|| Ok(start_ring(false)))?;
            let (system, port) = start_ring(trace);
            Ok(drive(
                w.mix,
                window,
                Some(open_rps),
                seed,
                d,
                trace,
                setup_s,
                system,
                port,
            ))
        }
        Path::Tcp { shards } => {
            let setup_s = time_setups(|| start_tcp(shards, false))?;
            let (system, port) = start_tcp(shards, trace)?;
            let mut run = drive(w.mix, window, None, seed, d, trace, setup_s, system, port);
            if shards > 1 && run.fin.rollup.per_shard.iter().any(|s| s.ingested == 0) {
                run.errors.push("a shard ingested nothing".into());
            }
            Ok(run)
        }
        Path::Sim => unreachable!("the simulator is not a live workload"),
    }
}

/// Starts the system [`spec::SETUP_REPEATS`] times, each time until its
/// first reply, and returns the median seconds that took.
fn time_setups<P: Port>(
    mut start: impl FnMut() -> std::io::Result<(System, P)>,
) -> std::io::Result<f64> {
    let mut took = Vec::with_capacity(spec::SETUP_REPEATS);
    for _ in 0..spec::SETUP_REPEATS {
        let t0 = Instant::now();
        let (system, port) = start()?;
        let mut driver = Driver::new(port, t0, 1, Duration::from_secs(1));
        let mut rec = PhaseRecord::new(1, Duration::from_secs(1), Duration::from_secs(1), false);
        let now_ns = driver.now_ns();
        let spec = RequestSpec {
            class: 0,
            service_ns: 1_000,
        };
        driver.send(0, spec, now_ns, now_ns, &mut rec);
        driver.drain(0, &mut rec);
        took.push(t0.elapsed().as_secs_f64());
        driver.port.close();
        system.finish();
    }
    Ok(crate::stats::median(&took))
}

#[allow(clippy::too_many_arguments)]
fn drive<P: Port>(
    mix: MixKind,
    window: Duration,
    open_rps: Option<f64>,
    seed: u64,
    d: Durations,
    trace: bool,
    setup_s: f64,
    system: System,
    port: P,
) -> LiveRun {
    let classes = mix.mix().classes().len();
    let mut driver = Driver::new(port, Instant::now(), classes, window);
    let (open_len, closed_len) = match open_rps {
        Some(_) => {
            let open = d.measured.mul_f64(spec::RING_OPEN_SHARE);
            (open, d.measured - open)
        }
        None => (Duration::ZERO, d.measured),
    };

    // Warm-up in the shape of the phase that follows it, discarded.
    match open_rps {
        Some(rps) => drop(driver.open_phase(mix.mix(), rps, seed ^ WARMUP_STREAM, d.warmup, false)),
        None => drop(driver.closed_phase(
            mix.mix(),
            spec::CLOSED_WINDOW,
            seed ^ WARMUP_STREAM,
            d.warmup,
            false,
        )),
    }

    let cpu0 = crate::proc::cpu_time();
    let ctx0 = crate::proc::context_switches();
    let t0 = Instant::now();
    let open = open_rps.map(|rps| driver.open_phase(mix.mix(), rps, seed, open_len, trace));
    let closed = driver.closed_phase(
        mix.mix(),
        spec::CLOSED_WINDOW,
        seed ^ CLOSED_STREAM,
        closed_len,
        trace && open.is_none(),
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu1 = crate::proc::cpu_time();
    let ctx1 = crate::proc::context_switches();

    driver.port.close();
    let fin = system.finish();

    let mut errors = std::mem::take(&mut driver.errors);
    let failed = driver.dropped + driver.bad_status + driver.unanswered;
    if driver.dropped > 0 {
        errors.push(format!(
            "{} requests dropped by a full ring",
            driver.dropped
        ));
    }
    if driver.bad_status > 0 {
        errors.push(format!(
            "{} requests answered RETRY or Failed",
            driver.bad_status
        ));
    }
    if driver.unanswered > 0 {
        errors.push(format!("{} requests never answered", driver.unanswered));
    }
    check_final(&fin, mix, driver.attempted, &mut errors);

    let cpu_s = cpu1.total_s() - cpu0.total_s();
    let measured_replies =
        open.as_ref()
            .map_or(0, |p| p.latency.iter().map(Windows::len).sum::<usize>()) as u64
            + closed.latency.iter().map(Windows::len).sum::<usize>() as u64;
    LiveRun {
        open,
        closed,
        setup_s,
        attempted: driver.attempted,
        failed,
        errors,
        cpu_cores: cpu_s / wall_s,
        sys_cpu_share: if cpu_s > 0.0 {
            (cpu1.sys_s - cpu0.sys_s) / cpu_s
        } else {
            0.0
        },
        ctx_switches: ctx1.saturating_sub(ctx0),
        measured_replies,
        fin,
    }
}

/// The output checks on the system's own ledgers.
fn check_final(fin: &Final, mix: MixKind, attempted: u64, errors: &mut Vec<String>) {
    let r = &fin.rollup;
    if !r.conservation_holds() {
        errors.push(format!(
            "conservation: ingested {} != completed {} + failed {}",
            r.total_ingested(),
            r.total_completed(),
            r.total_failed()
        ));
    }
    if r.total_ingested() != attempted {
        errors.push(format!(
            "the system ingested {} of {attempted} requests sent",
            r.total_ingested()
        ));
    }
    if r.total_failed() + r.total_tx_dropped() > 0 {
        errors.push(format!(
            "{} handler failures, {} responses dropped",
            r.total_failed(),
            r.total_tx_dropped()
        ));
    }
    if fin.protocol_errors > 0 {
        errors.push(format!("{} protocol errors", fin.protocol_errors));
    }
    let preemptions = fin.stats.preemptions.load(Ordering::Relaxed);
    if mix.preempts() && preemptions == 0 {
        errors.push("no preemption on a workload with 100 us requests".into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport that answers every request at once, optionally wrong.
    #[derive(Default)]
    struct Loopback {
        /// `(class, service, due)` of everything sent, in order.
        sent: Vec<(u16, u64, Instant)>,
        ready: Vec<Reply>,
        corrupt_class_of: Option<u64>,
        answer_twice: Option<u64>,
    }

    impl Port for Loopback {
        fn lanes(&self) -> usize {
            1
        }

        fn send(&mut self, lane: usize, id: u64, spec: RequestSpec, due: Instant) -> bool {
            self.sent.push((spec.class, spec.service_ns, due));
            let copies = if self.answer_twice == Some(id) { 2 } else { 1 };
            for _ in 0..copies {
                self.ready.push(Reply {
                    id,
                    class: spec.class + u16::from(self.corrupt_class_of == Some(id)),
                    service_ns: spec.service_ns,
                    queue_ns: 100,
                    busy_ns: spec.service_ns,
                    ok: true,
                    finished_ns: None,
                    lane,
                });
            }
            true
        }

        fn flush(&mut self, _errors: &mut Vec<String>) {}

        fn poll(&mut self, _epoch: Instant, out: &mut Vec<Reply>, _errors: &mut Vec<String>) {
            out.append(&mut self.ready);
        }
    }

    fn open(seed: u64, port: Loopback) -> (Driver<Loopback>, PhaseRecord) {
        let mut d = Driver::new(port, Instant::now(), 2, Duration::from_millis(5));
        let rec = d.open_phase(
            MixKind::Bimodal.mix(),
            20_000.0,
            seed,
            Duration::from_millis(40),
            false,
        );
        (d, rec)
    }

    /// What the seed fixes: classes, service times and the gaps between
    /// due instants (the first due instant is wherever the phase began).
    fn schedule(d: &Driver<Loopback>) -> Vec<(u16, u64, Duration)> {
        let first = d.port.sent[0].2;
        d.port
            .sent
            .iter()
            .map(|&(c, s, due)| (c, s, due - first))
            .collect()
    }

    #[test]
    fn one_seed_gives_one_schedule() {
        let (a, rec) = open(5, Loopback::default());
        let (b, _) = open(5, Loopback::default());
        let (c, _) = open(6, Loopback::default());
        assert!(rec.sent > 400, "{} requests in 40 ms at 20 k rps", rec.sent);
        assert_eq!(schedule(&a), schedule(&b));
        assert_ne!(schedule(&a), schedule(&c));
        assert!(a.errors.is_empty() && a.unanswered == 0 && a.bad_status == 0);
        assert_eq!(
            rec.latency.iter().map(Windows::len).sum::<usize>() as u64,
            rec.sent
        );
        // Both classes of the bimodal mix were drawn and kept apart.
        assert!(rec.latency.iter().all(|w| w.len() > 100));
    }

    #[test]
    fn a_wrong_echo_and_a_second_answer_are_caught() {
        let (d, rec) = open(
            5,
            Loopback {
                corrupt_class_of: Some(10),
                answer_twice: Some(20),
                ..Loopback::default()
            },
        );
        assert_eq!(d.errors.len(), 2, "{:?}", d.errors);
        assert!(d.errors[0].contains("id 10") && d.errors[0].contains("echoed"));
        assert!(d.errors[1].contains("id 20") && d.errors[1].contains("not outstanding"));
        assert_eq!(
            rec.latency.iter().map(Windows::len).sum::<usize>() as u64,
            rec.sent - 1
        );
    }

    #[test]
    fn a_closed_loop_keeps_its_window_and_stops_on_time() {
        let mut d = Driver::new(
            Loopback::default(),
            Instant::now(),
            1,
            Duration::from_millis(5),
        );
        let rec = d.closed_phase(
            MixKind::Fixed1us.mix(),
            8,
            1,
            Duration::from_millis(30),
            false,
        );
        assert!(rec.sent > 8 && d.outstanding == 0 && d.errors.is_empty());
        assert!((0.03..0.2).contains(&rec.sending_s), "{}", rec.sending_s);
        assert!(rec.replies_while_sending + 8 >= rec.sent);
    }
}
