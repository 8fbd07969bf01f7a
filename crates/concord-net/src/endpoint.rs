//! The non-blocking socket endpoint every TCP front end is built on:
//! the server's dispatchers, the rack proxy and the admin HTTP
//! listener all queue, write, register and accept through these four
//! pieces, on a level-triggered [`Poller`].
//!
//! - [`Outbox`] — encoded frames waiting for the socket, back to back in
//!   one reusable buffer, bounded in frames.
//! - [`flush`] — writes an outbox until it is empty or the socket is
//!   full, and says which (or that the write failed).
//! - [`Registration`] — a descriptor's place in the poller, reconciled
//!   with what the connection waits on: added, modified, or deleted.
//! - [`Listener`] — accepts until `WouldBlock`; any other accept error
//!   (descriptor exhaustion, `EMFILE`, reports per attempt) parks it out
//!   of the poller for [`ACCEPT_PARK`] instead of letting a
//!   level-triggered listener spin a core on the failing call.

use crate::poll::{Interest, Poller};
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on encoded frames a connection's outbox may hold.
pub const DEFAULT_OUTBOX_CAP: usize = 64 * 1024;

/// How long an accept failure parks a [`Listener`] before it retries.
pub const ACCEPT_PARK: Duration = Duration::from_millis(20);

/// Encoded frames waiting for the socket, back to back in one buffer:
/// frames are encoded into it in place, the owner writes
/// [`Outbox::unsent`] and [`Outbox::advance`]s past what the socket
/// took. Once everything is written the buffer is emptied and reused, so
/// a frame costs no allocation and a flush no gather list.
pub struct Outbox {
    bytes: Vec<u8>,
    sent: usize,
    frames: usize,
    cap: usize,
}

impl Outbox {
    /// An empty outbox that holds at most `cap` frames (at least one).
    pub fn new(cap: usize) -> Self {
        Self {
            bytes: Vec::new(),
            sent: 0,
            frames: 0,
            cap: cap.max(1),
        }
    }

    /// Appends one frame, unless `cap` frames already wait.
    #[inline]
    pub fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> bool {
        if self.is_full() {
            return false;
        }
        encode(&mut self.bytes);
        self.frames += 1;
        true
    }

    /// Whether `cap` frames wait, so the next [`Outbox::push`] would fail.
    /// A frame counts until the whole buffer has been written.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.frames >= self.cap
    }

    /// Whether every frame pushed is on the wire.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Frames waiting in the buffer (a partly written one included).
    #[inline]
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The bytes still to be written.
    #[inline]
    pub fn unsent(&self) -> &[u8] {
        &self.bytes[self.sent..]
    }

    /// The socket took `n` more bytes.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        self.sent += n;
        if self.sent == self.bytes.len() {
            self.bytes.clear();
            self.sent = 0;
            self.frames = 0;
        }
    }
}

/// How a [`flush`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flush {
    /// Everything is written; the outbox is empty.
    Done,
    /// The socket is full; the rest waits for writability.
    Blocked,
    /// The write failed: the connection is dead.
    Failed,
}

/// Writes `out` to `stream` until the outbox is empty or the socket is
/// full.
pub fn flush(stream: &mut impl Write, out: &mut Outbox) -> Flush {
    while !out.unsent().is_empty() {
        match stream.write(out.unsent()) {
            Ok(0) => return Flush::Failed,
            Ok(n) => out.advance(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Flush::Blocked,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Failed,
        }
    }
    Flush::Done
}

/// A descriptor's registration in a [`Poller`]: its token and the
/// interest currently registered (`None` = not in the poller).
pub struct Registration {
    fd: RawFd,
    token: u64,
    interest: Option<Interest>,
}

impl Registration {
    /// `fd` under `token`, not yet in any poller; the first
    /// [`Registration::sync`] that wants something adds it.
    pub fn new(fd: RawFd, token: u64) -> Self {
        Self {
            fd,
            token,
            interest: None,
        }
    }

    /// Registers exactly the events the connection waits on: added when
    /// it wants something again, modified when that changes, deleted
    /// when it wants neither (level-triggered epoll would otherwise
    /// re-report a consumed half-close forever). `false` when the
    /// poller refused the add or modify; the registration is unchanged.
    #[inline]
    pub fn sync(&mut self, poller: &Poller, want_read: bool, want_write: bool) -> bool {
        let want = match (want_read, want_write) {
            (true, true) => Some(Interest::READ_WRITE),
            (true, false) => Some(Interest::READ),
            (false, true) => Some(Interest::WRITE),
            (false, false) => None,
        };
        if want == self.interest {
            return true;
        }
        let ok = match (self.interest, want) {
            (None, Some(i)) => poller.add(self.fd, self.token, i).is_ok(),
            (Some(_), Some(i)) => poller.modify(self.fd, self.token, i).is_ok(),
            (Some(_), None) => {
                let _ = poller.delete(self.fd);
                true
            }
            (None, None) => true,
        };
        if ok {
            self.interest = want;
        }
        ok
    }
}

enum ListenState {
    /// In the poller; accepting.
    Open,
    /// Out of the poller after an accept failure, until this instant.
    Parked(Instant),
    /// Out of the poller for good.
    Closed,
}

/// A non-blocking listening socket registered for readability. Pending
/// connections stay in the kernel backlog while it is parked: deferred,
/// not refused.
pub struct Listener {
    socket: Arc<TcpListener>,
    token: u64,
    state: ListenState,
}

impl Listener {
    /// Registers `socket` (already non-blocking) in `poller` under
    /// `token`. Loops that share one socket each register their own
    /// `Listener` over it; losers of an accept race see `WouldBlock`.
    pub fn register(
        socket: impl Into<Arc<TcpListener>>,
        poller: &Poller,
        token: u64,
    ) -> std::io::Result<Listener> {
        let socket = socket.into();
        poller.add(socket.as_raw_fd(), token, Interest::READ)?;
        Ok(Listener {
            socket,
            token,
            state: ListenState::Open,
        })
    }

    /// The next pending connection, if the listener is open and one
    /// waits. Any error but `WouldBlock` parks the listener.
    pub fn accept(&mut self, poller: &Poller) -> Option<TcpStream> {
        while let ListenState::Open = self.state {
            match self.socket.accept() {
                Ok((stream, _peer)) => return Some(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    let _ = poller.delete(self.socket.as_raw_fd());
                    self.state = ListenState::Parked(Instant::now() + ACCEPT_PARK);
                }
            }
        }
        None
    }

    /// Re-registers a listener whose park is over. `true` when it did:
    /// connections may have queued meanwhile, so the caller accepts now.
    /// A failed re-registration parks it again.
    pub fn check_park(&mut self, poller: &Poller) -> bool {
        let ListenState::Parked(until) = self.state else {
            return false;
        };
        if Instant::now() < until {
            return false;
        }
        if poller
            .add(self.socket.as_raw_fd(), self.token, Interest::READ)
            .is_ok()
        {
            self.state = ListenState::Open;
            true
        } else {
            self.state = ListenState::Parked(Instant::now() + ACCEPT_PARK);
            false
        }
    }

    /// A `Poller::wait` timeout that wakes the caller for
    /// [`Listener::check_park`]: `idle_ms` (`-1` = forever), cut to the
    /// rest of the park while parked.
    pub fn timeout_ms(&self, idle_ms: i32) -> i32 {
        let ListenState::Parked(until) = self.state else {
            return idle_ms;
        };
        let left = until.saturating_duration_since(Instant::now());
        let left = i32::try_from(left.as_micros().div_ceil(1000)).unwrap_or(i32::MAX);
        if idle_ms < 0 {
            left
        } else {
            left.min(idle_ms)
        }
    }

    /// Stops accepting for good: out of the poller, parked or not.
    pub fn close(&mut self, poller: &Poller) {
        if let ListenState::Open = self.state {
            let _ = poller.delete(self.socket.as_raw_fd());
        }
        self.state = ListenState::Closed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::Events;

    #[test]
    fn outbox_is_one_buffer_bounded_in_frames() {
        let mut out = Outbox::new(2);
        assert!(out.push(|b| b.extend_from_slice(b"one")));
        assert!(out.push(|b| b.extend_from_slice(b"two-three")));
        assert!(out.is_full());
        assert!(!out.push(|_| panic!("a full outbox encodes nothing")));
        // A partial write frees no frame: the buffer empties whole.
        out.advance(5);
        assert_eq!((out.unsent(), out.frames()), (&b"o-three"[..], 2));
        let grown = out.bytes.capacity();
        out.advance(7);
        assert!(out.is_empty() && out.unsent().is_empty());
        assert!(out.push(|b| b.extend_from_slice(b"four")));
        assert_eq!(out.unsent(), b"four");
        assert_eq!(out.bytes.capacity(), grown, "the buffer is reused");
    }

    /// A connected, non-blocking socket pair: (ours, the peer's).
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
        let (ours, _) = l.accept().expect("accept");
        ours.set_nonblocking(true).expect("nonblocking");
        (ours, peer)
    }

    #[test]
    fn flush_reports_done_then_blocked_then_failed() {
        let (mut ours, peer) = pair();
        let mut out = Outbox::new(4);
        assert!(out.push(|b| b.extend_from_slice(b"hello")));
        assert_eq!(flush(&mut ours, &mut out), Flush::Done);
        assert!(out.is_empty());
        // A peer that never reads: the socket fills and the rest waits.
        let big = vec![0u8; 1 << 20];
        let verdict = loop {
            assert!(out.push(|b| b.extend_from_slice(&big)));
            match flush(&mut ours, &mut out) {
                Flush::Done => continue,
                other => break other,
            }
        };
        assert_eq!(verdict, Flush::Blocked);
        assert!(!out.is_empty());
        drop(peer);
        let verdict = loop {
            match flush(&mut ours, &mut out) {
                Flush::Blocked => std::thread::sleep(Duration::from_millis(5)),
                other => break other,
            }
        };
        assert_eq!(verdict, Flush::Failed, "the peer is gone");
    }

    #[test]
    fn registration_sync_adds_modifies_and_deletes() {
        let (ours, mut peer) = pair();
        // A byte waits, so read interest shows as well as write interest.
        peer.write_all(b"x").expect("write");
        let poller = Poller::new().expect("epoll");
        let mut events = Events::with_capacity(4);
        let mut reg = Registration::new(ours.as_raw_fd(), 9);
        // What the poller reports for `ours` now: (readable, writable).
        let mut ready = |poller: &Poller| -> Vec<(bool, bool)> {
            poller.wait(&mut events, 0).expect("wait");
            assert!(events.iter().all(|e| e.token == 9));
            events.iter().map(|e| (e.readable, e.writable)).collect()
        };

        assert!(reg.sync(&poller, true, false), "added");
        assert_eq!(ready(&poller), [(true, false)]);
        assert!(reg.sync(&poller, true, true), "modified");
        assert_eq!(ready(&poller), [(true, true)]);
        assert!(reg.sync(&poller, false, true), "modified");
        assert_eq!(ready(&poller), [(false, true)]);
        assert!(reg.sync(&poller, false, false), "deleted");
        assert!(ready(&poller).is_empty());
        // Deleting twice would fail in the kernel: an unchanged want is
        // a no-op.
        assert!(reg.sync(&poller, false, false));
        assert!(reg.sync(&poller, true, false), "re-added");
        assert_eq!(ready(&poller), [(true, false)]);
    }

    #[test]
    fn a_closed_listener_accepts_nothing() {
        let socket = TcpListener::bind("127.0.0.1:0").expect("bind");
        socket.set_nonblocking(true).expect("nonblocking");
        let addr = socket.local_addr().expect("addr");
        let poller = Poller::new().expect("epoll");
        let mut listener = Listener::register(socket, &poller, 1).expect("register");
        assert!(listener.accept(&poller).is_none(), "WouldBlock");
        assert_eq!(listener.timeout_ms(-1), -1, "open: not parked");
        let _client = TcpStream::connect(addr).expect("connect");
        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, 1_000).expect("wait"), 1);
        listener.close(&poller);
        assert!(listener.accept(&poller).is_none(), "closed");
        assert!(!listener.check_park(&poller));
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
    }
}
