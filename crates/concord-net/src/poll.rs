//! A minimal first-party readiness-notification layer: `epoll` and
//! `eventfd`, bound through a tiny `extern "C"` shim.
//!
//! The zero-dependency policy (DESIGN.md §2) rules out the `libc` crate,
//! but the platform C library is already linked by `std` on every Linux
//! target, so declaring the few syscall wrappers we need costs nothing
//! and keeps the unsafe surface auditable in one screenful. Everything
//! above this module is safe code: the wrappers validate their inputs
//! (slices in, descriptors we opened ourselves) and surface errors as
//! `std::io::Error` from `errno`.
//!
//! Two exports:
//!
//! - [`Poller`] — an epoll instance. Register interest in a descriptor
//!   under a caller-chosen 64-bit token, then [`Poller::wait`] for
//!   readiness [`Event`]s. Level-triggered: a readable descriptor keeps
//!   reporting until drained, which is what makes the server's
//!   state machines restartable after partial reads.
//! - [`Waker`] — an `eventfd` that other threads write to pull a
//!   blocked [`Poller::wait`] out of its sleep (the rack proxy's and the
//!   admin listener's loops). A write is a syscall on the writer's
//!   thread and a context switch on the sleeper's; the server's
//!   dispatchers poll with a zero timeout and are never woken.
//!
//! Linux-only, like the TCP server built on it; the rest of the
//! workspace (simulator, in-process rings) stays portable.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};

/// `epoll_event.events` flag: descriptor readable.
const EPOLLIN: u32 = 0x001;
/// `epoll_event.events` flag: descriptor writable.
const EPOLLOUT: u32 = 0x004;
/// `epoll_event.events` flag: error condition.
const EPOLLERR: u32 = 0x008;
/// `epoll_event.events` flag: hangup (peer closed).
const EPOLLHUP: u32 = 0x010;
/// `epoll_event.events` flag: peer shut down its writing half.
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// `EPOLL_CLOEXEC` == `O_CLOEXEC`.
const EPOLL_CLOEXEC: c_int = 0o2000000;
/// `EFD_CLOEXEC` == `O_CLOEXEC`.
const EFD_CLOEXEC: c_int = 0o2000000;
/// `EFD_NONBLOCK` == `O_NONBLOCK`.
const EFD_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (and only there)
/// to match the kernel UAPI header's `EPOLL_PACKED` attribute.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// The kernel's `struct epoll_event` (naturally aligned off x86-64).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

// The platform C library is linked by `std`; these are the only symbols
// this workspace binds directly (DESIGN.md §2's "minimal FFI shim").
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What to watch a registered descriptor for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only. For a half-closed connection that is still owed
    /// responses: no read interest, and no `EPOLLRDHUP` either — the
    /// peer's half-close has already been consumed, and level-triggered
    /// `RDHUP` would otherwise re-report it forever.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut b = 0;
        if self.readable {
            b |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            b |= EPOLLOUT;
        }
        b
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable (includes peer half-close: a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup condition; the descriptor should be serviced and
    /// likely torn down.
    pub hangup: bool,
}

/// Reusable buffer of kernel events for [`Poller::wait`].
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer that receives at most `cap` events per wait.
    pub fn with_capacity(cap: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; cap.max(1)],
            len: 0,
        }
    }

    /// Iterates the events delivered by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| {
            // Copy out of the (possibly packed) struct before testing bits.
            let bits = e.events;
            Event {
                token: e.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            }
        })
    }
}

/// An epoll instance: level-triggered readiness for registered
/// descriptors, each identified by a caller-chosen token.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest.bits(),
                data: token,
            }),
        )
    }

    /// Changes the interest set (and token) of a registered descriptor.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest.bits(),
                data: token,
            }),
        )
    }

    /// Removes a descriptor from the interest set. A no-op error (the
    /// descriptor was already closed) is surfaced; callers may ignore it.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout_ms` elapses (`-1` = forever, `0` = poll). Returns the
    /// number of events written into `events`. Retries on `EINTR`.
    pub fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer is valid for `buf.len()` events and the
            // kernel writes at most `maxevents` of them.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.buf.as_mut_ptr(),
                    events.buf.len() as c_int,
                    timeout_ms as c_int,
                )
            };
            if n >= 0 {
                events.len = n as usize;
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own the descriptor.
        unsafe { close(self.epfd) };
    }
}

/// A cross-thread wake-up for a [`Poller`]: an `eventfd` registered in
/// the poller like any other descriptor. [`Waker::wake`] from any thread
/// makes the next (or current) [`Poller::wait`] report it readable;
/// the owning loop calls [`Waker::drain`] to reset it.
pub struct Waker {
    fd: RawFd,
}

// An eventfd is safe to write from any thread.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Creates a non-blocking eventfd.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The raw descriptor, for registration in a [`Poller`].
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Signals the poller. Safe from any thread; never blocks (a
    /// saturated counter still reads as ready).
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: 8 valid bytes; eventfd writes are atomic.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consumes pending wake-ups so the descriptor stops reading ready.
    pub fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: 8 valid bytes; EAGAIN (already drained) is fine.
        unsafe { read(self.fd, (&mut count as *mut u64).cast(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: we own the descriptor.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_wakes_a_blocked_poller() {
        let poller = Poller::new().expect("epoll");
        let waker = std::sync::Arc::new(Waker::new().expect("eventfd"));
        poller.add(waker.fd(), 99, Interest::READ).expect("add");
        let w = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            w.wake();
        });
        let mut events = Events::with_capacity(4);
        let n = poller.wait(&mut events, 5_000).expect("wait");
        assert_eq!(n, 1);
        let ev = events.iter().next().expect("one event");
        assert_eq!(ev.token, 99);
        assert!(ev.readable);
        waker.drain();
        // Drained: an immediate poll reports nothing.
        let n = poller.wait(&mut events, 0).expect("wait");
        assert_eq!(n, 0, "drained waker must not stay readable");
        t.join().expect("waker thread");
    }

    #[test]
    fn socket_readability_is_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("epoll");
        poller
            .add(server.as_raw_fd(), 7, Interest::READ)
            .expect("add");

        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);

        client.write_all(b"hello").expect("write");
        assert_eq!(poller.wait(&mut events, 2_000).expect("wait"), 1);
        let ev = events.iter().next().expect("event");
        assert!(ev.readable && ev.token == 7);
        // Level-triggered: undrained data keeps reporting.
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 1);

        let mut s = server;
        let mut buf = [0u8; 16];
        let n = s.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"hello");
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);

        poller.delete(s.as_raw_fd()).expect("delete");
        client.write_all(b"more").expect("write");
        assert_eq!(
            poller.wait(&mut events, 50).expect("wait"),
            0,
            "deleted descriptor must not report"
        );
    }

    #[test]
    fn writability_interest_reports_on_empty_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("epoll");
        poller
            .add(server.as_raw_fd(), 1, Interest::READ_WRITE)
            .expect("add");
        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, 1_000).expect("wait"), 1);
        assert!(events.iter().next().expect("event").writable);

        // Back to read-only interest: writability stops reporting.
        poller
            .modify(server.as_raw_fd(), 1, Interest::READ)
            .expect("modify");
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
    }
}
