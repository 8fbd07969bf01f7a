//! Portable coroutine fallback for non-x86_64 targets.
//!
//! Each coroutine is an OS thread lock-stepped with its caller through a
//! pair of rendezvous channels, so exactly one of the two ever runs at a
//! time — the same observable semantics as the assembly implementation,
//! at orders-of-magnitude higher switch cost. Good enough to keep the
//! crate (and everything above it) building and testing everywhere.

use crate::stack::Stack;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Result of a [`Coroutine::resume`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoState {
    /// The coroutine yielded; call `resume` again to continue it.
    Suspended,
    /// The closure returned; further `resume` calls return `Complete`.
    Complete,
}

/// What the coroutine's thread tells its caller. `Yielded` carries no
/// payload, so the yielder's end of the channel is the same type for
/// every `R`.
enum FromCo<R> {
    Yielded,
    Finished(Result<R, Box<dyn Any + Send>>),
}

/// A coroutine backed by a parked OS thread, whose closure returns `R`.
pub struct Coroutine<R = ()> {
    to_co: SyncSender<()>,
    from_co: Receiver<FromCo<R>>,
    handle: Option<JoinHandle<()>>,
    complete: bool,
    /// What the closure returned, until [`Coroutine::take_result`].
    result: Option<R>,
    /// The stack this coroutine was given; `Some` until `into_stack`
    /// (which consumes the coroutine) hands it back.
    pooled_stack: Option<Stack>,
}

/// Yield handle passed to the coroutine closure.
pub struct Yielder {
    /// Tells the caller the coroutine yielded.
    notify: Box<dyn Fn() + Send>,
    wait: Receiver<()>,
}

impl Yielder {
    /// Suspends the coroutine until the next [`Coroutine::resume`].
    pub fn yield_now(&mut self) {
        (self.notify)();
        // Block until resumed; if the Coroutine was dropped, park forever
        // is wrong — exit by panicking inside the (detached) thread.
        if self.wait.recv().is_err() {
            // The owner dropped the coroutine: unwind this thread quietly.
            resume_unwind(Box::new(CoroutineDropped));
        }
    }
}

/// Marker payload used to unwind a dropped coroutine's thread.
struct CoroutineDropped;

impl<R: Send + 'static> Coroutine<R> {
    /// Creates a coroutine. `stack_size` sizes the backing thread's stack.
    pub fn new<F>(stack_size: usize, f: F) -> Self
    where
        F: FnOnce(&mut Yielder) -> R + Send + 'static,
    {
        Self::with_stack(Stack::new(stack_size), f)
    }

    /// Creates a coroutine on a caller-provided stack. The fallback backend
    /// cannot point a thread at a foreign stack, so the stack only sizes
    /// the thread; it is returned by [`Coroutine::into_stack`] afterwards.
    pub fn with_stack<F>(stack: Stack, f: F) -> Self
    where
        F: FnOnce(&mut Yielder) -> R + Send + 'static,
    {
        let stack_size = stack.size();
        let (to_co, co_wait) = sync_channel::<()>(0);
        let (co_notify, from_co) = sync_channel::<FromCo<R>>(0);
        let notify = co_notify.clone();
        let handle = std::thread::Builder::new()
            .stack_size(stack_size.max(64 * 1024))
            .name("concord-uthread-fallback".into())
            .spawn(move || {
                // Wait for the first resume.
                if co_wait.recv().is_err() {
                    return;
                }
                let mut yielder = Yielder {
                    notify: Box::new(move || {
                        co_notify.send(FromCo::Yielded).expect("caller side alive");
                    }),
                    wait: co_wait,
                };
                let result = catch_unwind(AssertUnwindSafe(move || f(&mut yielder)));
                if matches!(&result, Err(p) if p.is::<CoroutineDropped>()) {
                    return;
                }
                let _ = notify.send(FromCo::Finished(result));
            })
            .expect("spawn fallback coroutine thread");
        Self {
            to_co,
            from_co,
            handle: Some(handle),
            complete: false,
            result: None,
            pooled_stack: Some(stack),
        }
    }
}

impl<R> Coroutine<R> {
    /// What the closure returned, until [`Coroutine::take_result`] takes
    /// it.
    pub fn result(&self) -> Option<&R> {
        self.result.as_ref()
    }

    /// Takes what the closure returned: `Some` once after the coroutine
    /// completed normally, `None` before that, after a panic, and on
    /// every later call.
    pub fn take_result(&mut self) -> Option<R> {
        self.result.take()
    }

    /// Recovers the stack, if the coroutine has completed (or never ran).
    pub fn into_stack(mut self) -> Option<Stack> {
        if self.complete || self.handle.is_some() {
            self.pooled_stack.take()
        } else {
            None
        }
    }

    /// Runs the coroutine until it yields or completes.
    pub fn resume(&mut self) -> CoState {
        if self.complete {
            return CoState::Complete;
        }
        self.to_co.send(()).expect("coroutine thread alive");
        match self.from_co.recv().expect("coroutine reply") {
            FromCo::Yielded => CoState::Suspended,
            FromCo::Finished(Ok(value)) => {
                self.complete = true;
                self.result = Some(value);
                CoState::Complete
            }
            FromCo::Finished(Err(payload)) => {
                self.complete = true;
                resume_unwind(payload);
            }
        }
    }

    /// True once the closure has returned (or panicked).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Configured stack size, bytes.
    pub fn stack_size(&self) -> usize {
        self.pooled_stack.as_ref().map_or(0, Stack::size)
    }
}

impl<R> Drop for Coroutine<R> {
    fn drop(&mut self) {
        // Closing `to_co` unblocks a suspended coroutine, whose yielder
        // then unwinds its thread; join to avoid leaking threads.
        let (sender, _) = sync_channel::<()>(0);
        // Replace the live sender so the channel disconnects.
        self.to_co = sender;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
