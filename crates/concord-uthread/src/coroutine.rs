//! The safe coroutine API over the raw context switch.
//!
//! A coroutine owns nothing but the [`Stack`] it was given: the control
//! block, the entry closure and later the closure's return value all live
//! at the top of that region, so creating one is pointer arithmetic plus
//! a handful of stores and [`Coroutine::into_stack`] hands the whole
//! reusable unit back.
//!
//! ```text
//! stack.top() ──────────────────────────────────────────────
//!    Header       co_sp, caller_sp, phase, slot, drop_entry,
//!                 panic payload, the owning `Stack` handle
//!    slot         the entry closure `F` until the first resume,
//!                 its return value `R` once it returned
//!                 (aligned for both)
//!    boot frame   return address + six callee-saved registers
//!                 (`arch::init_stack`), 16-byte aligned
//!    ...          the coroutine's call stack grows down from here
//! stack.base() ─────────────────────────────────────────────
//! ```
//!
//! Every `unsafe` block below leans on the same three facts, referred to
//! as (A), (B) and (C) in the `SAFETY` comments:
//!
//! - (A) **The frame is inside a live allocation.** `with_stack` checks
//!   that header, slot and boot frame together take at most half of the
//!   region before writing any of them, and the `Stack` that owns the
//!   region is itself stored in the header: nothing frees the memory
//!   until [`Coroutine::vacate`] moves that handle out, which is the last
//!   thing a coroutine does with its frame.
//! - (B) **One thread touches the frame at a time.** The header is
//!   reached only through `&mut Coroutine` (`resume`, `take_result`,
//!   `Drop`) or by code running *on* the coroutine (`co_main`,
//!   `Yielder`), and the coroutine runs only while its owner is blocked
//!   inside `resume`'s context switch. `Coroutine` is `Send` but not
//!   `Sync`, and `Yielder` is neither.
//! - (C) **`phase` says what the slot holds.** `Ready`: an initialised
//!   `F`. `Returned`: an initialised `R`. Anything else: nothing. Each
//!   transition that moves a value out of the slot changes the phase
//!   first or in the same uninterruptible step, so no value is read or
//!   dropped twice.

use crate::arch::{concord_ctx_switch, init_stack, BOOT_FRAME_BYTES};
use crate::stack::{Stack, STACK_ALIGN};
use std::any::Any;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

/// Result of a [`Coroutine::resume`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoState {
    /// The coroutine yielded; call `resume` again to continue it.
    Suspended,
    /// The closure returned; further `resume` calls return `Complete`.
    Complete,
}

/// Lifecycle of the control block, and with it the contents of the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Created, never resumed. The slot holds the entry closure.
    Ready,
    /// Currently executing (between resume and yield/return).
    Running,
    /// Yielded, waiting for the next resume.
    Suspended,
    /// The closure returned. The slot holds its return value.
    Returned,
    /// The closure panicked, or its return value was taken.
    Finished,
}

/// The control block at the top of the coroutine's own stack region.
///
/// Written once into raw stack memory by `with_stack` and from then on
/// reached only through raw pointers: it never moves and is never dropped
/// as a whole: `vacate` moves the `Stack` out, and `panic` is `Some` only
/// between `co_main` storing a payload and the `resume` that switched to
/// it taking it straight back out.
struct Header {
    /// Saved stack pointer of the *coroutine* while it is suspended.
    co_sp: *mut u8,
    /// Saved stack pointer of the *caller* while the coroutine runs.
    caller_sp: *mut u8,
    phase: Phase,
    /// Where the entry closure, then its return value, lives.
    slot: *mut u8,
    /// Drops the entry closure in `slot`. The closure's type is erased
    /// everywhere but here and in the monomorphised `co_main`.
    drop_entry: unsafe fn(*mut u8),
    /// A panic payload captured inside the coroutine, re-thrown by resume.
    panic: Option<Box<dyn Any + Send>>,
    /// The region this header lives in.
    stack: Stack,
}

/// A stackful coroutine whose closure returns `R`.
///
/// The closure runs on its own stack and may call [`Yielder::yield_now`]
/// at any depth; `resume` returns [`CoState::Suspended`] at each yield and
/// [`CoState::Complete`] when the closure returns, after which
/// [`Coroutine::take_result`] yields what it returned. A suspended
/// coroutine may be sent to another thread and resumed there — this is
/// how the Concord runtime migrates preempted requests between workers.
///
/// Creating, running and recycling a coroutine on a caller-provided
/// [`Stack`] allocates nothing: control block, closure and return value
/// live inside that stack.
///
/// # Panics
///
/// A panic inside the coroutine is caught at the coroutine boundary and
/// re-thrown from the `resume` call that observed it.
///
/// Dropping a coroutine that never ran drops its closure; dropping one
/// that returned drops an untaken return value. Dropping a coroutine that
/// is merely `Suspended` frees its stack but does **not** run destructors
/// of values live on that stack — the same contract as Shinjuku's
/// contexts. Runtimes built on this type should drive every coroutine to
/// completion.
pub struct Coroutine<R = ()> {
    hdr: NonNull<Header>,
    _result: PhantomData<R>,
}

// SAFETY: the entry closure and its return value are `Send`, the stack is
// owned, and every method that touches the frame takes `&mut self`, so at
// most one thread ever executes or inspects the coroutine at a time (B).
// Values the closure keeps on its stack across yields are part of the
// closure's execution and were required to be `Send` via the closure
// bound.
unsafe impl<R: Send> Send for Coroutine<R> {}

/// The highest address `≤ below - size` that is a multiple of `align`
/// (a power of two), or `None` on underflow.
fn carve(below: usize, size: usize, align: usize) -> Option<usize> {
    Some(below.checked_sub(size)? & !(align - 1))
}

impl<R: Send + 'static> Coroutine<R> {
    /// Creates a coroutine with a dedicated stack of `stack_size` bytes
    /// (rounded up to a minimum; see [`crate::stack::Stack::new`]).
    ///
    /// Nothing runs until the first [`Coroutine::resume`].
    ///
    /// # Panics
    ///
    /// As [`Coroutine::with_stack`].
    pub fn new<F>(stack_size: usize, f: F) -> Self
    where
        F: FnOnce(&mut Yielder) -> R + Send + 'static,
    {
        Self::with_stack(Stack::new(stack_size), f)
    }

    /// Creates a coroutine on a caller-provided stack — the allocation-free
    /// path for runtimes that pool stacks across requests.
    ///
    /// # Panics
    ///
    /// Panics if the control block, the closure (or its return value) and
    /// the boot frame together need more than half of `stack`; the stack
    /// is freed.
    pub fn with_stack<F>(stack: Stack, f: F) -> Self
    where
        F: FnOnce(&mut Yielder) -> R + Send + 'static,
    {
        let base = stack.base();
        let top = base as usize + stack.size();
        let slot_size = size_of::<F>().max(size_of::<R>());
        let slot_align = align_of::<F>().max(align_of::<R>());
        let placed = carve(top, size_of::<Header>(), align_of::<Header>())
            .and_then(|hdr| {
                let slot = carve(hdr, slot_size, slot_align)?;
                let boot_top = carve(slot, 0, STACK_ALIGN)?;
                Some((hdr, slot, boot_top))
            })
            .filter(|&(_, _, boot_top)| top - boot_top + BOOT_FRAME_BYTES <= stack.size() / 2);
        let Some((hdr, slot, boot_top)) = placed else {
            panic!(
                "coroutine frame ({slot_size}-byte closure/result slot) does not fit in half of a {}-byte stack",
                stack.size()
            );
        };
        // SAFETY (A): base ≤ boot_top - BOOT_FRAME_BYTES < boot_top ≤ slot
        // ≤ hdr, hdr + size_of::<Header>() ≤ top and slot + slot_size ≤
        // hdr were just checked, so all three offsets stay inside the
        // region `stack` owns; `carve` aligned each address for its type.
        // Nothing else refers to the region yet (B), and the writes
        // establish (C) for `Phase::Ready`. `co_main::<F, R>` is the main
        // function matching the `F` written to the slot.
        unsafe {
            let at = |addr: usize| base.add(addr - base as usize);
            let hdr = at(hdr).cast::<Header>();
            let slot = at(slot);
            slot.cast::<F>().write(f);
            hdr.write(Header {
                co_sp: init_stack(at(boot_top), hdr.cast(), co_main::<F, R>),
                caller_sp: ptr::null_mut(),
                phase: Phase::Ready,
                slot,
                drop_entry: drop_entry::<F>,
                panic: None,
                stack,
            });
            Self {
                hdr: NonNull::new_unchecked(hdr),
                _result: PhantomData,
            }
        }
    }
}

impl<R> Coroutine<R> {
    fn phase(&self) -> Phase {
        // SAFETY (A, B): the header is live and `&self` excludes the
        // coroutine running.
        unsafe { (*self.hdr.as_ptr()).phase }
    }

    /// Runs the coroutine until it yields or completes.
    pub fn resume(&mut self) -> CoState {
        let hdr = self.hdr.as_ptr();
        // SAFETY (A, B): the header is live and ours. `co_sp` was produced
        // by `init_stack` (first resume) or by the coroutine's own yield
        // switch; its stack is live and not executing anywhere (`&mut
        // self` + the phase checks guarantee this).
        unsafe {
            match (*hdr).phase {
                Phase::Returned | Phase::Finished => return CoState::Complete,
                Phase::Running => unreachable!("resume re-entered a running coroutine"),
                Phase::Ready | Phase::Suspended => {}
            }
            (*hdr).phase = Phase::Running;
            concord_ctx_switch(&mut (*hdr).caller_sp, (*hdr).co_sp);
            // Back here: the coroutine yielded or finished.
            if let Some(payload) = (*hdr).panic.take() {
                resume_unwind(payload);
            }
            match (*hdr).phase {
                Phase::Running => {
                    (*hdr).phase = Phase::Suspended;
                    CoState::Suspended
                }
                Phase::Returned => CoState::Complete,
                _ => unreachable!("invalid phase after switch"),
            }
        }
    }

    /// True once the closure has returned (or panicked).
    pub fn is_complete(&self) -> bool {
        matches!(self.phase(), Phase::Returned | Phase::Finished)
    }

    /// Size of this coroutine's stack, bytes.
    pub fn stack_size(&self) -> usize {
        // SAFETY (A, B): as in `phase`.
        unsafe { (*self.hdr.as_ptr()).stack.size() }
    }

    /// What the closure returned, while it is still in the frame: `Some`
    /// between normal completion and [`Coroutine::take_result`].
    pub fn result(&self) -> Option<&R> {
        let hdr = self.hdr.as_ptr();
        // SAFETY (A, B, C): in `Returned` the slot holds an `R`; the
        // borrow of `self` keeps `take_result`, `resume` and `Drop` away
        // from it for as long as the reference lives.
        unsafe { ((*hdr).phase == Phase::Returned).then(|| &*(*hdr).slot.cast::<R>()) }
    }

    /// Takes what the closure returned: `Some` once after the coroutine
    /// completed normally, `None` before that, after a panic, and on
    /// every later call.
    pub fn take_result(&mut self) -> Option<R> {
        let hdr = self.hdr.as_ptr();
        // SAFETY (A, B, C): in `Returned` the slot holds an `R` written by
        // `co_main::<_, R>`; flipping the phase first makes this the only
        // read of it.
        unsafe {
            if (*hdr).phase != Phase::Returned {
                return None;
            }
            (*hdr).phase = Phase::Finished;
            Some((*hdr).slot.cast::<R>().read())
        }
    }

    /// Recovers the stack for reuse.
    ///
    /// Returns `Some` only when the coroutine has completed (or never
    /// ran, in which case its closure is dropped here): a suspended
    /// coroutine's stack still holds live frames, so it is dropped with
    /// the coroutine instead of being handed back.
    pub fn into_stack(self) -> Option<Stack> {
        match self.phase() {
            Phase::Running | Phase::Suspended => None,
            Phase::Ready | Phase::Returned | Phase::Finished => {
                let mut this = ManuallyDrop::new(self);
                // SAFETY: `this` is never used again and its `Drop` never
                // runs, so the frame is vacated exactly once.
                Some(unsafe { this.vacate() })
            }
        }
    }

    /// Drops whatever the slot still holds and moves the owning `Stack`
    /// out of the header, ending the frame's life.
    ///
    /// # Safety
    ///
    /// Must be the last access to this coroutine's frame: the returned
    /// `Stack` owns the memory `self.hdr` points into.
    unsafe fn vacate(&mut self) -> Stack {
        let hdr = self.hdr.as_ptr();
        // SAFETY (A, B): the header is live until the `Stack` read out
        // below is dropped, and that local is dropped last — also when a
        // destructor below unwinds — so the slot and header are still
        // mapped for every access here. (C) picks the destructor; the
        // phase is overwritten before it runs, so nothing is dropped
        // twice even if it panics.
        unsafe {
            let stack = ptr::read(&(*hdr).stack);
            let phase = std::mem::replace(&mut (*hdr).phase, Phase::Finished);
            match phase {
                Phase::Ready => ((*hdr).drop_entry)((*hdr).slot),
                Phase::Returned => ptr::drop_in_place((*hdr).slot.cast::<R>()),
                Phase::Running | Phase::Suspended | Phase::Finished => {}
            }
            stack
        }
    }
}

impl<R> Drop for Coroutine<R> {
    fn drop(&mut self) {
        // SAFETY: `drop` is the last use of `self`; `into_stack` wraps
        // the coroutine in `ManuallyDrop` before vacating it, so this
        // does not run a second time.
        drop(unsafe { self.vacate() });
    }
}

/// Drops the entry closure of type `F` stored at `slot`.
///
/// # Safety
///
/// `slot` must hold an initialised `F` that is not used afterwards.
unsafe fn drop_entry<F>(slot: *mut u8) {
    // SAFETY: the caller's contract.
    unsafe { ptr::drop_in_place(slot.cast::<F>()) }
}

/// Yield handle passed to the coroutine closure.
pub struct Yielder {
    hdr: *mut Header,
}

impl Yielder {
    /// Suspends the coroutine; the pending [`Coroutine::resume`] returns
    /// [`CoState::Suspended`], and the next `resume` continues from here.
    pub fn yield_now(&mut self) {
        let hdr = self.hdr;
        // SAFETY (A, B): a `Yielder` exists only inside `co_main`, i.e.
        // on the coroutine's own stack while its owner is blocked inside
        // `resume` on this very header; `caller_sp` was saved by that
        // resume.
        unsafe {
            concord_ctx_switch(&mut (*hdr).co_sp, (*hdr).caller_sp);
        }
    }
}

/// First-activation entry point, reached via the assembly trampoline with
/// the header pointer `init_stack` stashed in the boot frame.
///
/// # Safety
///
/// `ctl` must point at a live `Header` in `Phase::Running` whose slot
/// holds an `F`, and the call must be running on that header's stack.
unsafe extern "C" fn co_main<F, R>(ctl: *mut u8) -> !
where
    F: FnOnce(&mut Yielder) -> R,
{
    let hdr: *mut Header = ctl.cast();
    {
        // SAFETY (B, C): we are the only code running on this coroutine;
        // `resume` set the phase to `Running` before switching here, so
        // the slot's `F` is ours to move out and nobody will drop it in
        // place.
        let entry = unsafe { (*hdr).slot.cast::<F>().read() };
        let mut yielder = Yielder { hdr };
        // Unwinding across the assembly frames below would be undefined
        // behavior, so catch everything here and ferry the payload back.
        let result = catch_unwind(AssertUnwindSafe(move || entry(&mut yielder)));
        // SAFETY (B, C): the closure has finished, nothing else aliases
        // the frame; the slot is empty (its `F` was consumed) and was
        // sized and aligned for `R` by `with_stack`.
        unsafe {
            match result {
                Ok(value) => {
                    (*hdr).slot.cast::<R>().write(value);
                    (*hdr).phase = Phase::Returned;
                }
                Err(payload) => {
                    (*hdr).panic = Some(payload);
                    (*hdr).phase = Phase::Finished;
                }
            }
        }
    }
    // Hand control back to the caller forever; a completed coroutine can
    // never be switched into again through the public API.
    loop {
        // SAFETY: caller_sp was saved by the resume that activated us.
        unsafe {
            concord_ctx_switch(&mut (*hdr).co_sp, (*hdr).caller_sp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_to_completion_without_yield() {
        let hit = Arc::new(AtomicUsize::new(0));
        let h = hit.clone();
        let mut co = Coroutine::new(16 * 1024, move |_| {
            h.store(7, Ordering::SeqCst);
        });
        assert_eq!(co.resume(), CoState::Complete);
        assert_eq!(hit.load(Ordering::SeqCst), 7);
        assert!(co.is_complete());
        assert_eq!(co.resume(), CoState::Complete);
    }

    #[test]
    fn yields_are_observed_in_order() {
        let log = Arc::new(parking_lot_free_log::Log::new());
        let l = log.clone();
        let mut co = Coroutine::new(32 * 1024, move |y| {
            l.push(1);
            y.yield_now();
            l.push(2);
            y.yield_now();
            l.push(3);
        });
        assert_eq!(co.resume(), CoState::Suspended);
        log.push(10);
        assert_eq!(co.resume(), CoState::Suspended);
        log.push(20);
        assert_eq!(co.resume(), CoState::Complete);
        assert_eq!(log.take(), vec![1, 10, 2, 20, 3]);
    }

    /// Tiny Mutex-based log to avoid pulling dev-deps into this test.
    mod parking_lot_free_log {
        use std::sync::Mutex;

        pub struct Log(Mutex<Vec<u32>>);

        impl Log {
            pub fn new() -> Self {
                Self(Mutex::new(Vec::new()))
            }
            pub fn push(&self, v: u32) {
                self.0.lock().expect("log lock").push(v);
            }
            pub fn take(&self) -> Vec<u32> {
                std::mem::take(&mut self.0.lock().expect("log lock"))
            }
        }
    }

    #[test]
    fn state_survives_across_yields() {
        // Locals on the coroutine stack must persist across suspensions.
        let out = Arc::new(AtomicUsize::new(0));
        let o = out.clone();
        let mut co = Coroutine::new(32 * 1024, move |y| {
            let mut acc: usize = 0;
            let data = [1usize, 2, 3, 4, 5];
            for &d in &data {
                acc += d;
                y.yield_now();
            }
            o.store(acc, Ordering::SeqCst);
        });
        let mut suspensions = 0;
        while co.resume() == CoState::Suspended {
            suspensions += 1;
        }
        assert_eq!(suspensions, 5);
        assert_eq!(out.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn deep_call_stacks_work() {
        fn recurse(y: &mut Yielder, depth: usize) -> usize {
            if depth == 0 {
                y.yield_now();
                return 1;
            }
            recurse(y, depth - 1) + 1
        }
        let mut co = Coroutine::new(256 * 1024, move |y| {
            assert_eq!(recurse(y, 100), 101);
        });
        assert_eq!(co.resume(), CoState::Suspended);
        assert_eq!(co.resume(), CoState::Complete);
    }

    #[test]
    fn panic_propagates_to_resume() {
        let mut co = Coroutine::new(32 * 1024, move |y| {
            y.yield_now();
            panic!("boom from coroutine");
        });
        assert_eq!(co.resume(), CoState::Suspended);
        let err = catch_unwind(AssertUnwindSafe(|| co.resume()));
        let payload = err.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().expect("payload kind");
        assert_eq!(*msg, "boom from coroutine");
        assert!(co.is_complete());
        assert_eq!(co.resume(), CoState::Complete);
    }

    #[test]
    fn suspended_coroutine_migrates_across_threads() {
        // The Concord runtime resumes preempted requests on whichever
        // worker is free; the coroutine must tolerate that.
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let mut co = Coroutine::new(64 * 1024, move |y| {
            for _ in 0..10 {
                c.fetch_add(1, Ordering::SeqCst);
                y.yield_now();
            }
        });
        assert_eq!(co.resume(), CoState::Suspended);
        let co = std::thread::spawn(move || {
            assert_eq!(co.resume(), CoState::Suspended);
            co
        })
        .join()
        .expect("worker thread");
        let mut co = co;
        while co.resume() == CoState::Suspended {}
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn many_coroutines_interleave() {
        let mut cos: Vec<Coroutine> = (0..100)
            .map(|i| {
                Coroutine::new(16 * 1024, move |y| {
                    for _ in 0..i % 7 {
                        y.yield_now();
                    }
                })
            })
            .collect();
        let mut live = cos.len();
        while live > 0 {
            live = 0;
            for co in &mut cos {
                if !co.is_complete() && co.resume() == CoState::Suspended {
                    live += 1;
                }
            }
        }
        assert!(cos.iter().all(|c| c.is_complete()));
    }

    #[test]
    fn dropping_suspended_coroutine_is_safe() {
        let mut co = Coroutine::new(32 * 1024, move |y| loop {
            y.yield_now();
        });
        assert_eq!(co.resume(), CoState::Suspended);
        drop(co); // frees the stack; must not crash
    }

    #[test]
    fn completed_stack_can_be_recycled() {
        let mut co = Coroutine::new(32 * 1024, |_| {});
        assert_eq!(co.resume(), CoState::Complete);
        let stack = co.into_stack().expect("completed: stack recoverable");
        // Run a second, different coroutine on the recycled stack.
        let mut co2 = Coroutine::with_stack(stack, |y| y.yield_now());
        assert_eq!(co2.resume(), CoState::Suspended);
        assert_eq!(co2.resume(), CoState::Complete);
    }

    #[test]
    fn suspended_stack_is_not_recoverable() {
        let mut co = Coroutine::new(32 * 1024, |y| y.yield_now());
        assert_eq!(co.resume(), CoState::Suspended);
        assert!(co.into_stack().is_none());
    }

    #[test]
    fn fresh_stack_is_recoverable_before_first_resume() {
        let co = Coroutine::new(32 * 1024, |_| {});
        assert!(co.into_stack().is_some());
    }

    #[test]
    fn switch_is_fast() {
        // §3.1: cooperative switches land around 100 ns on the paper's
        // testbed; sanity-check ours is within an order of magnitude.
        let mut co = Coroutine::new(32 * 1024, move |y| loop {
            y.yield_now();
        });
        co.resume();
        let iters = 200_000u32;
        let start = std::time::Instant::now();
        for _ in 0..iters {
            co.resume();
        }
        let per_pair = start.elapsed().as_nanos() as f64 / f64::from(iters);
        // One resume is two switches (in + out).
        assert!(per_pair < 2_000.0, "switch pair took {per_pair} ns");
    }
}
