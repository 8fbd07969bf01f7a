//! Stackful user-level coroutines — the substrate for Concord's ≈100 ns
//! cooperative yields (paper §3.1).
//!
//! A preempted request in Concord must save its full execution state
//! (stack + callee-saved registers) and later resume, possibly on a
//! *different* worker thread — exactly what Shinjuku's user-level threading
//! provides and what this crate implements from scratch:
//!
//! - [`stack`] — owned, 16-byte-aligned coroutine stacks;
//! - `arch` — the hand-written context switch: ~15 instructions on
//!   x86_64 (push callee-saved registers, swap `rsp`, pop, `ret`);
//! - `coroutine` — the safe API: create with a closure, [`Coroutine::resume`]
//!   until [`CoState::Complete`], yield from inside via [`Yielder`], read
//!   what the closure returned with [`Coroutine::take_result`]. The
//!   control block, the closure and its result live inside the stack the
//!   coroutine was given, so a runtime that recycles stacks
//!   ([`Coroutine::with_stack`] / [`Coroutine::into_stack`]) creates and
//!   retires coroutines without touching the allocator.
//!
//! On non-x86_64 targets a functionally identical (but slower) OS-thread
//! backed implementation is used, so the crate — and everything built on
//! it — stays portable.
//!
//! # Examples
//!
//! ```
//! use concord_uthread::{Coroutine, CoState};
//!
//! let mut steps = 0;
//! let mut co = Coroutine::new(64 * 1024, move |y| {
//!     for _ in 0..3 {
//!         y.yield_now();
//!     }
//!     "done"
//! });
//! while co.resume() == CoState::Suspended {
//!     steps += 1;
//! }
//! assert_eq!(steps, 3);
//! assert_eq!(co.resume(), CoState::Complete);
//! assert_eq!(co.take_result(), Some("done"));
//! ```

#![warn(missing_docs)]

pub mod stack;

#[cfg(target_arch = "x86_64")]
mod arch;
#[cfg(target_arch = "x86_64")]
mod coroutine;
#[cfg(target_arch = "x86_64")]
pub use coroutine::{CoState, Coroutine, Yielder};

#[cfg(not(target_arch = "x86_64"))]
mod fallback;
#[cfg(not(target_arch = "x86_64"))]
pub use fallback::{CoState, Coroutine, Yielder};
