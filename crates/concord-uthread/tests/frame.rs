//! The in-stack coroutine frame: control block, closure and return value
//! live in the `Stack` the coroutine was given, so these tests pin what
//! the `unsafe` placement code must get right — destructors run exactly
//! once, alignment and size of the closure are honoured, a panic leaves
//! the stack reusable, and recycling one stack a million times stays
//! correct. CI runs them optimised as well as in debug.

use concord_uthread::stack::Stack;
use concord_uthread::{CoState, Coroutine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bumps a shared counter when dropped.
struct DropCount(Arc<AtomicUsize>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn counter() -> (Arc<AtomicUsize>, DropCount) {
    let n = Arc::new(AtomicUsize::new(0));
    (n.clone(), DropCount(n))
}

#[test]
fn never_resumed_closure_is_dropped_once_by_drop() {
    let (drops, token) = counter();
    let co = Coroutine::new(16 * 1024, move |_| drop(token));
    assert_eq!(drops.load(Ordering::SeqCst), 0, "creation runs nothing");
    drop(co);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn never_resumed_closure_is_dropped_once_by_into_stack() {
    let (drops, token) = counter();
    let co = Coroutine::new(16 * 1024, move |_| drop(token));
    let stack = co.into_stack().expect("never ran: stack recoverable");
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    // The recycled stack hosts another coroutine, whose capture is
    // independent of the first's.
    let (drops2, token2) = counter();
    let mut co2 = Coroutine::with_stack(stack, move |_| drop(token2));
    assert_eq!(co2.resume(), CoState::Complete);
    assert_eq!(drops2.load(Ordering::SeqCst), 1, "ran: consumed once");
    drop(co2);
    assert_eq!(drops2.load(Ordering::SeqCst), 1, "not dropped again");
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn completed_closure_is_not_dropped_again() {
    let (drops, token) = counter();
    let mut co = Coroutine::new(16 * 1024, move |y| {
        y.yield_now();
        drop(token);
    });
    assert_eq!(co.resume(), CoState::Suspended);
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    assert_eq!(co.resume(), CoState::Complete);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert!(co.into_stack().is_some());
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn result_comes_back_through_the_frame() {
    let mut co = Coroutine::new(16 * 1024, |y| {
        y.yield_now();
        (7u64, String::from("through the frame"))
    });
    assert_eq!(co.take_result(), None, "not started");
    assert_eq!(co.resume(), CoState::Suspended);
    assert_eq!(co.take_result(), None, "not finished");
    assert_eq!(co.resume(), CoState::Complete);
    assert_eq!(co.result().map(|r| r.0), Some(7), "peek leaves it there");
    assert_eq!(
        co.take_result(),
        Some((7, String::from("through the frame")))
    );
    assert!(co.result().is_none());
    assert_eq!(co.take_result(), None, "taken once");
    assert!(co.is_complete());
    assert_eq!(co.resume(), CoState::Complete);
}

#[test]
fn untaken_result_is_dropped_exactly_once() {
    for recycle in [false, true] {
        let (drops, token) = counter();
        let mut co = Coroutine::new(16 * 1024, move |_| token);
        assert_eq!(co.resume(), CoState::Complete);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "alive in the frame");
        if recycle {
            assert!(co.into_stack().is_some());
        } else {
            drop(co);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1, "recycle={recycle}");
    }
    // A taken result belongs to the taker.
    let (drops, token) = counter();
    let mut co = Coroutine::new(16 * 1024, move |_| token);
    assert_eq!(co.resume(), CoState::Complete);
    let taken = co.take_result().expect("returned");
    drop(co);
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(taken);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn over_aligned_closure_and_result_are_placed_aligned() {
    #[derive(Clone, Copy)]
    #[repr(align(64))]
    struct Line([u8; 64]);

    let capture = Line([0xA5; 64]);
    let mut co = Coroutine::new(16 * 1024, move |y| {
        let at = &capture as *const Line as usize;
        y.yield_now();
        assert!(capture.0.iter().all(|&b| b == 0xA5));
        (at, Line([0x5A; 64]))
    });
    assert_eq!(co.resume(), CoState::Suspended);
    assert_eq!(co.resume(), CoState::Complete);
    let (at, line) = co.take_result().expect("returned");
    assert_eq!(at % 64, 0, "the closure ran from an aligned copy");
    assert_eq!(&line as *const Line as usize % 64, 0);
    assert!(line.0.iter().all(|&b| b == 0x5A));
}

#[test]
fn multi_kib_closure_runs_from_inside_the_stack() {
    let mut big = [0u64; 1024]; // 8 KiB captured by value
    for (i, v) in big.iter_mut().enumerate() {
        *v = i as u64 * 3;
    }
    let mut co = Coroutine::new(64 * 1024, move |y| {
        let mut sum = 0u64;
        for (i, v) in big.iter().enumerate() {
            sum += *v;
            if i % 256 == 0 {
                y.yield_now();
            }
        }
        sum
    });
    let mut yields = 0;
    while co.resume() == CoState::Suspended {
        yields += 1;
    }
    assert_eq!(yields, 4);
    assert_eq!(co.take_result(), Some(3 * (1023 * 1024 / 2)));
}

#[cfg(target_arch = "x86_64")] // the OS-thread fallback has no in-stack frame
#[test]
fn frame_larger_than_half_the_stack_is_refused() {
    let big = [1u8; 3 * 1024];
    let refused = catch_unwind(|| Coroutine::new(4 * 1024, move |_| big[0]));
    let msg = refused.err().expect("a 3 KiB closure cannot fit 4 KiB / 2");
    let msg = msg.downcast_ref::<String>().expect("formatted message");
    assert!(msg.contains("does not fit"), "{msg}");
}

#[test]
fn panic_is_ferried_and_the_stack_is_reusable_afterwards() {
    let (drops, token) = counter();
    let mut co = Coroutine::new(32 * 1024, move |y| -> u32 {
        let _held = token;
        y.yield_now();
        panic!("boom in the frame");
    });
    assert_eq!(co.resume(), CoState::Suspended);
    let payload = catch_unwind(AssertUnwindSafe(|| co.resume())).expect_err("must propagate");
    assert_eq!(
        *payload.downcast_ref::<&str>().expect("payload kind"),
        "boom in the frame"
    );
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "unwinding dropped the capture"
    );
    assert!(co.is_complete());
    assert_eq!(
        co.take_result(),
        None,
        "a panicked closure returned nothing"
    );
    assert_eq!(co.resume(), CoState::Complete);
    let stack = co.into_stack().expect("finished: stack recoverable");
    let mut again = Coroutine::with_stack(stack, |y| {
        y.yield_now();
        11u32
    });
    assert_eq!(again.resume(), CoState::Suspended);
    assert_eq!(again.resume(), CoState::Complete);
    assert_eq!(again.take_result(), Some(11));
}

#[test]
fn one_stack_survives_a_million_create_run_recycle_cycles() {
    // The OS-thread fallback spawns a thread per coroutine.
    let cycles: u64 = if cfg!(target_arch = "x86_64") {
        1_000_000
    } else {
        2_000
    };
    let mut stack = Stack::new(16 * 1024);
    let mut sum = 0u64;
    for i in 0..cycles {
        let mut co = Coroutine::with_stack(stack, move |y| {
            if i % 1024 == 0 {
                y.yield_now();
            }
            i ^ 0x5555
        });
        while co.resume() == CoState::Suspended {}
        sum = sum.wrapping_add(co.take_result().expect("returned"));
        stack = co.into_stack().expect("completed: stack recoverable");
    }
    let want = (0..cycles).fold(0u64, |a, i| a.wrapping_add(i ^ 0x5555));
    assert_eq!(sum, want);
    assert_eq!(stack.size(), 16 * 1024);
}

#[test]
fn returned_coroutine_migrates_its_result_across_threads() {
    let mut co = Coroutine::new(32 * 1024, |y| {
        y.yield_now();
        vec![1u8, 2, 3]
    });
    assert_eq!(co.resume(), CoState::Suspended);
    let mut co = std::thread::spawn(move || {
        assert_eq!(co.resume(), CoState::Complete);
        co
    })
    .join()
    .expect("thread");
    assert_eq!(co.take_result(), Some(vec![1, 2, 3]));
}
