//! x86-64 context switching.
//!
//! The switch saves the System V callee-saved general-purpose registers
//! (`rbp`, `rbx`, `r12`–`r15`) on the current stack, stores the stack
//! pointer, installs the target stack pointer, restores the registers the
//! target saved, and returns into the target's saved return address —
//! 15 instructions, no syscalls, no memory allocation. This is the
//! machinery behind Concord's "workers switch between requests within
//! ≈100 ns" (§3.1).
//!
//! The floating-point control state (`mxcsr`, x87 control word) is *not*
//! switched: Rust code does not modify it, matching the assumption made by
//! other minimal switchers (e.g. Shinjuku's and Boost.Context's
//! fcontext in its default mode would save them; we trade that for speed
//! and document the restriction).

use std::arch::global_asm;

global_asm!(
    r#"
    .text
    .globl concord_ctx_switch
    .p2align 4
    // fn concord_ctx_switch(save: *mut *mut u8 /* rdi */,
    //                       restore: *mut u8  /* rsi */)
    //
    // Saves the current context, publishing its stack pointer through
    // `save`, and resumes the context whose stack pointer is `restore`.
concord_ctx_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    mov [rdi], rsp
    mov rsp, rsi
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret

    .globl concord_co_entry
    .p2align 4
    // First activation of a coroutine. The bootstrap frame built by
    // `init_stack` arranged for `rbx` to hold the control-block pointer
    // and `r12` the coroutine's monomorphised main function when the
    // initial switch "returns" here, and for rsp to be 16-byte aligned so
    // the subsequent call keeps the ABI happy.
concord_co_entry:
    mov rdi, rbx
    call r12
    ud2
"#
);

unsafe extern "C" {
    /// Switches from the current context to `restore`, saving the current
    /// stack pointer through `save`.
    ///
    /// # Safety
    ///
    /// `save` must be a valid pointer. `restore` must be a stack pointer
    /// previously produced by this function or by [`init_stack`], whose
    /// stack is live and not currently executing on any thread.
    pub fn concord_ctx_switch(save: *mut *mut u8, restore: *mut u8);
}

/// A coroutine's first-activation function: receives the control-block
/// pointer from the trampoline and never returns.
pub type CoMain = unsafe extern "C" fn(*mut u8) -> !;

/// Bytes [`init_stack`] writes below the stack top it is given.
pub const BOOT_FRAME_BYTES: usize = 56;

/// Builds the bootstrap frame for a fresh coroutine on `stack_top` and
/// returns the initial stack-pointer value to pass to
/// [`concord_ctx_switch`].
///
/// Frame layout (downward from `stack_top`, which must be 16-byte
/// aligned):
///
/// ```text
/// top-8 : concord_co_entry   <- `ret` target of the first switch
/// top-16: rbp = 0
/// top-24: rbx = ctl          <- control-block pointer, forwarded to rdi
/// top-32: r12 = main         <- called by the trampoline, never returns
/// top-40: r13 = 0
/// top-48: r14 = 0
/// top-56: r15 = 0            <- initial rsp
/// ```
///
/// After the first switch pops six registers and `ret`s, `rsp == top`,
/// which is ≡ 0 (mod 16); `concord_co_entry`'s `call` then pushes a return
/// address, giving `main` the ABI-required rsp ≡ 8 (mod 16) at entry.
///
/// # Safety
///
/// `stack_top` must be the 16-byte-aligned top of a live stack region
/// with at least [`BOOT_FRAME_BYTES`] writable bytes below it. `ctl` must
/// remain valid until the coroutine completes, and `main` must accept it
/// and never return.
pub unsafe fn init_stack(stack_top: *mut u8, ctl: *mut u8, main: CoMain) -> *mut u8 {
    debug_assert_eq!(stack_top as usize % 16, 0, "stack top must be aligned");
    unsafe extern "C" {
        // Defined by the global_asm! block above; we only need its address.
        fn concord_co_entry();
    }
    // SAFETY: caller guarantees ≥ BOOT_FRAME_BYTES writable bytes below
    // `stack_top`.
    unsafe {
        let top = stack_top.cast::<u64>();
        top.sub(1)
            .write(concord_co_entry as unsafe extern "C" fn() as usize as u64); // ret target
        top.sub(2).write(0); // rbp
        top.sub(3).write(ctl as u64); // rbx -> rdi in the trampoline
        top.sub(4).write(main as usize as u64); // r12 -> called by the trampoline
        top.sub(5).write(0); // r13
        top.sub(6).write(0); // r14
        top.sub(7).write(0); // r15
        top.sub(7).cast::<u8>()
    }
}
