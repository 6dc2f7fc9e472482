//! Stackful coroutines: the in-process green-thread engine.
//!
//! One green thread = one [`Coroutine`] = one guarded `mmap`ed stack (2 MiB
//! by default, configurable — see [`crate::engine::default_stack_bytes`]) plus
//! a saved stack pointer. Transferring control either way is
//! [`ncs_coro_switch`]: push the six SysV callee-saved registers and the
//! FPU control words, swap `rsp`, pop, `ret` — roughly twenty instructions
//! and no syscall, versus the park/unpark Condvar round trip through the OS
//! scheduler that the fallback engine pays per dispatch.
//!
//! # Stack-overflow story
//!
//! Each stack is an anonymous private mapping of the configured size + one
//! page, created lazily by the kernel (untouched pages cost no RSS — 256
//! green threads at the 2 MiB default reserve 512 MiB of address space but
//! commit only what they use; 100k-host sharded runs shrink the reservation
//! with `NCS_GREEN_STACK_KIB`). The
//! lowest page is `mprotect`ed `PROT_NONE`: running off the end of the
//! stack faults loudly on the guard page instead of silently corrupting a
//! neighbouring mapping. A 64-byte `0xA5` canary sits just above the guard
//! to catch near-misses (deep recursion that stopped short of the guard).
//! The canary shares the stack's lowest usable page, which a healthy thread
//! never touches, so reading it costs a cache and TLB miss; the check is
//! therefore split in two. After *every* switch back to the kernel the
//! coroutine's saved stack pointer — already in [`CoroShared`], no memory
//! touched — is compared against the canary's upper edge, which catches a
//! thread suspended that deep. The canary *bytes* are verified once, when
//! the coroutine finishes (normally, by panic, or by cancellation): every
//! green thread passes through that point before its stack is unmapped, so
//! a clobbered canary is always reported, at exit or at `Sim::finish`.
//!
//! # Safety invariants
//!
//! This is the crate's one `unsafe` island (the crate root is
//! `deny(unsafe_code)`, relaxed from `forbid` for exactly this module).
//! The soundness argument:
//!
//! * A [`ResumeToken`] is a raw pointer into the heap-boxed [`CoroShared`];
//!   the box's address is stable for the life of the owning [`Coroutine`].
//!   Tokens are only ever used by the kernel loop (resume) or by the
//!   running green thread itself (yield), both strictly inside the window
//!   where the owning `ThreadSlot` is alive and marked `Running` — the
//!   kernel's one-runnable-at-a-time protocol is what rules out aliasing.
//! * `CURRENT` is saved and restored around every resume, so simulations
//!   nested inside a green thread (a sim constructed and run from within
//!   another sim's coroutine) keep their yields routed correctly.
//! * The trampoline never returns: user code runs inside `catch_unwind`
//!   (the kernel wraps it), so no unwind can cross the assembly frame; the
//!   initial stack frame carries a null return address as a backstop and
//!   the final switch is followed by `process::abort`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

// The context switch. `ncs_coro_switch(save_sp, to_sp)` stores the current
// continuation (callee-saved registers + mxcsr/x87cw + rsp) and resumes the
// one whose stack pointer is `to_sp`. Caller-saved registers are clobbered
// by virtue of this being an `extern "C"` call.
core::arch::global_asm!(
    ".text",
    ".balign 16",
    ".globl ncs_coro_switch",
    ".type ncs_coro_switch,@function",
    "ncs_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp+4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp+4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size ncs_coro_switch,.-ncs_coro_switch",
);

extern "C" {
    fn ncs_coro_switch(save_sp: *mut usize, to_sp: usize);
}

const PAGE: usize = 4096;
const CANARY_BYTES: usize = 64;
const CANARY_BYTE: u8 = 0xA5;

static LIVE_STACKS: AtomicUsize = AtomicUsize::new(0);

/// See [`crate::engine::live_coroutine_stacks`].
pub(crate) fn live_stacks() -> usize {
    LIVE_STACKS.load(Ordering::SeqCst)
}

// Raw Linux syscalls: ncs-sim does not (and should not) depend on libc for
// three calls with fixed arguments.

unsafe fn sys_mmap_anon(len: usize) -> *mut u8 {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") 9isize => ret,          // SYS_mmap
        in("rdi") 0usize,
        in("rsi") len,
        in("rdx") 3usize,                        // PROT_READ | PROT_WRITE
        in("r10") 0x22usize,                     // MAP_PRIVATE | MAP_ANONYMOUS
        in("r8") -1isize,
        in("r9") 0usize,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    assert!(ret > 0, "mmap of a coroutine stack failed: errno {}", -ret);
    ret as *mut u8
}

unsafe fn sys_mprotect_none(addr: *mut u8, len: usize) {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") 10isize => ret,         // SYS_mprotect
        in("rdi") addr,
        in("rsi") len,
        in("rdx") 0usize,                        // PROT_NONE
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    assert!(ret == 0, "mprotect of a guard page failed: errno {}", -ret);
}

unsafe fn sys_munmap(addr: *mut u8, len: usize) {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") 11isize => ret,         // SYS_munmap
        in("rdi") addr,
        in("rsi") len,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    debug_assert!(ret == 0, "munmap of a coroutine stack failed: errno {}", -ret);
}

/// A guarded, canaried coroutine stack.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    /// Maps a stack of `stack_bytes` usable bytes plus one guard page.
    /// `stack_bytes` must be page-aligned and large enough to hold the
    /// canary and the crafted initial frame (the kernel normalizes the
    /// configured size before it reaches here).
    fn new(stack_bytes: usize) -> Stack {
        assert!(
            stack_bytes.is_multiple_of(PAGE) && stack_bytes >= 4 * PAGE,
            "coroutine stack size must be a page multiple of at least 16 KiB, got {stack_bytes}"
        );
        let len = stack_bytes + PAGE; // the lowest page becomes the guard
        let base = unsafe { sys_mmap_anon(len) };
        unsafe {
            sys_mprotect_none(base, PAGE);
            std::ptr::write_bytes(base.add(PAGE), CANARY_BYTE, CANARY_BYTES);
        }
        LIVE_STACKS.fetch_add(1, Ordering::SeqCst);
        Stack { base, len }
    }

    /// One past the highest usable byte; page-aligned, hence 16-aligned.
    fn top(&self) -> usize {
        self.base as usize + self.len
    }

    /// Whether a suspended coroutine's saved stack pointer lies above the
    /// canary. The switch pushes its save area below the live frames, so
    /// the saved `rsp` is the lowest address the thread has in use.
    fn sp_clear_of_canary(&self, sp: usize) -> bool {
        sp >= self.base as usize + PAGE + CANARY_BYTES
    }

    fn canary_intact(&self) -> bool {
        // SAFETY: `base + PAGE .. + CANARY_BYTES` lies inside the mapping
        // this `Stack` owns, above the guard page, and is readable.
        let canary = unsafe { std::slice::from_raw_parts(self.base.add(PAGE), CANARY_BYTES) };
        canary.iter().all(|&b| b == CANARY_BYTE)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        LIVE_STACKS.fetch_sub(1, Ordering::SeqCst);
        unsafe { sys_munmap(self.base, self.len) };
    }
}

/// State shared between the kernel side and the coroutine side of one green
/// thread. Heap-boxed for address stability; reached through raw pointers
/// from [`ResumeToken`] and `CURRENT`.
pub(crate) struct CoroShared {
    /// Suspended coroutine's stack pointer (or the initial frame).
    coro_sp: usize,
    /// The kernel-side continuation while the coroutine runs.
    kernel_sp: usize,
    /// Sticky cancellation request: the next yield observes it and unwinds.
    cancel: bool,
    /// Set by the trampoline when the entry closure has returned; the stack
    /// can then be reclaimed.
    finished: bool,
    /// The green thread's body; `Some` until first entry. Called with
    /// `started = false` when cancelled before ever running, and with the
    /// coroutine's own token, which it keeps for its yields.
    entry: Option<CoroEntry>,
    stack: Stack,
}

/// A green thread's body as the coroutine engine runs it.
pub(crate) type CoroEntry = Box<dyn FnOnce(bool, ResumeToken) + Send>;

/// Owning handle to one coroutine, stored in the kernel's thread table.
pub(crate) struct Coroutine {
    shared: Box<CoroShared>,
}

// A Coroutine migrates between OS threads only while suspended (the thread
// table is behind a Mutex and the kernel runs one event at a time), and the
// raw pointers it holds target its own heap box. The suspended stack holds
// only `Send` data: the entry closure is `Send` and everything a green
// thread captures reaches it through `Send` closures.
#[allow(unsafe_code)]
unsafe impl Send for Coroutine {}

thread_local! {
    /// The coroutine currently running on this OS thread, if any. Saved and
    /// restored around every resume so nested simulations work.
    static CURRENT: Cell<*mut CoroShared> = const { Cell::new(std::ptr::null_mut()) };
}

/// First frame of every coroutine; entered exactly once via the crafted
/// initial stack, with `CURRENT` already pointing at its `CoroShared`.
extern "C" fn trampoline() -> ! {
    let shared = CURRENT.with(|c| c.get());
    unsafe {
        let sh = &mut *shared;
        let entry = sh.entry.take().expect("coroutine entered twice");
        let started = !sh.cancel;
        entry(started, ResumeToken(shared));
        sh.finished = true;
        ncs_coro_switch(&mut sh.coro_sp, sh.kernel_sp);
    }
    // The kernel never resumes a finished coroutine.
    std::process::abort();
}

impl Coroutine {
    /// Allocates a stack of `stack_bytes` usable bytes and crafts the
    /// initial frame; the entry closure does not run until the first
    /// [`ResumeToken::resume`].
    pub(crate) fn new(entry: CoroEntry, stack_bytes: usize) -> Coroutine {
        let stack = Stack::new(stack_bytes);
        let top = stack.top();
        unsafe {
            // Laid out so the switch's restore path (`add rsp,8`, six pops,
            // `ret`) lands in `trampoline` with a SysV-aligned stack and a
            // null word above the return address (stops stack walkers).
            let p = |off: usize| (top - off) as *mut u64;
            *p(8) = 0; // fake caller
            *p(16) = trampoline as *const () as usize as u64;
            for off in [24, 32, 40, 48, 56, 64] {
                *p(off) = 0; // rbp, rbx, r12..r15
            }
            // mxcsr (default 0x1F80) at +0, x87 control word (0x037F) at +4.
            *p(72) = 0x1F80 | (0x037F << 32);
        }
        let shared = Box::new(CoroShared {
            coro_sp: top - 72,
            kernel_sp: 0,
            cancel: false,
            finished: false,
            entry: Some(entry),
            stack,
        });
        Coroutine { shared }
    }

    pub(crate) fn token(&self) -> ResumeToken {
        ResumeToken(&*self.shared as *const CoroShared as *mut CoroShared)
    }
}

/// Raw handle for one control transfer; see the module safety invariants.
#[derive(Clone, Copy)]
pub(crate) struct ResumeToken(*mut CoroShared);

// SAFETY: a green thread keeps its own token in its `Ctx`, and `&Ctx` must
// stay `Send + Sync` for the code that runs on green threads. Moving or
// sharing a token gives no new way to reach the pointee: `resume` is called
// only by the kernel loop, on tokens it takes from the thread table while
// the slot is `Running`, and `yield_back` dereferences nothing unless the
// token is the coroutine running on the calling OS thread (the `CURRENT`
// check), so a token that strayed to another thread panics there instead.
unsafe impl Send for ResumeToken {}
unsafe impl Sync for ResumeToken {}

impl ResumeToken {
    /// Kernel side: runs the coroutine until it yields or finishes. Returns
    /// `true` when it finished (the owning [`Coroutine`] may be dropped to
    /// reclaim the stack). `cancel` requests unwinding: the coroutine's next
    /// (or first) scheduling point raises the kernel's cancellation payload.
    pub(crate) fn resume(self, cancel: bool) -> bool {
        unsafe {
            let sh = &mut *self.0;
            debug_assert!(!sh.finished, "resume of a finished coroutine");
            if cancel {
                sh.cancel = true;
            }
            let prev = CURRENT.with(|c| c.replace(self.0));
            ncs_coro_switch(&mut sh.kernel_sp, sh.coro_sp);
            CURRENT.with(|c| c.set(prev));
            // See the module docs: the stack-pointer compare runs after
            // every switch, the canary bytes are read once, at the end.
            assert!(
                sh.stack.sp_clear_of_canary(sh.coro_sp)
                    && (!sh.finished || sh.stack.canary_intact()),
                "coroutine stack canary clobbered: a green thread came within \
                 {CANARY_BYTES} bytes of its guard page"
            );
            sh.finished
        }
    }

    /// Coroutine side: hands control back to the kernel. Returns `false`
    /// when the wake-up carries a cancellation request (the caller must
    /// unwind via the kernel's cancel payload).
    pub(crate) fn yield_back(self) -> bool {
        let cur = CURRENT.with(|c| c.get());
        assert!(
            cur == self.0,
            "green-thread yield from outside the thread itself"
        );
        unsafe {
            let sh = &mut *self.0;
            ncs_coro_switch(&mut sh.coro_sp, sh.kernel_sp);
            !(*self.0).cancel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, MIN_STACK_BYTES};
    use crate::kernel::panic_message;
    use crate::{Dur, Sim};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    /// Overwrites one canary byte of the coroutine running on this thread:
    /// what a frame that reached into the stack's last 64 bytes leaves.
    fn scribble_on_own_canary() {
        let cur = CURRENT.with(|c| c.get());
        assert!(!cur.is_null(), "not on a coroutine");
        // SAFETY: `cur` is the running coroutine's live `CoroShared`; the
        // canary lies inside its mapped stack, above the guard page.
        unsafe { (*cur).stack.base.add(PAGE).write(0) };
    }

    #[test]
    fn saved_stack_pointer_is_checked_against_the_canary_edge() {
        let stack = Stack::new(MIN_STACK_BYTES);
        let edge = stack.base as usize + PAGE + CANARY_BYTES;
        assert!(stack.sp_clear_of_canary(stack.top() - 72));
        assert!(stack.sp_clear_of_canary(edge));
        assert!(!stack.sp_clear_of_canary(edge - 8));
        assert!(stack.canary_intact());
    }

    #[test]
    #[should_panic(expected = "green-thread yield from outside the thread itself")]
    fn yield_with_a_token_from_outside_any_coroutine_is_refused() {
        let co = Coroutine::new(Box::new(|_, _| {}), MIN_STACK_BYTES);
        co.token().yield_back();
    }

    #[test]
    fn yield_with_another_coroutines_token_is_refused() {
        // `a` runs and tries to yield through `b`'s token: the `CURRENT`
        // check must refuse before `b`'s state is touched.
        let b = Coroutine::new(Box::new(|_, _| {}), MIN_STACK_BYTES);
        let foreign = b.token();
        let refusal = Arc::new(Mutex::new(String::new()));
        let seen = Arc::clone(&refusal);
        let a = Coroutine::new(
            Box::new(move |_, own| {
                let err = catch_unwind(AssertUnwindSafe(|| foreign.yield_back()))
                    .expect_err("a foreign token must not yield");
                *seen.lock().unwrap() = panic_message(err.as_ref());
                // Its own token still works.
                assert!(own.yield_back());
            }),
            MIN_STACK_BYTES,
        );
        assert!(!a.token().resume(false), "suspended at its own yield");
        assert!(refusal
            .lock()
            .unwrap()
            .contains("green-thread yield from outside the thread itself"));
        assert!(a.token().resume(false), "finished");
        assert!(
            b.token().resume(true),
            "never-started coroutine is cancelled cleanly"
        );
    }

    #[test]
    fn clobbered_canary_is_reported_when_the_thread_exits() {
        // The switches in between compare only the saved stack pointer; the
        // bytes are read when the coroutine finishes and is reaped.
        let sim = Sim::with_engine(EngineKind::Coroutine);
        let resumed = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&resumed);
        sim.spawn("deep", move |ctx| {
            scribble_on_own_canary();
            ctx.sleep(Dur::from_micros(1));
            r.store(true, Ordering::SeqCst);
        });
        let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("must be reported");
        assert!(panic_message(err.as_ref()).contains("coroutine stack canary clobbered"));
        assert!(
            resumed.load(Ordering::SeqCst),
            "reported at exit, not at the switch after the damage"
        );
    }

    #[test]
    fn clobbered_canary_of_a_parked_thread_is_reported_at_finish() {
        let sim = Sim::with_engine(EngineKind::Coroutine);
        sim.spawn("parked", |ctx| {
            scribble_on_own_canary();
            ctx.park(); // never woken: reaped by cancellation
        });
        let out = sim.run();
        assert_eq!(out.blocked, vec!["parked".to_string()]);
        let err = catch_unwind(AssertUnwindSafe(|| sim.finish())).expect_err("must be reported");
        assert!(panic_message(err.as_ref()).contains("coroutine stack canary clobbered"));
    }
}
