//! Stackful fibers: the context switch under [`crate::Machine::run`].
//!
//! The machine runs every simulated thread as a fiber on one host
//! thread and knows two operations: [`FiberStack::start`] forges a
//! context that will run an entry function on a stack the machine
//! keeps across runs, and [`switch`] parks the current context in a
//! slot and resumes another.
//! A context is an opaque non-zero `u64`. Which backend provides them
//! is decided here, by `cfg`, and nowhere else:
//!
//! * **x86_64, every OS with the SysV calling convention** — a dozen
//!   instructions of assembly. Switching pushes the SysV callee-saved
//!   registers (rbx, rbp, r12–r15) onto the current stack, stores `rsp`
//!   into the slot, and resumes the other context by the mirror
//!   sequence: a few dozen nanoseconds. Caller-saved registers need no
//!   help — the switch is an ordinary `extern "C"` call, so the
//!   compiler has already spilled anything live across it. The x87
//!   control word and MXCSR are *not* saved: nothing in the simulator
//!   changes rounding or exception masks, so both are constant
//!   machine-wide. Windows is excluded: Win64 passes arguments in
//!   rcx/rdx and makes xmm6–15 callee-saved, neither of which this
//!   switch honours.
//! * **Everything else** (and any host built with
//!   `--cfg flextm_fiber_fallback`, which is how `scripts/verify.sh`
//!   tests it here) — each fiber is an OS thread, and a switch passes a
//!   baton: wake the target, then sleep until woken. Strictly one
//!   thread runs at a time, so the machine's single-thread reasoning
//!   holds unchanged; a switch just costs microseconds instead.
//!
//! Nothing unwinds across a switch: the machine's fiber bodies run
//! under `catch_unwind`, and a resumed fiber that must die re-raises the
//! panic on its own stack (see `rendezvous` in `machine.rs`).

/// Fiber stack size. The deepest use measured is 19.7 KiB, by a
/// panicking fiber that formats a backtrace in a debug build, where the
/// workload bodies reach 4.8–6.5 KiB; the `stack_high_water` test of
/// `flextm-workloads` holds each to a third of this.
pub const STACK_BYTES: usize = 64 * 1024;

/// Entry signature a prepared fiber starts in. Its return value is the
/// context to resume in the finished fiber's place; the fiber's own
/// context is dead from then on.
pub(crate) type Entry = extern "C" fn(*mut u8) -> u64;

pub(crate) use imp::{switch, FiberStack};

#[cfg(all(target_arch = "x86_64", not(windows), not(flextm_fiber_fallback)))]
mod imp {
    use super::{Entry, STACK_BYTES};
    use std::alloc::{alloc, dealloc, Layout};

    /// The lowest bytes of every stack, painted with [`PAINT`] when it is
    /// allocated. A fiber that writes into them has all but overflowed, and
    /// `Machine::run` aborts the process once the run is over.
    const CANARY_BYTES: usize = 4096;

    /// The paint word. A debug build paints the whole stack with it, so the
    /// deepest word a fiber changed is its high-water mark.
    const PAINT: u64 = 0xF1BE_57AC_F1BE_57AC;

    /// Bytes painted per stack at allocation.
    const PAINTED_BYTES: usize = if cfg!(debug_assertions) {
        STACK_BYTES
    } else {
        CANARY_BYTES
    };

    // The context switch and the first-entry trampoline.
    //
    // `flextm_sim_fiber_switch(save: *mut u64 /* rdi */, resume: u64 /* rsi */)`
    // pushes the callee-saved registers, stores rsp through `save`,
    // installs `resume` as rsp, pops, and returns — on the *resumed*
    // stack. A suspended context is therefore always "rsp of a stack
    // whose top holds r15, r14, r13, r12, rbx, rbp, return-address",
    // which is exactly what `FiberStack::start` forges for first
    // entry.
    //
    // `flextm_sim_fiber_start` is the forged return target of that first
    // entry: the prepared frame loads the task pointer into r12 and the
    // entry function into r13 (callee-saved, so the switch restores
    // them), and the trampoline moves them into place for a normal SysV
    // call. The `call` (not `jmp`) keeps the entry 16-byte
    // stack-aligned. When the entry returns, rax names the context to
    // resume; the trampoline joins the switch's resume half without
    // saving anything — this stack is finished.
    #[allow(unsafe_code)]
    mod asm {
        core::arch::global_asm!(
            ".balign 16",
            ".globl flextm_sim_fiber_switch",
            ".hidden flextm_sim_fiber_switch",
            "flextm_sim_fiber_switch:",
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "flextm_sim_fiber_resume:",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
            ".balign 16",
            ".globl flextm_sim_fiber_start",
            ".hidden flextm_sim_fiber_start",
            "flextm_sim_fiber_start:",
            "mov rdi, r12",
            "call r13",
            "mov rsi, rax",
            "jmp flextm_sim_fiber_resume",
        );
    }

    extern "C" {
        /// Suspends the current context into `*save` and resumes
        /// `resume`.
        ///
        /// # Safety
        ///
        /// `resume` must be a context produced by this same function
        /// (or by [`FiberStack::start`]) that has not been resumed
        /// since, and its stack must still be allocated and not
        /// re-armed by `start` since. `save` must be valid for writes
        /// and is the only record of the suspended computation —
        /// resuming it twice, or never, leaks or corrupts the stack
        /// above it.
        #[link_name = "flextm_sim_fiber_switch"]
        pub(crate) fn switch(save: *mut u64, resume: u64);

        fn flextm_sim_fiber_start() -> !;
    }

    /// A heap-allocated fiber stack, reused by every fiber started on
    /// it. Freed on drop; the owner must ensure no suspended context
    /// still points into it (the machine's driver joins every fiber —
    /// normally or by unwinding — before a run returns).
    pub(crate) struct FiberStack {
        base: *mut u8,
    }

    impl FiberStack {
        fn layout() -> Layout {
            // 16-byte alignment and a 16-multiple size keep the stack
            // top aligned, which `start` relies on.
            Layout::from_size_align(STACK_BYTES, 16).expect("static stack layout")
        }

        /// Allocates a stack and paints its lowest [`PAINTED_BYTES`].
        pub(crate) fn new() -> Self {
            // SAFETY: the layout has non-zero size. The memory above
            // the paint is deliberately left uninitialised: a stack is
            // written before it is read, the only words read first are
            // the seven `start` forges, and `rbp = 0` there already
            // terminates frame-pointer walks.
            #[allow(unsafe_code)]
            let base = unsafe { alloc(Self::layout()) };
            assert!(!base.is_null(), "fiber stack allocation failed");
            // SAFETY: the painted words lie inside the fresh allocation,
            // which is 16-aligned and not yet shared.
            #[allow(unsafe_code)]
            unsafe {
                std::slice::from_raw_parts_mut(base.cast::<u64>(), PAINTED_BYTES / 8).fill(PAINT);
            }
            FiberStack { base }
        }

        /// The painted words, lowest first.
        fn painted(&self) -> &[u64] {
            // SAFETY: `new` initialised these words and they stay inside
            // the allocation; no fiber runs while the machine reads them.
            #[allow(unsafe_code)]
            unsafe {
                std::slice::from_raw_parts(self.base.cast::<u64>(), PAINTED_BYTES / 8)
            }
        }

        /// True if a fiber has written into the canary band.
        pub(crate) fn overflowed(&self) -> bool {
            self.painted()[..CANARY_BYTES / 8]
                .iter()
                .any(|&w| w != PAINT)
        }

        /// The address halfway up the canary band: a frame there has
        /// reached the band without running past the allocation.
        #[cfg(test)]
        pub(crate) fn mid_band(&self) -> Option<usize> {
            Some(self.base as usize + CANARY_BYTES / 2)
        }

        /// The deepest any fiber has reached into this stack, in bytes:
        /// measured in a debug build, which paints the whole stack.
        pub(crate) fn high_water(&self) -> Option<usize> {
            if PAINTED_BYTES < STACK_BYTES {
                return None;
            }
            let untouched = self.painted().iter().take_while(|&&w| w == PAINT).count();
            Some(STACK_BYTES - untouched * 8)
        }

        /// Forges the stack's initial suspended context: resuming the
        /// returned rsp runs `entry(arg)` on it. Whatever last ran here
        /// must have returned (or never started). Layout, from the
        /// returned rsp upwards, mirroring what the switch pops:
        ///
        /// ```text
        /// [0] r15 = 0
        /// [1] r14 = 0
        /// [2] r13 = entry          (trampoline calls it)
        /// [3] r12 = arg            (trampoline moves it to rdi)
        /// [4] rbx = 0
        /// [5] rbp = 0              (terminates frame-pointer walks)
        /// [6] ret = fiber_start    (the trampoline)
        /// ```
        ///
        /// The rsp sits 56 bytes below the 16-aligned stack top, so
        /// after the pops and the `ret` the trampoline runs 16-aligned
        /// and its `call` gives `entry` a standard SysV frame.
        pub(crate) fn start(&mut self, entry: Entry, arg: *mut u8) -> u64 {
            let top = self.base as u64 + STACK_BYTES as u64;
            let rsp = top - 7 * 8;
            // SAFETY: the seven slots lie inside this stack's
            // allocation, just below its top, and u64 stores at 8-byte
            // offsets from a 16-aligned top are aligned. Should a
            // context on this stack still be suspended, overwriting its
            // frame is not itself unsound; resuming it afterwards is,
            // and `switch`'s contract forbids that.
            #[allow(unsafe_code)]
            unsafe {
                let slot = rsp as *mut u64;
                slot.add(0).write(0); // r15
                slot.add(1).write(0); // r14
                slot.add(2).write(entry as usize as u64); // r13
                slot.add(3).write(arg as u64); // r12
                slot.add(4).write(0); // rbx
                slot.add(5).write(0); // rbp
                slot.add(6)
                    .write(flextm_sim_fiber_start as *const () as u64);
            }
            rsp
        }
    }

    impl Drop for FiberStack {
        fn drop(&mut self) {
            // SAFETY: `base` came from `alloc` with the same layout.
            #[allow(unsafe_code)]
            unsafe {
                dealloc(self.base, Self::layout());
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", not(windows), not(flextm_fiber_fallback))))]
mod imp {
    use super::{Entry, STACK_BYTES};
    use std::cell::OnceCell;
    use std::sync::{Arc, Condvar, Mutex};
    use std::thread::JoinHandle;

    #[derive(Debug, Default, Clone, Copy, PartialEq)]
    enum Signal {
        #[default]
        Wait,
        Run,
        Exit,
    }

    /// One OS thread's turn flag. A context is the address of the baton
    /// of the thread suspended in it; resuming a context posts `Run` to
    /// that baton. The signal is sticky, so a post that lands before
    /// the owner sleeps is not lost.
    #[derive(Debug, Default)]
    struct Baton {
        signal: Mutex<Signal>,
        posted: Condvar,
    }

    impl Baton {
        fn post(&self, signal: Signal) {
            *self.signal.lock().expect("baton holders never panic") = signal;
            self.posted.notify_one();
        }

        fn wait(&self) -> Signal {
            let mut signal = self.signal.lock().expect("baton holders never panic");
            while *signal == Signal::Wait {
                signal = self.posted.wait(signal).expect("baton holders never panic");
            }
            std::mem::take(&mut *signal)
        }
    }

    thread_local! {
        /// The baton of the current OS thread: the one `start` gave a
        /// fiber thread, or one made on first use for a driver thread.
        static MINE: OnceCell<Arc<Baton>> = const { OnceCell::new() };
    }

    /// What a fiber thread is born with.
    struct Start {
        entry: Entry,
        arg: *mut u8,
        baton: Arc<Baton>,
    }

    // SAFETY: `arg` points at state the machine shares between its
    // fibers without synchronization of its own. Sending it to the
    // fiber's thread is sound because batons serialize those threads:
    // one runs only between being posted and posting the next, and the
    // baton's mutex orders each turn's writes before the next turn's
    // reads — the same exclusion a single host thread gives for free.
    #[allow(unsafe_code)]
    unsafe impl Send for Start {}

    impl Start {
        fn run(self) {
            MINE.with(|mine| mine.set(Arc::clone(&self.baton)))
                .expect("fresh thread already has a baton");
            if self.baton.wait() == Signal::Run {
                let next = (self.entry)(self.arg);
                // SAFETY: as for `resume` in `switch` — the entry
                // returns a live suspended context.
                #[allow(unsafe_code)]
                let next = unsafe { &*(next as *const Baton) };
                next.post(Signal::Run);
            }
        }
    }

    /// Suspends the current context into `*save` and resumes `resume`.
    ///
    /// # Safety
    ///
    /// `resume` must be a context produced by this same function (or by
    /// [`FiberStack::start`]) that has not been resumed since, whose
    /// `FiberStack` (or, for a driver, whose host thread) is still
    /// alive and not started again since. `save` must be valid for
    /// writes.
    #[allow(unsafe_code)]
    pub(crate) unsafe fn switch(save: *mut u64, resume: u64) {
        let mine = MINE.with(|mine| Arc::clone(mine.get_or_init(Arc::default)));
        // SAFETY: the caller's contract, above. The context is written
        // before the post, so whoever runs next can already resume it.
        unsafe {
            save.write(Arc::as_ptr(&mine) as u64);
            (*(resume as *const Baton)).post(Signal::Run);
        }
        let signal = mine.wait();
        debug_assert_eq!(signal, Signal::Run, "fiber dropped while suspended");
    }

    /// A fiber's OS thread, one per start. Starting again or dropping
    /// ends the last thread — at once if it was never started, and it
    /// has already returned if it ran to completion — and joins it, so
    /// no run leaves a thread behind. As with a real stack, the owner
    /// must not do either mid-suspension.
    pub(crate) struct FiberStack {
        baton: Arc<Baton>,
        thread: Option<JoinHandle<()>>,
    }

    impl FiberStack {
        /// A stack with no thread yet: `start` spawns one.
        pub(crate) fn new() -> Self {
            FiberStack {
                baton: Arc::default(),
                thread: None,
            }
        }

        /// Always false: a fiber thread's stack ends in a guard page, and
        /// std aborts the process when a fiber reaches it.
        pub(crate) fn overflowed(&self) -> bool {
            false
        }

        /// None: there is no band, only the guard page below the stack.
        #[cfg(test)]
        pub(crate) fn mid_band(&self) -> Option<usize> {
            None
        }

        /// Not measured: the stack is the OS thread's.
        pub(crate) fn high_water(&self) -> Option<usize> {
            None
        }

        /// Ends and joins the previous thread, if any, and spawns a
        /// parked one that runs `entry(arg)` when its context is first
        /// resumed, then resumes whatever context the entry returns, and
        /// exits.
        pub(crate) fn start(&mut self, entry: Entry, arg: *mut u8) -> u64 {
            self.join();
            self.baton = Arc::default();
            let start = Start {
                entry,
                arg,
                baton: Arc::clone(&self.baton),
            };
            let thread = std::thread::Builder::new()
                .stack_size(STACK_BYTES)
                .spawn(move || start.run())
                .expect("spawning a fiber thread failed");
            self.thread = Some(thread);
            Arc::as_ptr(&self.baton) as u64
        }

        fn join(&mut self) {
            self.baton.post(Signal::Exit);
            if let Some(thread) = self.thread.take() {
                // The thread cannot have panicked: its entry is
                // `extern "C"`, which aborts on unwind.
                let _ = thread.join();
            }
        }
    }

    impl Drop for FiberStack {
        fn drop(&mut self) {
            self.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the test entry works on. The driver's context lives here,
    /// not in a thread-local: on the thread backend the entry runs on
    /// another OS thread.
    struct Probe {
        hits: u64,
        driver: u64,
    }

    extern "C" fn bump(arg: *mut u8) -> u64 {
        // SAFETY: the tests pass a `*mut Probe` that outlives the fiber
        // and leave it alone while the fiber runs.
        #[allow(unsafe_code)]
        let probe = unsafe { &mut *arg.cast::<Probe>() };
        probe.hits += 1;
        probe.driver
    }

    #[test]
    fn a_fiber_runs_its_entry_and_resumes_the_context_it_returns() {
        let mut probe = Probe { hits: 0, driver: 0 };
        let raw = &raw mut probe;
        let mut stack = FiberStack::new();
        // A stack is re-armed for every fiber the machine runs on it.
        for _ in 0..2 {
            let context = stack.start(bump, raw.cast());
            // SAFETY: `context` is fresh and its stack alive; `bump`
            // returns the driver context this very switch saves into
            // the probe.
            #[allow(unsafe_code)]
            unsafe {
                switch(&raw mut (*raw).driver, context);
            }
        }
        drop(stack);
        assert_eq!(probe.hits, 2);
    }

    #[test]
    fn dropping_never_started_fibers_releases_them() {
        // On the thread backend each of these is a parked OS thread
        // that a restart or `Drop` must wake and join; a leak would
        // hang or exhaust the host long before the loops end.
        let mut probe = Probe { hits: 0, driver: 0 };
        let arg = std::ptr::from_mut(&mut probe).cast();
        let mut stack = FiberStack::new();
        for _ in 0..1000 {
            stack.start(bump, arg);
        }
        drop(stack);
        for _ in 0..1000 {
            FiberStack::new().start(bump, arg);
        }
        assert_eq!(probe.hits, 0);
    }
}
