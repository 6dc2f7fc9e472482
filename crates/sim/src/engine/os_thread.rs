//! The fallback green-thread engine: one parked OS thread per green thread.
//!
//! This is the original mechanism the coroutine engine replaced as default.
//! Each green thread gets a dedicated OS thread that spends its life parked
//! on a [`Baton`]; the kernel grants the baton to run it and waits on the
//! shared [`KernelGate`] until control comes back. Every dispatch is two
//! Condvar round trips through the OS scheduler (~10 µs), which is why the
//! coroutine engine exists — but the OS-thread engine needs no `unsafe` and
//! works on every platform, so it remains selectable (`EngineKind::OsThread`)
//! and anchors the engine-differential tests.

use std::sync::Arc;

use crate::sync::{self, Condvar, Mutex};

/// A one-slot hand-off between two OS threads: [`Handoff::put`] fills the
/// slot and wakes the taker, [`Handoff::take`] blocks until it is full and
/// empties it. The kernel and the green threads strictly alternate, so the
/// slot is never filled twice.
pub(crate) struct Handoff<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

/// Hands control to a green thread: `true` to run on, `false` to cancel.
pub(crate) type Baton = Handoff<bool>;

/// Hands control back to the kernel loop while a green thread holds it.
pub(crate) type KernelGate = Handoff<()>;

impl<T> Handoff<T> {
    pub(crate) fn new() -> Handoff<T> {
        Handoff {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn put(&self, value: T) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "hand-off slot filled twice");
        *slot = Some(value);
        self.cv.notify_one();
    }

    pub(crate) fn take(&self) -> T {
        let mut slot = self.slot.lock();
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            slot = sync::wait(&self.cv, slot);
        }
    }
}

/// One green thread's backing OS thread.
pub(crate) struct OsThread {
    baton: Arc<Baton>,
    join_handle: std::thread::JoinHandle<()>,
}

impl OsThread {
    /// Spawns the backing OS thread with a `stack_bytes` stack (the same
    /// configured size the coroutine engine uses, so green-thread stack
    /// headroom is engine-independent). `body` runs the whole green-thread
    /// protocol: first baton wait, user closure, exit bookkeeping, and the
    /// final kernel-gate signal.
    pub(crate) fn spawn(
        name: &str,
        baton: Arc<Baton>,
        stack_bytes: usize,
        body: impl FnOnce() + Send + 'static,
    ) -> OsThread {
        // The fallback engine is the one sanctioned OS-thread spawn site in
        // the simulator (file-scoped exemption in the ncs-lint rules).
        let handle = std::thread::Builder::new() // ncs-lint: allow(thread-spawn)
            .name(format!("sim-{name}"))
            .stack_size(stack_bytes)
            .spawn(body)
            .expect("failed to spawn OS thread for green thread");
        OsThread {
            baton,
            join_handle: handle,
        }
    }

    pub(crate) fn baton(&self) -> Arc<Baton> {
        Arc::clone(&self.baton)
    }

    /// Waits for the thread to end (it must have been cancelled or have
    /// finished its body).
    pub(crate) fn join(self) {
        let _ = self.join_handle.join();
    }
}
