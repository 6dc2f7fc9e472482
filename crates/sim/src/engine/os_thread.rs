//! The fallback green-thread engine: one parked OS thread per green thread.
//!
//! This is the original mechanism the coroutine engine replaced as default.
//! Each green thread gets a dedicated OS thread that spends its life parked
//! on a [`Baton`]; the kernel grants the baton to run it and waits on the
//! shared [`KernelGate`] until control comes back. Every dispatch is two
//! Condvar round trips through the OS scheduler (~10 µs), which is why the
//! coroutine engine exists — but the OS-thread engine needs no `unsafe` and
//! works on every platform, so it remains selectable (`EngineKind::OsThread`
//! / `NCS_GREEN_ENGINE=os`) and anchors the engine-differential tests.

use std::sync::Arc;

use crate::sync::{self, Condvar, Mutex};

/// One-slot baton used to hand control to a green thread.
pub(crate) struct Baton {
    state: Mutex<BatonMsg>,
    cv: Condvar,
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub(crate) enum BatonMsg {
    Wait,
    Go,
    Cancel,
}

impl Baton {
    pub(crate) fn new() -> Arc<Baton> {
        Arc::new(Baton {
            state: Mutex::new(BatonMsg::Wait),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn grant(&self, msg: BatonMsg) {
        let mut st = self.state.lock();
        debug_assert!(*st == BatonMsg::Wait);
        *st = msg;
        self.cv.notify_one();
    }

    /// Blocks until granted; returns `false` if the grant was a cancellation.
    pub(crate) fn wait(&self) -> bool {
        let mut st = self.state.lock();
        while *st == BatonMsg::Wait {
            st = sync::wait(&self.cv, st);
        }
        let go = *st == BatonMsg::Go;
        *st = BatonMsg::Wait;
        go
    }
}

/// Gate the kernel loop waits on while a green thread holds the baton.
pub(crate) struct KernelGate {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl KernelGate {
    pub(crate) fn new() -> KernelGate {
        KernelGate {
            flag: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn signal(&self) {
        let mut f = self.flag.lock();
        *f = true;
        self.cv.notify_one();
    }

    pub(crate) fn wait(&self) {
        let mut f = self.flag.lock();
        while !*f {
            f = sync::wait(&self.cv, f);
        }
        *f = false;
    }
}

/// One green thread's backing OS thread.
pub(crate) struct OsThread {
    baton: Arc<Baton>,
    join_handle: Option<std::thread::JoinHandle<()>>,
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
            join_handle: Some(handle),
        }
    }

    pub(crate) fn baton(&self) -> Arc<Baton> {
        Arc::clone(&self.baton)
    }

    pub(crate) fn take_join_handle(&mut self) -> Option<std::thread::JoinHandle<()>> {
        self.join_handle.take()
    }
}
