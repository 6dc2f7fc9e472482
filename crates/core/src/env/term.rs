//! Collective termination: when a process may tear its system threads down.

use ncs_sim::sync::Mutex;
use std::sync::{Arc, Weak};

use super::{MpsState, ProcInner};

/// Collective-termination barrier: `NCS_end` is a collective operation, so
/// a process that is locally quiescent (user threads done, every outgoing
/// frame acknowledged or abandoned) must not tear down its receive
/// machinery while a peer may still be retransmitting a frame whose
/// acknowledgment was lost on the wire — the sender would burn its whole
/// retry budget against a deaf host and spuriously declare it dead. Each
/// process instead signals quiescence here and lingers, re-ACKing
/// duplicates; only when the whole world is quiescent (no frame anywhere
/// is outstanding, so no retransmission can ever arrive again) are the
/// merged channels closed and the lingering system threads released. The
/// message-passing analogue of TCP's TIME-WAIT, with the world-wide
/// quiescence fact standing in for the 2·MSL clock.
pub(crate) struct TermBarrier {
    state: Mutex<TermState>,
}

struct TermState {
    /// Which processes have signalled local quiescence (idempotence: a
    /// process re-signals when a late duplicate re-empties its tables).
    ready: Vec<bool>,
    /// Processes still running.
    remaining: usize,
    /// Weak backrefs used to release every process once the last one
    /// arrives (weak: the barrier must not keep a dropped world alive).
    procs: Vec<Weak<ProcInner>>,
    complete: bool,
}

impl TermBarrier {
    pub(crate) fn new(n: usize) -> Arc<TermBarrier> {
        Arc::new(TermBarrier {
            state: Mutex::new(TermState {
                ready: vec![false; n],
                remaining: n,
                procs: Vec::with_capacity(n),
                complete: false,
            }),
        })
    }

    pub(super) fn register(&self, inner: &Arc<ProcInner>) {
        self.state.lock().procs.push(Arc::downgrade(inner));
    }

    fn complete(&self) -> bool {
        self.state.lock().complete
    }

    /// Marks process `id` locally quiescent. The last arrival closes every
    /// process's merged channel (ending the receive threads' kernel waits)
    /// and wakes every send thread so it can observe completion and exit.
    fn proc_ready(&self, id: usize) {
        let released = {
            let mut st = self.state.lock();
            if st.complete || st.ready[id] {
                return;
            }
            st.ready[id] = true;
            st.remaining -= 1;
            if st.remaining > 0 {
                return;
            }
            st.complete = true;
            std::mem::take(&mut st.procs)
        };
        for p in released.iter().filter_map(Weak::upgrade) {
            p.merged.close(&p.sim);
            p.wake_send();
        }
    }
}

/// The process has just become locally quiescent (shutdown requested and
/// no outstanding unacknowledged frame). Standalone processes tear down
/// immediately; collective ones linger at the termination barrier.
pub(super) fn signal_quiescent(inner: &ProcInner) {
    match &inner.term {
        None => inner.merged.close(&inner.sim),
        Some(t) => t.proc_ready(inner.id),
    }
}

/// Whether a system thread may exit: the process is locally quiescent
/// and, when part of a collective, the whole world is too.
pub(super) fn may_teardown(inner: &ProcInner, st: &MpsState) -> bool {
    st.quiescent() && inner.term.as_ref().is_none_or(|t| t.complete())
}
