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
    /// All of them: the world is complete.
    ready: Vec<bool>,
    /// Weak backrefs used to release every process once the last one
    /// arrives (weak: the barrier must not keep a dropped world alive).
    procs: Vec<Weak<ProcInner>>,
}

impl TermBarrier {
    pub(crate) fn new(n: usize) -> Arc<TermBarrier> {
        Arc::new(TermBarrier {
            state: Mutex::new(TermState {
                ready: vec![false; n],
                procs: Vec::with_capacity(n),
            }),
        })
    }

    pub(super) fn register(&self, inner: &Arc<ProcInner>) {
        self.state.lock().procs.push(Arc::downgrade(inner));
    }

    fn complete(&self) -> bool {
        !self.state.lock().ready.contains(&false)
    }

    /// Marks process `id` locally quiescent (shutdown requested and no
    /// frame awaiting acknowledgment). The last arrival closes every
    /// process's merged channel, wakes its send thread so it can observe
    /// completion and exit, and then ends its receive thread's kernel wait
    /// — in that order, so a send thread that finds the CPU idle takes it
    /// first.
    pub(super) fn proc_ready(&self, id: usize) {
        let released = {
            let mut st = self.state.lock();
            if std::mem::replace(&mut st.ready[id], true) || st.ready.contains(&false) {
                return;
            }
            std::mem::take(&mut st.procs)
        };
        for p in released.iter().filter_map(Weak::upgrade) {
            p.merged.close(&p.sim);
            p.wake_send();
            p.end_recv_wait();
        }
    }
}

/// Whether a system thread may exit: the process is locally quiescent and
/// so is the whole world.
pub(super) fn may_teardown(inner: &ProcInner, st: &MpsState) -> bool {
    st.quiescent() && inner.term.complete()
}
