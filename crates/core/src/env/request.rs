//! The request table behind the completion-based API (`NCS_isend` /
//! `NCS_irecv` / `NCS_wait` / `NCS_waitany`, and the blocking calls as
//! post+wait wrappers over it): generation-counted slots plus a completion
//! queue. [`RequestTable`] is a plain state machine; the three functions
//! below it add the request-timeline stamps and the wakeup.

use ncs_mts::MtsTid;
use std::collections::VecDeque;

use super::{causal_component, MpsState, NcsMsg, ProcInner};
use crate::addr::MsgClass;

/// Generation-counted completion handle returned by
/// [`NcsCtx::isend`](super::NcsCtx::isend) /
/// [`NcsCtx::irecv`](super::NcsCtx::irecv) (the paper API's
/// `NCS_isend`/`NCS_irecv` extension). Copyable; the generation detects use
/// of a handle whose request was already consumed by
/// `NCS_wait`/`NCS_waitany`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NcsRequest {
    pub(super) slot: u32,
    pub(super) gen: u32,
}

/// What a request-table slot is tracking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum ReqKind {
    Send,
    Recv,
}

/// Lifecycle of a request-table slot. `Free` slots are recycled through
/// the free-list; the generation counter bumps on every release so stale
/// handles are detected instead of aliasing the new occupant.
enum ReqState {
    Free,
    Pending,
    Complete(Option<NcsMsg>),
}

struct ReqSlot {
    gen: u32,
    kind: ReqKind,
    state: ReqState,
    /// User thread parked in `wait`/`waitany` on this handle, woken at
    /// completion. At most one waiter per live handle.
    parked: Option<MtsTid>,
    /// Logical user thread that posted the request (leak reports).
    owner: u32,
    /// Causal id of the request's own `posted -> progressed -> completed`
    /// timeline. 0 for the blocking wrappers, which must not touch the
    /// metrics registry (the no-async golden trace stays byte-identical).
    req_causal: u64,
    /// Whether `progressed` was already stamped (the mark must not move).
    progressed: bool,
}

/// Where a handle stands.
#[derive(PartialEq, Eq, Debug)]
pub(super) enum Status {
    /// Already consumed; the slot is now at this generation.
    Stale(u32),
    Pending,
    Complete,
}

/// What completing a slot asks of the driver.
pub(super) struct Completed {
    /// The thread parked on the handle, to unblock.
    parked: Option<MtsTid>,
    /// The request's own timeline (0 = untraced) ...
    req_causal: u64,
    /// ... and whether its `progressed` mark is still to be stamped.
    first_progress: bool,
}

#[derive(Default)]
pub(super) struct RequestTable {
    slots: Vec<ReqSlot>,
    free: Vec<u32>,
    /// Completion queue: `(slot, gen)` pushed at completion, removed when
    /// `wait`/`waitany` consumes the handle. Conservation (every completion
    /// consumed exactly once) is checked at shutdown.
    completions: VecDeque<(u32, u32)>,
    /// Statistics: requests posted / consumed by `wait`/`waitany`.
    pub posted: u64,
    pub consumed: u64,
}

impl RequestTable {
    /// Allocates a slot in the `Pending` state.
    pub fn alloc(&mut self, kind: ReqKind, owner: u32, req_causal: u64) -> NcsRequest {
        self.posted += 1;
        let fresh = ReqSlot {
            gen: 0,
            kind,
            state: ReqState::Pending,
            parked: None,
            owner,
            req_causal,
            progressed: false,
        };
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(matches!(s.state, ReqState::Free), "free-list slot not free");
                *s = ReqSlot {
                    gen: s.gen,
                    ..fresh
                };
                NcsRequest { slot, gen: s.gen }
            }
            None => {
                self.slots.push(fresh);
                NcsRequest {
                    slot: self.slots.len() as u32 - 1,
                    gen: 0,
                }
            }
        }
    }

    pub fn status(&self, h: NcsRequest) -> Status {
        let s = &self.slots[h.slot as usize];
        match s.state {
            _ if s.gen != h.gen => Status::Stale(s.gen),
            ReqState::Complete(_) => Status::Complete,
            _ => Status::Pending,
        }
    }

    /// The progress engine (a system thread) has the request in hand.
    /// Returns the request timeline to stamp `progressed` on: first pickup
    /// of a traced request only.
    pub fn progress(&mut self, slot: u32) -> Option<u64> {
        let s = &mut self.slots[slot as usize];
        let first = s.req_causal != 0 && !s.progressed;
        s.progressed = true;
        first.then_some(s.req_causal)
    }

    /// Stores the result and queues the completion.
    pub fn complete(&mut self, slot: u32, msg: Option<NcsMsg>) -> Completed {
        let first_progress = self.progress(slot).is_some();
        let s = &mut self.slots[slot as usize];
        debug_assert!(
            matches!(s.state, ReqState::Pending),
            "completing a request slot that is not pending"
        );
        s.state = ReqState::Complete(msg);
        self.completions.push_back((slot, s.gen));
        Completed {
            parked: s.parked.take(),
            req_causal: s.req_causal,
            first_progress,
        }
    }

    /// Parks `tid` on the live handle `h`; `Err` if another thread already
    /// waits on it.
    pub fn park(&mut self, h: NcsRequest, tid: MtsTid) -> Result<ReqKind, ()> {
        let s = &mut self.slots[h.slot as usize];
        if s.parked.is_some_and(|other| other != tid) {
            return Err(());
        }
        s.parked = Some(tid);
        Ok(s.kind)
    }

    /// `tid` no longer waits on `h`: a later completion must not wake a
    /// thread that has moved on.
    pub fn unpark(&mut self, h: NcsRequest, tid: MtsTid) {
        let s = &mut self.slots[h.slot as usize];
        if s.gen == h.gen && s.parked == Some(tid) {
            s.parked = None;
        }
    }

    /// Consumes a completed handle: frees the slot and bumps the generation
    /// so the handle goes stale. Returns the result, and whether the
    /// completion queue held the matching entry (its absence breaks
    /// conservation).
    pub fn consume(&mut self, h: NcsRequest) -> (Option<NcsMsg>, bool) {
        let entry = self.completions.iter().position(|&e| e == (h.slot, h.gen));
        if let Some(p) = entry {
            self.completions.remove(p);
        }
        let s = &mut self.slots[h.slot as usize];
        let msg = match std::mem::replace(&mut s.state, ReqState::Free) {
            ReqState::Complete(m) => m,
            other => {
                s.state = other;
                return (None, entry.is_some());
            }
        };
        s.gen = s.gen.wrapping_add(1);
        s.parked = None;
        s.req_causal = 0;
        self.free.push(h.slot);
        self.consumed += 1;
        (msg, entry.is_some())
    }

    /// Completions not yet redeemed.
    pub fn queued(&self) -> usize {
        self.completions.len()
    }

    /// Conservation at shutdown: every posted request must have been
    /// consumed by a wait. A slot still pending means an in-flight
    /// operation was abandoned; one still completed means its handle leaked
    /// (its message, if any, was silently dropped). Returns one line per
    /// leaked handle, plus the accounting breach if the completion queue
    /// does not hold exactly the completed-unconsumed slots or the
    /// posted/consumed counters do not balance against the live remainder.
    pub fn leaks(&self) -> (Vec<String>, Option<String>) {
        let mut leaked = Vec::new();
        let mut completed = 0;
        for (slot, s) in self.slots.iter().enumerate() {
            let why = match s.state {
                ReqState::Free => continue,
                ReqState::Pending => "still pending",
                ReqState::Complete(_) => {
                    completed += 1;
                    "completed but never waited"
                }
            };
            leaked.push(format!(
                "{:?} request slot {slot} gen {} posted by t{} {why} at shutdown",
                s.kind, s.gen, s.owner
            ));
        }
        let live = leaked.len() as u64;
        let unbalanced = self.completions.len() != completed || self.posted != self.consumed + live;
        let breach = unbalanced.then(|| {
            format!(
                "posted {} != consumed {} + live {live} (completion queue {} vs {completed} completed slots)",
                self.posted,
                self.consumed,
                self.completions.len(),
            )
        });
        (leaked, breach)
    }
}

/// Stamps `progressed` on the request's timeline the first time the
/// progress engine picks the request up. Idempotent; a no-op for untraced
/// (blocking-wrapper) requests.
pub(super) fn mark_progressed(inner: &ProcInner, st: &mut MpsState, slot: u32) {
    if let Some(c) = st.reqs.progress(slot) {
        let now = inner.sim.now();
        inner.sim.with_metrics(|mm| mm.mark(c, "progressed", now));
    }
}

/// Completes request `slot`: stores the result, stamps `completed` on the
/// request's own timeline and folds the stage diffs into the
/// request-latency histograms (`posted -> progressed` is `obs.req_wait`,
/// `progressed -> completed` is `obs.req_service`, and the two telescope
/// exactly to `obs.req_e2e`), then wakes the thread parked on the handle
/// (waking never parks, so the state lock may be held).
pub(super) fn complete_request(
    inner: &ProcInner,
    st: &mut MpsState,
    slot: u32,
    msg: Option<NcsMsg>,
) {
    let done = st.reqs.complete(slot, msg);
    if done.req_causal != 0 {
        let (c, now) = (done.req_causal, inner.sim.now());
        if done.first_progress {
            inner.sim.with_metrics(|mm| mm.mark(c, "progressed", now));
        }
        inner.sim.with_metrics(|mm| {
            mm.mark(c, "completed", now);
            mm.observe_stages(c, causal_component, "obs.req_e2e");
        });
    }
    if let Some(t) = done.parked {
        inner.mts.unblock(&inner.sim, t);
    }
}

/// Redeems the completed handle `h`, counting a received data message.
pub(super) fn consume_request(
    inner: &ProcInner,
    st: &mut MpsState,
    h: NcsRequest,
) -> Option<NcsMsg> {
    let (msg, queued) = st.reqs.consume(h);
    // Every completion pushes exactly one queue entry and every consume
    // pops exactly one; a miss means the accounting broke.
    inner.audit("completion-conservation", || {
        (!queued).then(|| {
            format!(
                "completed slot {} gen {} has no completion-queue entry",
                h.slot, h.gen
            )
        })
    });
    if msg.as_ref().is_some_and(|m| m.class == MsgClass::Data) {
        st.recv_msgs += 1;
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumed_slot_is_reused_under_a_new_generation() {
        let mut t = RequestTable::default();
        let a = t.alloc(ReqKind::Send, 0, 0);
        let b = t.alloc(ReqKind::Recv, 1, 0);
        assert_ne!(a.slot, b.slot);
        assert_eq!(t.status(a), Status::Pending);
        assert_eq!(t.park(a, MtsTid(7)), Ok(ReqKind::Send));
        assert_eq!(
            t.park(a, MtsTid(7)),
            Ok(ReqKind::Send),
            "re-parking is idempotent"
        );
        assert_eq!(t.park(a, MtsTid(8)), Err(()), "one waiter per handle");

        let done = t.complete(a.slot, None);
        assert_eq!(done.parked, Some(MtsTid(7)));
        assert_eq!((t.status(a), t.queued()), (Status::Complete, 1));
        assert!(matches!(t.consume(a), (None, true)));
        assert_eq!((t.status(a), t.queued()), (Status::Stale(1), 0));

        // The freed slot is the next one handed out; the old handle stays
        // stale and cannot disturb the new occupant's waiter.
        let c = t.alloc(ReqKind::Recv, 2, 0);
        assert_eq!((c.slot, c.gen), (a.slot, 1));
        assert_eq!(t.status(a), Status::Stale(1));
        assert_eq!(t.park(c, MtsTid(9)), Ok(ReqKind::Recv));
        t.unpark(a, MtsTid(9));
        assert_eq!(t.complete(c.slot, None).parked, Some(MtsTid(9)));
        assert_eq!((t.posted, t.consumed), (3, 1));
    }

    #[test]
    fn progress_is_stamped_once_and_only_on_traced_requests() {
        let mut t = RequestTable::default();
        let untraced = t.alloc(ReqKind::Send, 0, 0);
        assert_eq!(t.progress(untraced.slot), None);
        let traced = t.alloc(ReqKind::Send, 0, 42);
        assert_eq!(t.progress(traced.slot), Some(42));
        assert_eq!(t.progress(traced.slot), None, "the mark must not move");
        let done = t.complete(traced.slot, None);
        assert_eq!((done.req_causal, done.first_progress), (42, false));
        let direct = t.alloc(ReqKind::Recv, 0, 43);
        assert!(t.complete(direct.slot, None).first_progress);
    }

    #[test]
    fn leaks_name_every_unredeemed_handle_and_balance_the_books() {
        let mut t = RequestTable::default();
        let a = t.alloc(ReqKind::Send, 0, 0);
        let _pending = t.alloc(ReqKind::Recv, 1, 0);
        let c = t.alloc(ReqKind::Send, 2, 0);
        t.complete(a.slot, None);
        t.complete(c.slot, None);
        t.consume(a);
        let (leaked, breach) = t.leaks();
        assert_eq!(leaked.len(), 2);
        assert!(leaked[0].contains("still pending") && leaked[0].contains("t1"));
        assert!(leaked[1].contains("completed but never waited"));
        assert_eq!(breach, None, "1 consumed + 2 live = 3 posted");
        t.posted += 1;
        assert!(t.leaks().1.is_some());
    }
}
