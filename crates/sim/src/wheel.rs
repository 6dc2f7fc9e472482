//! The kernel's event queue: one binary min-heap of `(time, seq, slot)`
//! keys over a slab of pooled event records. It keeps the names of the
//! timer wheel it replaced, which the benchmark's `sim.wheel_ns_per_op`
//! probe imports (ROADMAP item 12 renames both). The queue is shallow, so
//! a heap suffices: DESIGN.md "Event kernel" has the depths.
//!
//! Pop order is strictly ascending `(time, seq)`; `seq` is unique, so the
//! heap's layout never shows. Freed slab slots are reused, so steady-state
//! scheduling does no allocator traffic for the queue itself.
//! [`TimerWheel::cancel`] tombstones a record and hands its payload back at
//! once; the key is dropped when it reaches the top, and generations make
//! stale [`Token`]s harmless.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, for [`TimerWheel::cancel`]; a no-op once
/// its event popped or was cancelled (generation mismatch).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token {
    idx: u32,
    gen: u32,
}

enum Body<T> {
    /// A live event carrying its payload.
    Live(T),
    /// Cancelled; its heap key is dropped when it reaches the top.
    Tombstone,
    /// On the free list.
    Free,
}

struct Rec<T> {
    gen: u32,
    body: Body<T>,
}

/// A `(time, seq, slab index)` heap key.
type Key = (u64, u64, u32);

/// The event queue: pooled events by `(time, seq)`, `time` in any unit
/// (the kernel's is picoseconds) and `seq` a unique tie-breaker.
pub struct TimerWheel<T> {
    slab: Vec<Rec<T>>,
    /// Slab slots on the free list, reused last-freed first.
    free: Vec<u32>,
    heap: BinaryHeap<Reverse<Key>>,
    len: usize,
    peak_len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty queue.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
        }
    }

    /// Number of live (scheduled, uncancelled) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`TimerWheel::len`] over the queue's lifetime.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Frees slot `idx`, returning its payload if it was live.
    fn release(&mut self, idx: u32) -> Option<T> {
        let rec = &mut self.slab[idx as usize];
        rec.gen = rec.gen.wrapping_add(1);
        self.free.push(idx);
        match std::mem::replace(&mut rec.body, Body::Free) {
            Body::Live(item) => Some(item),
            Body::Tombstone => None,
            Body::Free => unreachable!("double free"),
        }
    }

    /// Schedules `item` at `(time, seq)`. `seq` must be unique across all
    /// pushes (the kernel's program-order counter guarantees this).
    pub fn push(&mut self, time: u64, seq: u64, item: T) -> Token {
        let idx = self.free.pop().unwrap_or_else(|| {
            let rec = Rec {
                gen: 0,
                body: Body::Free,
            };
            self.slab.push(rec);
            u32::try_from(self.slab.len() - 1).expect("slab exhausted")
        });
        let rec = &mut self.slab[idx as usize];
        rec.body = Body::Live(item);
        let token = Token { idx, gen: rec.gen };
        self.heap.push(Reverse((time, seq, idx)));
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        token
    }

    /// Cancels the event behind `token`, returning its payload if it was
    /// still pending. Stale tokens (event already popped or cancelled)
    /// return `None`.
    pub fn cancel(&mut self, token: Token) -> Option<T> {
        let rec = self.slab.get_mut(token.idx as usize)?;
        if rec.gen != token.gen || !matches!(rec.body, Body::Live(_)) {
            return None;
        }
        self.len -= 1;
        match std::mem::replace(&mut rec.body, Body::Tombstone) {
            Body::Live(item) => Some(item),
            _ => unreachable!("checked live above"),
        }
    }

    /// Drops tombstones off the top; returns the live minimum key, if any.
    fn settle(&mut self) -> Option<Key> {
        while let Some(&Reverse(key)) = self.heap.peek() {
            if matches!(self.slab[key.2 as usize].body, Body::Live(_)) {
                return Some(key);
            }
            self.heap.pop();
            self.release(key.2);
        }
        None
    }

    /// Frees the live event behind a key already off the heap.
    fn take(&mut self, (time, seq, idx): Key) -> (u64, u64, T) {
        self.len -= 1;
        (time, seq, self.release(idx).expect("key of a live event"))
    }

    /// `(time, seq)` of the earliest live event, without removing it.
    pub(crate) fn peek(&mut self) -> Option<(u64, u64)> {
        self.settle().map(|(time, seq, _)| (time, seq))
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let key = self.settle()?;
        self.heap.pop();
        Some(self.take(key))
    }

    /// Pops every live key at the earliest live instant, in `seq` order,
    /// freeing the tombstones met on the way. The caller pushes back what
    /// it does not take.
    fn take_head_group(&mut self) -> Vec<Key> {
        let mut group: Vec<Key> = Vec::new();
        while let Some(key) = self.settle() {
            if group.first().is_some_and(|head| head.0 != key.0) {
                break;
            }
            self.heap.pop();
            group.push(key);
        }
        group
    }

    /// Sequence numbers of every live event sharing the earliest live
    /// timestamp, in ascending order: the *tie-break group* a schedule-
    /// exploration policy may pop from without reordering time. Only the
    /// entries at that instant are touched, and only exploration runs ask.
    pub(crate) fn head_seqs(&mut self) -> Vec<u64> {
        let group = self.take_head_group();
        let seqs = group.iter().map(|&(_, seq, _)| seq).collect();
        self.heap.extend(group.into_iter().map(Reverse));
        seqs
    }

    /// Removes and returns the live event with sequence number `seq`, which
    /// must belong to the head group (see [`TimerWheel::head_seqs`]).
    /// Tokens for other events stay valid.
    pub(crate) fn pop_seq(&mut self, seq: u64) -> Option<(u64, u64, T)> {
        let mut group = self.take_head_group();
        let at = group.iter().position(|&(_, s, _)| s == seq);
        let key = at.map(|i| group.remove(i));
        self.heap.extend(group.into_iter().map(Reverse));
        Some(self.take(key?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(w: &mut TimerWheel<T>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|(t, s, _)| (t, s))).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(30, 2, 'c');
        w.push(10, 0, 'a');
        w.push(10, 1, 'b');
        w.push(40, 3, 'd');
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|(_, _, x)| x)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
        assert!(w.is_empty());
    }

    #[test]
    fn push_before_the_last_pop_pops_next() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        w.push(100, 0, 0);
        w.push(200, 1, 1);
        assert_eq!(w.pop().unwrap(), (100, 0, 0));
        w.push(150, 2, 2);
        w.push(100, 3, 3); // the instant just popped, later seq
        w.push(50, 4, 4); // earlier than the last pop
        assert_eq!(drain(&mut w), vec![(50, 4), (100, 3), (150, 2), (200, 1)]);
    }

    #[test]
    fn cancel_removes_and_returns_payload() {
        let mut w = TimerWheel::new();
        let a = w.push(10, 0, 'a');
        let b = w.push(20, 1, 'b');
        assert_eq!(w.len(), 2);
        assert_eq!(w.cancel(b), Some('b'));
        assert_eq!(w.len(), 1);
        assert_eq!(w.cancel(b), None, "double cancel is a no-op");
        assert_eq!(w.pop().unwrap().2, 'a');
        assert_eq!(w.cancel(a), None, "cancel after pop is a no-op");
        assert!(w.pop().is_none());
    }

    #[test]
    fn stale_token_after_slot_reuse_is_harmless() {
        let mut w = TimerWheel::new();
        let a = w.push(10, 0, 'a');
        assert_eq!(w.pop().unwrap().2, 'a');
        let b = w.push(20, 1, 'b'); // recycles a's slab slot
        assert_eq!(b.idx, a.idx, "slot must be recycled");
        assert_eq!(w.cancel(a), None, "stale generation rejected");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().unwrap().2, 'b');
    }

    #[test]
    fn peek_matches_pop_and_skips_tombstones() {
        let mut w = TimerWheel::new();
        let a = w.push(10, 0, 'a');
        let b = w.push(15, 1, 'b');
        w.push(20, 2, 'c');
        assert_eq!(w.peek(), Some((10, 0)));
        w.cancel(a);
        assert_eq!(w.peek(), Some((15, 1)));
        w.cancel(b);
        assert_eq!(w.pop().unwrap(), (20, 2, 'c'));
        assert_eq!(w.peek(), None);
        assert!(w.pop().is_none());
    }

    #[test]
    fn len_and_peak_track_live_events() {
        let mut w = TimerWheel::new();
        let toks: Vec<Token> = (0..10).map(|i| w.push(i, i, i)).collect();
        assert_eq!(w.len(), 10);
        assert_eq!(w.peak_len(), 10);
        w.cancel(toks[3]);
        assert_eq!(w.len(), 9);
        for _ in 0..9 {
            w.pop().unwrap();
        }
        assert!(w.is_empty());
        w.push(99, 99, 99);
        assert_eq!(w.peak_len(), 10);
    }

    #[test]
    fn head_seqs_lists_the_tie_break_group() {
        let mut w = TimerWheel::new();
        w.push(10, 2, 'b');
        w.push(10, 0, 'a');
        let dead = w.push(10, 5, 'x');
        w.push(10, 7, 'c');
        w.push(20, 1, 'z');
        w.cancel(dead);
        assert_eq!(
            w.head_seqs(),
            vec![0, 2, 7],
            "the tombstoned tie is left out"
        );
        // Popping shrinks the group; the later timestamp never joins it.
        w.pop().unwrap();
        assert_eq!(w.head_seqs(), vec![2, 7]);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn pop_seq_takes_any_head_member_and_spares_other_tokens() {
        let mut w = TimerWheel::new();
        w.push(10, 0, 'a');
        let dead = w.push(10, 1, 'x');
        w.push(10, 2, 'b');
        let far = w.push(900_000_000, 3, 'z');
        w.cancel(dead);
        assert_eq!(w.pop_seq(1), None, "a tombstoned tie is not taken");
        assert_eq!(w.pop_seq(2), Some((10, 2, 'b')));
        assert_eq!(w.pop_seq(2), None, "already taken");
        assert_eq!(w.pop_seq(3), None, "not at the head instant");
        assert_eq!(w.pop().unwrap(), (10, 0, 'a'));
        // The unrelated far-future token must still cancel cleanly.
        assert_eq!(w.cancel(far), Some('z'));
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn pop_seq_of_the_head_matches_pop_order() {
        let mut w = TimerWheel::new();
        w.push(10, 0, 'a');
        w.push(10, 1, 'b');
        let head = w.head_seqs()[0];
        assert_eq!(w.pop_seq(head), Some((10, 0, 'a')));
        assert_eq!(w.pop().unwrap(), (10, 1, 'b'));
    }

    /// A 40-event tie under 60 later events fills several heap levels; the
    /// head group must still be exactly the tie, and taking members from its
    /// middle must leave the rest in order.
    #[test]
    fn head_group_spread_over_heap_levels() {
        let mut w = TimerWheel::new();
        let mut toks = Vec::new();
        for seq in 0..100u64 {
            // Interleave later times with the tie so both land at every depth.
            let time = if seq % 5 < 2 { 7 } else { 8 + seq };
            toks.push(w.push(time, seq, seq));
        }
        w.cancel(toks[11]);
        let tie: Vec<u64> = (0..100).filter(|s| s % 5 < 2 && *s != 11).collect();
        assert_eq!(w.head_seqs(), tie);
        assert_eq!(w.pop_seq(50), Some((7, 50, 50)));
        assert_eq!(w.pop_seq(96), Some((7, 96, 96)));
        let rest: Vec<u64> = tie
            .iter()
            .copied()
            .filter(|&s| s != 50 && s != 96)
            .collect();
        assert_eq!(w.head_seqs(), rest);
        let popped = drain(&mut w);
        assert_eq!(popped.len(), 97);
        assert!(
            popped.windows(2).all(|p| p[0] < p[1]),
            "(time, seq) order kept"
        );
        assert_eq!(
            popped[..rest.len()],
            rest.iter().map(|&s| (7, s)).collect::<Vec<_>>()[..]
        );
    }
}
