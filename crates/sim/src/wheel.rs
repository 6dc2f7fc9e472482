//! The kernel's event queue: a hierarchical timer wheel with pooled,
//! freelist-recycled event records.
//!
//! # Why not a binary heap
//!
//! The original kernel funnelled every event through a
//! `Mutex<BinaryHeap<HeapEntry>>`: every push/pop pays `O(log n)` sift
//! moves of 40-byte entries, and the entries themselves churn through the
//! allocator as the heap's backing `Vec` grows and shrinks. At the
//! 256-host scale of `xp_scale` the queue holds tens of thousands of
//! pending events and the heap becomes the hottest structure in the
//! simulator.
//!
//! [`TimerWheel`] follows the hashed-timing-wheel lineage of Varghese &
//! Lauck (SOSP '87) as adapted by discrete-event simulators (calendar
//! queues):
//!
//! * **near-future calendar buckets** — a power-of-two ring of
//!   [`SLOTS`] buckets, each covering one *tick* of `2^tick_shift`
//!   picoseconds. An event lands in its bucket with one freelist pop and
//!   one `Vec` push: `O(1)`, no ordering work at insert time.
//! * **overflow tree** — events beyond the wheel's horizon go into a
//!   `BTreeMap` keyed by tick, whole ticks at a time. They migrate into
//!   the ring lazily as the cursor advances, so each far-future event is
//!   touched at most once more than a heap would touch it.
//! * **pooled records** — event payloads live in a slab (`Vec<Rec<T>>`)
//!   threaded with an intrusive freelist. Steady-state scheduling
//!   performs **no allocator traffic**: records, bucket vectors, and the
//!   drain buffer are all recycled. (A `Call` event's boxed closure is
//!   still one allocation — unavoidable under `forbid(unsafe_code)` — but
//!   `Resume` events, the vast majority, are allocation-free.)
//!
//! # Exact `(time, seq)` FIFO
//!
//! Pop order is *identical* to the heap it replaced: strictly ascending
//! `(time, seq)`. A bucket is heapified once, when the cursor reaches it
//! (`O(k)` for a `k`-event bucket); events scheduled into the bucket
//! *while it drains* — the common `schedule_at(now)` case — are `O(log k)`
//! heap inserts, where `k` is one bucket's population rather than the
//! whole queue's. The golden-trace suite pins the order byte-for-byte,
//! and a property test replays random workloads against a reference
//! `BinaryHeap` model.
//!
//! # Cancellation
//!
//! [`TimerWheel::push`] returns a [`Token`] (slab index + generation).
//! [`TimerWheel::cancel`] tombstones the record and hands the payload
//! back immediately; the tombstone is reclaimed when its bucket drains.
//! Generations make stale tokens (slot already recycled) harmless.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Log2 of the ring size.
const SLOT_BITS: u32 = 10;
/// Number of near-future buckets in the ring.
pub const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Freelist terminator.
const NIL: u32 = u32::MAX;

/// Handle to a scheduled event, for [`TimerWheel::cancel`]. A token is
/// invalidated when its event pops or is cancelled; using it afterwards
/// is a harmless no-op (generation mismatch).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token {
    idx: u32,
    gen: u32,
}

enum Body<T> {
    /// A live event carrying its payload.
    Live(T),
    /// Cancelled but still referenced by a bucket; reclaimed on drain.
    Tombstone,
    /// On the freelist.
    Free { next: u32 },
}

struct Rec<T> {
    gen: u32,
    time: u64,
    seq: u64,
    body: Body<T>,
}

/// A hierarchical timer wheel ordering events by `(time, seq)`.
///
/// `time` is an arbitrary u64 instant (the kernel uses picoseconds),
/// `seq` a unique tie-breaker. Events may only be pushed at
/// `time >= last popped time` (the kernel's no-scheduling-into-the-past
/// rule); earlier times are clamped into the current tick, where the
/// `(time, seq)` sort still ranks them first.
pub struct TimerWheel<T> {
    slab: Vec<Rec<T>>,
    free_head: u32,
    /// Ring of buckets; bucket `tick & SLOT_MASK` holds events of `tick`
    /// for ticks in `[cur_tick, cur_tick + SLOTS)`.
    slots: Vec<Vec<u32>>,
    /// Occupancy bitmap over `slots` (bit = bucket non-empty).
    occ: [u64; SLOTS / 64],
    /// The tick currently draining; all its events live in `current`.
    cur_tick: u64,
    /// Drain heap for `cur_tick`: a min-heap over `(time, seq)` (the slab
    /// index rides along). Small — one bucket's population, not the whole
    /// queue's. Its backing buffer is reused across buckets.
    current: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Events beyond the ring's horizon, whole ticks at a time.
    overflow: BTreeMap<u64, Vec<u32>>,
    len: usize,
    peak_len: usize,
    tick_shift: u32,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// A wheel with the default tick of 2^20 ps (≈1 µs), sized for
    /// cell-level ATM timing: the ring then spans ≈1 ms of near future.
    pub fn new() -> TimerWheel<T> {
        TimerWheel::with_tick_shift(20)
    }

    /// A wheel whose ticks span `2^tick_shift` time units.
    pub fn with_tick_shift(tick_shift: u32) -> TimerWheel<T> {
        assert!(tick_shift < 54, "tick must stay below the time range");
        TimerWheel {
            slab: Vec::new(),
            free_head: NIL,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; SLOTS / 64],
            cur_tick: 0,
            current: BinaryHeap::new(),
            overflow: BTreeMap::new(),
            len: 0,
            peak_len: 0,
            tick_shift,
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

    /// High-water mark of [`TimerWheel::len`] over the wheel's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    fn alloc(&mut self, time: u64, seq: u64, item: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let rec = &mut self.slab[idx as usize];
            match rec.body {
                Body::Free { next } => self.free_head = next,
                _ => unreachable!("freelist head not free"),
            }
            rec.time = time;
            rec.seq = seq;
            rec.body = Body::Live(item);
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("slab exhausted");
            self.slab.push(Rec {
                gen: 0,
                time,
                seq,
                body: Body::Live(item),
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) -> Option<T> {
        let rec = &mut self.slab[idx as usize];
        let body = std::mem::replace(&mut rec.body, Body::Free {
            next: self.free_head,
        });
        rec.gen = rec.gen.wrapping_add(1);
        self.free_head = idx;
        match body {
            Body::Live(item) => Some(item),
            Body::Tombstone => None,
            Body::Free { .. } => unreachable!("double free"),
        }
    }

    /// Schedules `item` at `(time, seq)`. `seq` must be unique across all
    /// pushes (the kernel's program-order counter guarantees this).
    pub fn push(&mut self, time: u64, seq: u64, item: T) -> Token {
        let tick = (time >> self.tick_shift).max(self.cur_tick);
        let idx = self.alloc(time, seq, item);
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        if tick == self.cur_tick {
            // The draining tick: heap-insert at exact rank.
            self.current.push(Reverse((time, seq, idx)));
        } else if tick < self.cur_tick + SLOTS as u64 {
            let s = (tick & SLOT_MASK) as usize;
            self.slots[s].push(idx);
            self.occ[s / 64] |= 1u64 << (s % 64);
        } else {
            self.overflow.entry(tick).or_default().push(idx);
        }
        Token {
            idx,
            gen: self.slab[idx as usize].gen,
        }
    }

    /// Cancels the event behind `token`, returning its payload if it was
    /// still pending. Stale tokens (event already popped or cancelled)
    /// return `None`.
    pub fn cancel(&mut self, token: Token) -> Option<T> {
        let rec = self.slab.get_mut(token.idx as usize)?;
        if rec.gen != token.gen || !matches!(rec.body, Body::Live(_)) {
            return None;
        }
        let body = std::mem::replace(&mut rec.body, Body::Tombstone);
        self.len -= 1;
        match body {
            Body::Live(item) => Some(item),
            _ => unreachable!(),
        }
    }

    /// Moves every overflow tick that now falls inside the ring's window
    /// into its bucket. Called whenever `cur_tick` advances.
    fn migrate_window(&mut self) {
        let end = self.cur_tick + SLOTS as u64;
        while let Some((&tick, _)) = self.overflow.first_key_value() {
            if tick >= end {
                break;
            }
            let ids = self.overflow.pop_first().expect("checked non-empty").1;
            let s = (tick & SLOT_MASK) as usize;
            self.slots[s].extend_from_slice(&ids);
            self.occ[s / 64] |= 1u64 << (s % 64);
        }
    }

    /// First occupied bucket at a tick in `[from, cur_tick + SLOTS)`,
    /// found by word-scanning the occupancy bitmap.
    fn next_occupied(&self, from: u64) -> Option<u64> {
        let end = self.cur_tick + SLOTS as u64;
        let mut tick = from;
        while tick < end {
            let s = (tick & SLOT_MASK) as usize;
            let bit = s % 64;
            let word = self.occ[s / 64] >> bit;
            if word != 0 {
                let cand = tick + u64::from(word.trailing_zeros());
                return (cand < end).then_some(cand);
            }
            tick += 64 - bit as u64;
        }
        None
    }

    /// Loads bucket `tick` into the drain heap (one `O(k)` heapify; the
    /// heap's backing buffer is recycled across buckets).
    fn load_bucket(&mut self, tick: u64) {
        self.cur_tick = tick;
        self.migrate_window();
        let s = (tick & SLOT_MASK) as usize;
        debug_assert!(self.current.is_empty());
        let mut buf = std::mem::take(&mut self.current).into_vec();
        let slab = &self.slab;
        buf.extend(self.slots[s].drain(..).map(|i| {
            let r = &slab[i as usize];
            Reverse((r.time, r.seq, i))
        }));
        self.occ[s / 64] &= !(1u64 << (s % 64));
        self.current = BinaryHeap::from(buf);
    }

    /// Ensures the top of `current` is the live minimum event, advancing
    /// the cursor and reclaiming tombstones as needed. Returns `false`
    /// when no live event remains anywhere.
    fn settle(&mut self) -> bool {
        loop {
            while let Some(&Reverse((_, _, idx))) = self.current.peek() {
                if matches!(self.slab[idx as usize].body, Body::Live(_)) {
                    return true;
                }
                self.current.pop();
                self.release(idx);
            }
            // Drained the whole tick: advance to the next occupied bucket,
            // or jump the cursor to the overflow's first tick.
            if let Some(tick) = self.next_occupied(self.cur_tick + 1) {
                self.load_bucket(tick);
            } else if let Some((&tick, _)) = self.overflow.first_key_value() {
                self.load_bucket(tick);
            } else {
                return false;
            }
        }
    }

    /// `(time, seq)` of the earliest live event, without removing it.
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        if !self.settle() {
            return None;
        }
        let &Reverse((time, seq, _)) = self.current.peek().expect("settle guarantees a top");
        Some((time, seq))
    }

    /// Sequence numbers of every live event sharing the earliest live
    /// timestamp, in ascending `seq` order.
    ///
    /// This is the *tie-break group*: the set of events a schedule-
    /// exploration policy may legally pop next without reordering time.
    /// All members provably live in the drain heap (`current`) — events
    /// parked in future buckets or the overflow tree have strictly later
    /// timestamps — so the scan is `O(current bucket)`, a cost paid only
    /// by exploration runs, never by the default scheduler.
    pub fn head_seqs(&mut self) -> Vec<u64> {
        if !self.settle() {
            return Vec::new();
        }
        let &Reverse((head_time, _, _)) = self.current.peek().expect("settle guarantees a top");
        let slab = &self.slab;
        let mut seqs: Vec<u64> = self
            .current
            .iter()
            .filter(|&&Reverse((t, _, idx))| {
                t == head_time && matches!(slab[idx as usize].body, Body::Live(_))
            })
            .map(|&Reverse((_, s, _))| s)
            .collect();
        seqs.sort_unstable();
        seqs
    }

    /// Removes and returns the live event with sequence number `seq`,
    /// which must belong to the current head group (see
    /// [`TimerWheel::head_seqs`]). Unlike [`TimerWheel::pop`] the record
    /// is tombstoned rather than released — the drain heap still holds
    /// its entry, which `TimerWheel::settle` reclaims later — so
    /// outstanding [`Token`]s for *other* events stay valid.
    pub fn pop_seq(&mut self, seq: u64) -> Option<(u64, u64, T)> {
        if !self.settle() {
            return None;
        }
        let slab = &self.slab;
        let idx = self.current.iter().find_map(|&Reverse((_, s, i))| {
            (s == seq && matches!(slab[i as usize].body, Body::Live(_))).then_some(i)
        })?;
        let rec = &mut self.slab[idx as usize];
        let time = rec.time;
        let body = std::mem::replace(&mut rec.body, Body::Tombstone);
        self.len -= 1;
        match body {
            Body::Live(item) => Some((time, seq, item)),
            _ => unreachable!("checked live above"),
        }
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if !self.settle() {
            return None;
        }
        let Reverse((time, seq, idx)) = self.current.pop().expect("settle guarantees a top");
        let item = self.release(idx).expect("settled top is live");
        self.len -= 1;
        Some((time, seq, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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
    fn same_tick_interleaved_push_pop() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        // All inside one tick (default tick = 2^20 ps).
        w.push(100, 0, 0);
        w.push(200, 1, 1);
        assert_eq!(w.pop().unwrap(), (100, 0, 0));
        // Push between the two pending events' ranks, mid-drain.
        w.push(150, 2, 2);
        w.push(100, 3, 3); // same instant as the popped one, later seq
        assert_eq!(w.pop().unwrap(), (100, 3, 3));
        assert_eq!(w.pop().unwrap(), (150, 2, 2));
        assert_eq!(w.pop().unwrap(), (200, 1, 1));
        assert!(w.pop().is_none());
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut w = TimerWheel::with_tick_shift(4); // tiny ticks: horizon = 16*1024
        let horizon = 16 * SLOTS as u64;
        w.push(3 * horizon, 1, 'z');
        w.push(5, 0, 'a');
        assert_eq!(w.pop().unwrap().2, 'a');
        assert_eq!(w.pop().unwrap().2, 'z');
        assert!(w.pop().is_none());
    }

    #[test]
    fn cursor_wraps_many_epochs() {
        let mut w = TimerWheel::with_tick_shift(0); // 1 unit per tick
        let mut expect = Vec::new();
        // Spread events over many full wheel rotations, pushed shuffled.
        for (seq, k) in (0u64..).zip([7u64, 3, 11, 1, 9, 5]) {
            let t = k * (SLOTS as u64) * 3 + k;
            w.push(t, seq, t);
            expect.push((t, seq));
        }
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| w.pop().map(|(t, s, _)| (t, s))).collect();
        assert_eq!(got, expect);
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
        assert_eq!(w.pop().unwrap().2, 'b');
    }

    #[test]
    fn peek_matches_pop_and_skips_tombstones() {
        let mut w = TimerWheel::new();
        let a = w.push(10, 0, 'a');
        w.push(20, 1, 'b');
        assert_eq!(w.peek(), Some((10, 0)));
        w.cancel(a);
        assert_eq!(w.peek(), Some((20, 1)));
        assert_eq!(w.pop().unwrap(), (20, 1, 'b'));
        assert_eq!(w.peek(), None);
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
        assert_eq!(w.peak_len(), 10);
    }

    #[test]
    fn head_seqs_lists_the_tie_break_group() {
        let mut w = TimerWheel::new();
        w.push(10, 2, 'b');
        w.push(10, 0, 'a');
        w.push(10, 7, 'c');
        w.push(20, 1, 'z');
        assert_eq!(w.head_seqs(), vec![0, 2, 7]);
        // Popping shrinks the group; the later timestamp never joins it.
        w.pop().unwrap();
        assert_eq!(w.head_seqs(), vec![2, 7]);
    }

    #[test]
    fn pop_seq_takes_any_head_member_and_spares_other_tokens() {
        let mut w = TimerWheel::new();
        w.push(10, 0, 'a');
        w.push(10, 1, 'b');
        let far = w.push(900_000_000, 2, 'z');
        assert_eq!(w.pop_seq(1), Some((10, 1, 'b')));
        assert_eq!(w.pop_seq(1), None, "already taken");
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

    /// Deterministic xorshift so the stress test needs no external crates
    /// (and stays runnable in offline shadow builds).
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// 20k randomized schedule/cancel/pop operations replayed against a
    /// `BinaryHeap` reference model, with times spanning dozens of wheel
    /// epochs and heavy same-timestamp collisions.
    #[test]
    fn stress_matches_binary_heap_reference() {
        let mut w: TimerWheel<u64> = TimerWheel::with_tick_shift(6);
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut live: Vec<(Token, u64, u64)> = Vec::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..20_000 {
            match xorshift(&mut rng) % 10 {
                // 60%: schedule, mixing same-instant, near, and far-future.
                0..=5 => {
                    let dt = match xorshift(&mut rng) % 4 {
                        0 => 0,
                        1 => xorshift(&mut rng) % 64,
                        2 => xorshift(&mut rng) % (64 * SLOTS as u64),
                        _ => xorshift(&mut rng) % (64 * 40 * SLOTS as u64),
                    };
                    let t = now + dt;
                    let tok = w.push(t, seq, seq);
                    reference.push(Reverse((t, seq)));
                    live.push((tok, t, seq));
                    seq += 1;
                }
                // 20%: pop and compare against the model.
                6..=7 => {
                    let got = w.pop();
                    let want = reference.pop().map(|Reverse(p)| p);
                    assert_eq!(got.map(|(t, s, _)| (t, s)), want);
                    if let Some((t, s)) = want {
                        now = now.max(t);
                        live.retain(|&(_, lt, ls)| (lt, ls) != (t, s));
                    }
                }
                // 20%: cancel a random live event in both structures.
                _ => {
                    if !live.is_empty() {
                        let i = (xorshift(&mut rng) as usize) % live.len();
                        let (tok, t, s) = live.swap_remove(i);
                        assert_eq!(w.cancel(tok), Some(s));
                        let mut rest: Vec<Reverse<(u64, u64)>> =
                            reference.drain().filter(|&Reverse(p)| p != (t, s)).collect();
                        reference.extend(rest.drain(..));
                    }
                }
            }
            assert_eq!(w.len(), reference.len());
        }
        // Full drain must agree to the last event.
        while let Some(Reverse((t, s))) = reference.pop() {
            assert_eq!(w.pop().map(|(wt, ws, _)| (wt, ws)), Some((t, s)));
        }
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }
}
