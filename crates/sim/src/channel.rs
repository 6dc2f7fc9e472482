//! In-simulation message channels.
//!
//! [`SimChannel`] is an unbounded MPSC/MPMC queue whose blocking receive
//! parks green threads on virtual time. It is the building block for NIC
//! receive rings and mailboxes. Unlike OS channels, sends and
//! receives take zero virtual time by themselves — time costs are modeled
//! explicitly by whoever uses the channel.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::Mutex;

use crate::kernel::{Ctx, Sim, ThreadId};

/// Where a forwarded channel's values go; hands back what it cannot take.
type Sink<T> = Box<dyn Fn(&Sim, T) -> Result<(), T> + Send>;

struct ChannelInner<T> {
    queue: VecDeque<T>,
    recv_waiters: VecDeque<ThreadId>,
    closed: bool,
    /// Set by [`SimChannel::forward`]: offers go here, not to `queue`.
    sink: Option<Sink<T>>,
}

/// An unbounded queue between simulated activities: a send never waits,
/// a receive parks its green thread until a value arrives or the channel
/// closes. Flow control belongs to whoever uses the channel (credit
/// windows, modelled buffers), not to the queue.
pub struct SimChannel<T> {
    inner: Arc<Mutex<ChannelInner<T>>>,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Error returned when operating on a closed, drained channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}

impl std::error::Error for Closed {}

impl<T> SimChannel<T> {
    /// Creates an (empty, open) channel.
    pub fn unbounded() -> SimChannel<T> {
        SimChannel {
            inner: Arc::new(Mutex::new(ChannelInner {
                queue: VecDeque::new(),
                recv_waiters: VecDeque::new(),
                closed: false,
                sink: None,
            })),
        }
    }

    /// Makes this channel a pass-through: whatever is queued now, and every
    /// later [`SimChannel::offer`], goes to `sink` inside the offering
    /// event itself — a merge of several channels into one costs no green
    /// thread and no event. An offer fails when the sink refuses the value.
    pub fn forward(&self, sim: &Sim, sink: impl Fn(&Sim, T) -> Result<(), T> + Send + 'static) {
        let mut ch = self.inner.lock();
        for value in std::mem::take(&mut ch.queue) {
            let _ = sink(sim, value);
        }
        ch.sink = Some(Box::new(sink));
    }

    /// Sends from a green thread. Never parks; fails only on a closed
    /// channel.
    pub fn send(&self, ctx: &Ctx, value: T) -> Result<(), Closed> {
        self.offer(ctx.sim(), value).map_err(|_| Closed)
    }

    /// Sends from an event callback (or any non-thread context). Hands the
    /// value back if the channel is closed (or its sink refused it).
    pub fn offer(&self, sim: &Sim, value: T) -> Result<(), T> {
        let waiter = {
            let mut ch = self.inner.lock();
            if ch.closed {
                return Err(value);
            }
            if let Some(sink) = &ch.sink {
                return sink(sim, value);
            }
            ch.queue.push_back(value);
            ch.recv_waiters.pop_front()
        };
        if let Some(w) = waiter {
            sim.wake(w);
        }
        Ok(())
    }

    /// Receives, blocking the calling green thread until a value or close.
    pub fn recv(&self, ctx: &Ctx) -> Result<T, Closed> {
        loop {
            {
                let mut ch = self.inner.lock();
                if let Some(v) = ch.queue.pop_front() {
                    return Ok(v);
                }
                if ch.closed {
                    return Err(Closed);
                }
                ch.recv_waiters.push_back(ctx.tid());
            }
            ctx.park();
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.lock().queue.pop_front()
    }

    /// Closes the channel: pending items remain receivable; subsequent sends
    /// fail; blocked receivers wake with [`Closed`] once drained.
    pub fn close(&self, sim: &Sim) {
        let waiters: Vec<ThreadId> = {
            let mut ch = self.inner.lock();
            ch.closed = true;
            ch.recv_waiters.drain(..).collect()
        };
        for w in waiters {
            sim.wake(w);
        }
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Dur, SimTime};

    #[test]
    fn send_recv_fifo() {
        let sim = Sim::new();
        let ch: SimChannel<u32> = SimChannel::unbounded();
        let tx = ch.clone();
        sim.spawn("producer", move |ctx| {
            for i in 0..5 {
                tx.send(ctx, i).unwrap();
                ctx.sleep(Dur::from_micros(1));
            }
        });
        let rx = ch.clone();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        sim.spawn("consumer", move |ctx| {
            for _ in 0..5 {
                got2.lock().push(rx.recv(ctx).unwrap());
            }
        });
        sim.run().assert_clean();
        assert_eq!(*got.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let sim = Sim::new();
        let ch: SimChannel<&'static str> = SimChannel::unbounded();
        let rx = ch.clone();
        let when = Arc::new(Mutex::new(None));
        let when2 = Arc::clone(&when);
        sim.spawn("consumer", move |ctx| {
            let v = rx.recv(ctx).unwrap();
            assert_eq!(v, "hello");
            *when2.lock() = Some(ctx.now());
        });
        let tx = ch.clone();
        sim.spawn("producer", move |ctx| {
            ctx.sleep(Dur::from_millis(2));
            tx.send(ctx, "hello").unwrap();
        });
        sim.run().assert_clean();
        assert_eq!(when.lock().unwrap(), SimTime::ZERO + Dur::from_millis(2));
    }

    #[test]
    fn offer_from_callback_wakes_receiver() {
        let sim = Sim::new();
        let ch: SimChannel<u8> = SimChannel::unbounded();
        let rx = ch.clone();
        let done = Arc::new(Mutex::new(false));
        let done2 = Arc::clone(&done);
        sim.spawn("consumer", move |ctx| {
            assert_eq!(rx.recv(ctx).unwrap(), 7);
            *done2.lock() = true;
        });
        let tx = ch.clone();
        sim.schedule_in(Dur::from_micros(5), move |sim| {
            tx.offer(sim, 7).unwrap();
        });
        sim.run().assert_clean();
        assert!(*done.lock());
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let sim = Sim::new();
        let ch: SimChannel<u8> = SimChannel::unbounded();
        let rx = ch.clone();
        let got_closed = Arc::new(Mutex::new(false));
        let gc = Arc::clone(&got_closed);
        sim.spawn("consumer", move |ctx| {
            assert_eq!(rx.recv(ctx), Err(Closed));
            *gc.lock() = true;
        });
        let cl = ch.clone();
        sim.schedule_in(Dur::from_micros(1), move |sim| cl.close(sim));
        sim.run().assert_clean();
        assert!(*got_closed.lock());
    }

    #[test]
    fn close_drains_pending_items_first() {
        let sim = Sim::new();
        let ch: SimChannel<u8> = SimChannel::unbounded();
        let tx = ch.clone();
        sim.schedule_at(SimTime::ZERO, move |sim| {
            tx.offer(sim, 1).unwrap();
            tx.offer(sim, 2).unwrap();
            tx.close(sim);
        });
        let rx = ch.clone();
        sim.spawn("consumer", move |ctx| {
            ctx.sleep(Dur::from_micros(1));
            assert_eq!(rx.recv(ctx), Ok(1));
            assert_eq!(rx.recv(ctx), Ok(2));
            assert_eq!(rx.recv(ctx), Err(Closed));
        });
        sim.run().assert_clean();
    }

    #[test]
    fn forward_passes_queued_and_later_values_through() {
        let sim = Sim::new();
        let (a, b): (SimChannel<u8>, SimChannel<(char, u8)>) =
            (SimChannel::unbounded(), SimChannel::unbounded());
        a.offer(&sim, 1).unwrap();
        a.offer(&sim, 2).unwrap();
        let target = b.clone();
        a.forward(&sim, move |sim, v| {
            target.offer(sim, ('a', v)).map_err(|(_, v)| v)
        });
        a.offer(&sim, 3).unwrap();
        assert!(a.is_empty(), "a forwarded channel queues nothing itself");
        let got: Vec<_> = std::iter::from_fn(|| b.try_recv()).collect();
        assert_eq!(got, [('a', 1), ('a', 2), ('a', 3)]);
        // A sink that refuses hands the value back through `offer`.
        b.close(&sim);
        assert_eq!(a.offer(&sim, 4), Err(4));
    }

    #[test]
    fn try_recv_nonblocking() {
        let sim = Sim::new();
        let ch: SimChannel<u8> = SimChannel::unbounded();
        let c2 = ch.clone();
        sim.schedule_at(SimTime::ZERO, move |sim| {
            assert!(c2.try_recv().is_none());
            c2.offer(sim, 9).unwrap();
            assert_eq!(c2.try_recv(), Some(9));
        });
        sim.run().assert_clean();
    }
}
