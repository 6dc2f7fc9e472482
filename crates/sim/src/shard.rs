//! Sharded parallel simulation: conservative-lookahead time windows.
//!
//! [`ShardedSim`] partitions a workload across `S` independent [`Sim`]
//! instances — one timer wheel and one green-thread engine each — and runs
//! them on `S` worker OS threads in barrier-synchronized *time windows*.
//! The window width is the workload's **lookahead**: the minimum virtual
//! latency of any event that crosses a shard boundary (for the NCS stack,
//! the minimum cross-shard *link* latency — a message between hosts on
//! different shards must cross at least one switch trunk with known
//! propagation delay).
//!
//! The classic conservative time-window argument then gives race-free
//! parallelism without null messages: while shards execute the window
//! `[W, W+Δ)` concurrently, any cross-shard event they post carries a
//! delivery time `≥ W+Δ` (asserted in [`ShardedSim::post`]), so no shard
//! can receive an event *inside* the window it is currently executing.
//! Cross-shard events travel through per-pair inboxes and are merged into
//! the destination wheels at the window barrier, before any shard advances
//! past `W+Δ`.
//!
//! # Determinism
//!
//! The headline guarantee is *partition independence*: same seed ⇒
//! byte-identical behaviour whether the workload runs on 1, 2, 4, or 8
//! shards. Two mechanisms deliver it:
//!
//! * **Keyed tie-breaks.** Every workload event goes through
//!   [`ShardedSim::post`] with a *stamp* that is a pure function of the
//!   message (round, direction, source host) — not of program order, not
//!   of the partition. [`Sim::schedule_keyed`] uses the stamp as the
//!   wheel's tie-break `seq`, so each host processes its deliveries in an
//!   order determined only by `(time, stamp)`. Repartitioning moves events
//!   between wheels but cannot reorder them.
//! * **Deterministic merge.** Each shard records the `(time, stamp)` of
//!   every workload event it executes; at each window barrier the
//!   coordinator k-way-merges the per-shard streams by `(time, stamp)`
//!   ([`merge_streams`] — the same order a single global wheel would have
//!   popped them in) and folds the merged stream into one FNV-1a digest,
//!   [`ShardedSim::merged_trace_hash`]. The digest is byte-identical
//!   across shard counts, and the differential suite in
//!   `bench/tests/shard_determinism.rs` pins it.
//!
//! With `shards == 1` the run degenerates to a plain [`Sim::run`] on the
//! single shard — no worker threads, no windows — so the golden-trace
//! guarantee of the sequential kernel is untouched by construction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use crate::sync::Mutex;

use crate::analysis::{fnv1a_fold, FNV_OFFSET};
use crate::engine::EngineKind;
use crate::kernel::{RunOutcome, Sim};
use crate::time::{Dur, SimTime};

/// K-way merge of per-shard `(time, seq)` streams into the order a single
/// global timer wheel would pop them: ascending `(time, seq)`, ties between
/// streams broken by stream index. Each input stream must itself be
/// non-decreasing in `(time, seq)` — true of any per-shard execution trace,
/// since a shard pops its own wheel in exactly that order.
pub fn merge_streams(streams: Vec<Vec<(u64, u64)>>) -> Vec<(u64, u64)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors: Vec<std::vec::IntoIter<(u64, u64)>> =
        streams.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    for (i, cur) in cursors.iter_mut().enumerate() {
        if let Some((t, s)) = cur.next() {
            heap.push(Reverse((t, s, i)));
        }
    }
    while let Some(Reverse((t, s, i))) = heap.pop() {
        debug_assert!(
            out.last().is_none_or(|&(pt, ps)| (pt, ps) <= (t, s)),
            "merge_streams input stream {i} not sorted"
        );
        out.push((t, s));
        if let Some((nt, ns)) = cursors[i].next() {
            debug_assert!((nt, ns) >= (t, s), "stream {i} decreasing: {nt},{ns} after {t},{s}");
            heap.push(Reverse((nt, ns, i)));
        }
    }
    out
}

/// A cross-shard event parked in an inbox until the window barrier.
struct RemoteEvent {
    at_ps: u64,
    stamp: u64,
    f: Box<dyn FnOnce(&Sim) + Send>,
}

/// Per-shard record of executed workload events; drained by the
/// coordinator at every window barrier and folded into the merged digest.
struct TraceCell {
    recorded: Mutex<Vec<(u64, u64)>>,
}

struct Shared {
    /// `inboxes[dst][src]` — one lock per directed shard pair, so posting
    /// shards never contend with each other.
    inboxes: Vec<Vec<Mutex<Vec<RemoteEvent>>>>,
    /// `traces[shard]` — executed `(time, stamp)` pairs, in execution
    /// order (which per shard is ascending `(time, stamp)`).
    traces: Vec<Arc<TraceCell>>,
    /// End (exclusive, ps) of the window currently being executed. Posts
    /// from inside a window are checked against this: the lookahead bound
    /// says every cross-shard event lands at or after it.
    window_end_ps: AtomicU64,
    merged_hash: AtomicU64,
    merged_events: AtomicU64,
    windows: AtomicU64,
}

/// Outcome of a sharded run: the per-shard [`RunOutcome`]s plus the merged
/// workload digest that the determinism suite compares across shard counts.
#[derive(Clone, Debug)]
pub struct ShardedRunOutcome {
    /// Final outcome of each shard's kernel (index = shard id).
    pub per_shard: Vec<RunOutcome>,
    /// Total kernel events processed across all shards.
    pub events: u64,
    /// Maximum virtual end time across shards.
    pub end_time: SimTime,
    /// Number of time windows the barrier loop executed (0 when
    /// `shards == 1`: the sequential fast path runs windowless).
    pub windows: u64,
    /// Number of workload (keyed) events folded into the merged digest.
    pub merged_events: u64,
    /// Partition-independent FNV-1a digest of the merged workload stream.
    pub merged_trace_hash: u64,
}

impl ShardedRunOutcome {
    /// Asserts every shard drained completely with no blocked threads and
    /// no panics.
    #[track_caller]
    pub fn assert_clean(&self) {
        for (i, out) in self.per_shard.iter().enumerate() {
            assert!(
                out.panics.is_empty(),
                "shard {i} green-thread panics: {:?}",
                out.panics
            );
            assert!(
                out.blocked.is_empty(),
                "shard {i} threads still blocked: {:?}",
                out.blocked
            );
        }
    }
}

/// `S` independent simulations advancing in lockstep time windows, with
/// deterministic cross-shard event routing. See the module docs for the
/// synchronization protocol and the determinism argument.
pub struct ShardedSim {
    sims: Vec<Sim>,
    shared: Arc<Shared>,
    window_ps: u64,
}

impl ShardedSim {
    /// Creates `shards` simulations that will advance in windows of width
    /// `lookahead` (the minimum cross-shard event latency — see
    /// [`ShardedSim::post`]). `lookahead` must be positive unless
    /// `shards == 1`.
    pub fn new(shards: usize, lookahead: Dur) -> ShardedSim {
        ShardedSim::with_engine(shards, lookahead, crate::engine::default_engine())
    }

    /// Like [`ShardedSim::new`] with an explicit green-thread engine for
    /// every shard.
    pub fn with_engine(shards: usize, lookahead: Dur, engine: EngineKind) -> ShardedSim {
        ShardedSim::with_engine_and_stack(shards, lookahead, engine, crate::DEFAULT_STACK_BYTES)
    }

    /// Like [`ShardedSim::with_engine`] with an explicit green-thread stack
    /// size in bytes for every shard (see
    /// [`Sim::with_engine_and_stack`]) — the knob that keeps 100k-host
    /// populations' address-space reservation bounded.
    pub fn with_engine_and_stack(
        shards: usize,
        lookahead: Dur,
        engine: EngineKind,
        stack_bytes: usize,
    ) -> ShardedSim {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards == 1 || lookahead.as_ps() > 0,
            "multi-shard runs need a positive lookahead window"
        );
        let sims = (0..shards)
            .map(|_| Sim::with_engine_and_stack(engine, stack_bytes))
            .collect();
        let inboxes = (0..shards)
            .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let traces = (0..shards)
            .map(|_| {
                Arc::new(TraceCell {
                    recorded: Mutex::new(Vec::new()),
                })
            })
            .collect();
        ShardedSim {
            sims,
            shared: Arc::new(Shared {
                inboxes,
                traces,
                window_end_ps: AtomicU64::new(0),
                merged_hash: AtomicU64::new(FNV_OFFSET),
                merged_events: AtomicU64::new(0),
                windows: AtomicU64::new(0),
            }),
            window_ps: lookahead.as_ps(),
        }
    }

    /// A one-shard harness: same API, sequential execution, zero window
    /// machinery. Used to pin that the shard seam is transparent (golden
    /// trace, chaos recovery) before any parallelism is involved.
    pub fn single() -> ShardedSim {
        ShardedSim::new(1, Dur::ZERO)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sims.len()
    }

    /// The window width (= lookahead bound), in virtual time.
    pub fn lookahead(&self) -> Dur {
        Dur::from_ps(self.window_ps)
    }

    /// The `i`-th shard's kernel. Green threads, NCS worlds, and MTS
    /// scheduler instances for hosts owned by shard `i` are built on this.
    pub fn shard(&self, i: usize) -> &Sim {
        &self.sims[i]
    }

    /// Schedules a workload event on shard `dst` at virtual instant `at`,
    /// with partition-independent tie-break `stamp` (see
    /// [`Sim::schedule_keyed`]; stamps must be unique per instant and below
    /// [`Sim::KEYED_SEQ_BIT`]).
    ///
    /// `src` is the shard posting the event. Same-shard posts go straight
    /// into the destination wheel. Cross-shard posts are parked in the
    /// `(src, dst)` inbox and merged at the next window barrier — which is
    /// sound only if `at` lies at or beyond the end of the window currently
    /// executing. That is exactly the conservative-lookahead contract, and
    /// this method asserts it: a workload whose cross-shard latency can
    /// undercut the configured lookahead is a modelling bug, not a race.
    pub fn post(&self, src: usize, dst: usize, at: SimTime, stamp: u64, f: impl FnOnce(&Sim) + Send + 'static) {
        let cell = Arc::clone(&self.shared.traces[dst]);
        let wrapped = move |sim: &Sim| {
            cell.recorded.lock().push((sim.now().as_ps(), stamp));
            f(sim)
        };
        if src == dst {
            self.sims[dst].schedule_keyed(at, stamp, wrapped);
            return;
        }
        let window_end = self.shared.window_end_ps.load(Ordering::SeqCst);
        assert!(
            at.as_ps() >= window_end,
            "conservative lookahead violated: shard {src} posted a cross-shard event \
             to shard {dst} at {at}, inside the executing window (end {window_end} ps) \
             — the workload's cross-shard latency undercuts the configured lookahead"
        );
        self.shared.inboxes[dst][src].lock().push(RemoteEvent {
            at_ps: at.as_ps(),
            stamp,
            f: Box::new(wrapped),
        });
    }

    /// Partition-independent digest of the merged workload event stream
    /// executed so far (FNV-1a over `(time, stamp)` pairs in global
    /// `(time, stamp)` order). Equal across shard counts for the same
    /// seeded workload; [`crate::FNV_OFFSET`] when nothing was posted.
    pub fn merged_trace_hash(&self) -> u64 {
        self.shared.merged_hash.load(Ordering::SeqCst)
    }

    /// Reaps every shard's green threads (see [`Sim::finish`]).
    pub fn finish(&self) {
        for sim in &self.sims {
            sim.finish();
        }
    }

    /// Drains every `(src, dst)` inbox into the destination wheels. Runs
    /// only at window barriers (and once before the first window), when no
    /// worker is executing. Insertion order is irrelevant for event order —
    /// the wheel sorts by `(time, stamp)` — but the batch is sorted anyway
    /// so the wheel's internal slab layout is deterministic too.
    fn merge_inboxes(&self) {
        for (dst, sim) in self.sims.iter().enumerate() {
            let mut batch: Vec<RemoteEvent> = Vec::new();
            for pair in &self.shared.inboxes[dst] {
                batch.append(&mut pair.lock());
            }
            if batch.is_empty() {
                continue;
            }
            batch.sort_unstable_by_key(|ev| (ev.at_ps, ev.stamp));
            for ev in batch {
                let f = ev.f;
                sim.schedule_keyed(SimTime::from_ps(ev.at_ps), ev.stamp, move |s| f(s));
            }
        }
    }

    /// Drains the per-shard execution records, k-way-merges them into
    /// global `(time, stamp)` order, and folds them into the digest.
    /// Windows never overlap in virtual time (every recorded event of
    /// window `k` precedes every event of window `k+1`), so folding
    /// window-by-window equals folding one globally merged stream.
    fn fold_window_traces(&self) {
        let streams: Vec<Vec<(u64, u64)>> = self
            .shared
            .traces
            .iter()
            .map(|cell| {
                let mut s = std::mem::take(&mut *cell.recorded.lock());
                // Canonical runs record in ascending (time, stamp) already;
                // a schedule-exploration policy may permute same-instant
                // ties, so normalize — the digest describes the executed
                // event *set* in canonical order, making it invariant
                // across explored schedules too.
                s.sort_unstable();
                s
            })
            .collect();
        let merged = merge_streams(streams);
        if merged.is_empty() {
            return;
        }
        let mut h = self.shared.merged_hash.load(Ordering::SeqCst);
        for &(t, stamp) in &merged {
            h = fnv1a_fold(h, t);
            h = fnv1a_fold(h, stamp);
        }
        self.shared.merged_hash.store(h, Ordering::SeqCst);
        self.shared
            .merged_events
            .fetch_add(merged.len() as u64, Ordering::SeqCst);
    }

    /// Runs the sharded simulation to completion and returns the combined
    /// outcome.
    ///
    /// With one shard this is a plain sequential [`Sim::run`]. With `S > 1`
    /// it spawns `S` worker threads (`ncs-shard-<i>`) and a coordinator
    /// loop: each iteration picks the next window start (the minimum
    /// pending event time across shards — idle stretches are skipped, not
    /// stepped), releases the workers to execute `[W, W+Δ)` concurrently,
    /// then at the barrier merges inboxes and folds the window's execution
    /// records. Terminates when every wheel is empty after a merge.
    pub fn run(&self) -> ShardedRunOutcome {
        const STOP: u64 = u64::MAX;
        let n = self.sims.len();
        // Route anything posted cross-shard during setup.
        self.merge_inboxes();
        if n == 1 {
            let out = self.sims[0].run();
            self.fold_window_traces();
            return self.outcome(vec![out]);
        }

        let barrier = Barrier::new(n + 1);
        let go = AtomicU64::new(0);
        let aborted = AtomicBool::new(false);
        let worker_panics: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let outcomes: Vec<Mutex<Option<RunOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for (i, sim) in self.sims.iter().enumerate() {
                let barrier = &barrier;
                let go = &go;
                let aborted = &aborted;
                let worker_panics = &worker_panics;
                let outcomes = &outcomes;
                std::thread::Builder::new()
                    .name(format!("ncs-shard-{i}"))
                    .spawn_scoped(scope, move || loop {
                        barrier.wait();
                        let end = go.load(Ordering::SeqCst);
                        if end == STOP {
                            break;
                        }
                        // The window is [start, end): run everything strictly
                        // before `end`. A worker panic (kernel assert, lookahead
                        // violation raised inside an event) must not strand the
                        // other workers at the barrier, so it is caught and
                        // turned into a coordinated stop.
                        let res = catch_unwind(AssertUnwindSafe(|| {
                            sim.run_until(SimTime::from_ps(end - 1))
                        }));
                        match res {
                            // Accumulate across windows: event counts add up,
                            // while end state (time, stop reason, blocked
                            // threads) is whatever the latest window left.
                            Ok(out) => {
                                let mut slot = outcomes[i].lock();
                                match &mut *slot {
                                    Some(acc) => {
                                        acc.events += out.events;
                                        acc.end_time = out.end_time;
                                        acc.reason = out.reason;
                                        acc.blocked = out.blocked;
                                        acc.panics.extend(out.panics);
                                    }
                                    None => *slot = Some(out),
                                }
                            }
                            Err(payload) => {
                                let msg = payload
                                    .downcast_ref::<String>()
                                    .cloned()
                                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                                    .unwrap_or_else(|| "non-string panic payload".to_string());
                                worker_panics.lock().push(format!("shard {i}: {msg}"));
                                aborted.store(true, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                    })
                    .expect("spawn shard worker thread");
            }

            loop {
                let next = self
                    .sims
                    .iter()
                    .filter_map(|s| s.next_event_time())
                    .map(|t| t.as_ps())
                    .min();
                let Some(start) = next else {
                    go.store(STOP, Ordering::SeqCst);
                    barrier.wait();
                    break;
                };
                let end = start.saturating_add(self.window_ps).min(STOP - 1);
                self.shared.window_end_ps.store(end, Ordering::SeqCst);
                go.store(end, Ordering::SeqCst);
                self.shared.windows.fetch_add(1, Ordering::Relaxed);
                barrier.wait(); // release the workers into the window
                barrier.wait(); // all workers done with the window
                if aborted.load(Ordering::SeqCst) {
                    go.store(STOP, Ordering::SeqCst);
                    barrier.wait();
                    break;
                }
                self.fold_window_traces();
                self.merge_inboxes();
            }
        });

        let panics = std::mem::take(&mut *worker_panics.lock());
        assert!(panics.is_empty(), "shard workers panicked: {panics:?}");

        let per_shard: Vec<RunOutcome> = outcomes
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                // A shard with no events at all never entered a window;
                // running its (empty) kernel yields the Completed outcome
                // with the blocked-thread list computed.
                slot.lock().take().unwrap_or_else(|| self.sims[i].run())
            })
            .collect();
        self.outcome(per_shard)
    }

    fn outcome(&self, per_shard: Vec<RunOutcome>) -> ShardedRunOutcome {
        ShardedRunOutcome {
            events: per_shard.iter().map(|o| o.events).sum(),
            end_time: per_shard
                .iter()
                .map(|o| o.end_time)
                .max()
                .unwrap_or(SimTime::from_ps(0)),
            windows: self.shared.windows.load(Ordering::SeqCst),
            merged_events: self.shared.merged_events.load(Ordering::SeqCst),
            merged_trace_hash: self.shared.merged_hash.load(Ordering::SeqCst),
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_streams_is_global_sort_order() {
        let merged = merge_streams(vec![
            vec![(10, 2), (10, 7), (30, 1)],
            vec![(10, 3), (20, 0)],
            vec![],
            vec![(5, 9), (30, 0)],
        ]);
        assert_eq!(
            merged,
            vec![(5, 9), (10, 2), (10, 3), (10, 7), (20, 0), (30, 0), (30, 1)]
        );
    }

    #[test]
    fn single_shard_posts_execute_in_stamp_order() {
        let sharded = ShardedSim::single();
        let order = Arc::new(Mutex::new(Vec::new()));
        for stamp in [3u64, 1, 2] {
            let order = Arc::clone(&order);
            sharded.post(0, 0, SimTime::from_ps(100), stamp, move |_| {
                order.lock().push(stamp);
            });
        }
        let out = sharded.run();
        out.assert_clean();
        assert_eq!(out.merged_events, 3);
        assert_eq!(*order.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn two_shard_ping_pong_matches_single_shard_digest() {
        // The same keyed workload executed on 1 and 2 shards must produce
        // the same merged digest: deliveries every `lat` ps, bouncing
        // between two "hosts" that live on different shards when S = 2.
        fn build(shards: usize) -> u64 {
            let lat = 1_000u64;
            let sharded = Arc::new(ShardedSim::new(shards, Dur::from_ps(lat)));
            let hops = 16u64;
            fn hop(sharded: &Arc<ShardedSim>, shards: usize, k: u64, hops: u64, lat: u64) {
                if k >= hops {
                    return;
                }
                let dst = (k % 2) as usize % shards;
                let src = ((k + 1) % 2) as usize % shards;
                let at = SimTime::from_ps(k * lat);
                let weak = Arc::downgrade(sharded);
                let shards_ = shards;
                sharded.post(src, dst, at, k, move |_| {
                    if let Some(s) = weak.upgrade() {
                        hop(&s, shards_, k + 1, hops, lat);
                    }
                });
            }
            hop(&sharded, shards, 0, hops, lat);
            let out = sharded.run();
            out.assert_clean();
            assert_eq!(out.merged_events, hops);
            out.merged_trace_hash
        }
        assert_eq!(build(1), build(2));
    }
}
