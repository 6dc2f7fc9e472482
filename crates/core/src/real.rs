//! A real (non-simulated) NCS runtime over TCP sockets.
//!
//! Everything else in this workspace runs on virtual time to reproduce the
//! paper's 1995 measurements. This module is the part you can use today:
//! the same `(thread, process)` addressing, tagged sends, wildcard
//! receives, broadcast and barrier — over `std::net` TCP and OS threads,
//! suitable for localhost or LAN deployments.
//!
//! Mapping to the paper: OS threads play the MTS compute threads (a modern
//! kernel schedules them preemptively, giving the computation/
//! communication overlap NCS built user-level machinery for); one reader
//! thread per peer plays the receive system thread; senders write framed
//! messages directly (the kernel socket buffer plays the send thread).
//!
//! ```no_run
//! use ncs_core::real::RealNcs;
//! use ncs_core::ThreadAddr;
//! use std::time::Duration;
//!
//! // Process 0 of 2 (process 1 runs the mirror image elsewhere):
//! let addrs = ["127.0.0.1:7401".parse().unwrap(), "127.0.0.1:7402".parse().unwrap()];
//! let ncs = RealNcs::connect_timeout(0, &addrs, Duration::from_secs(30)).unwrap();
//! ncs.send(0, ThreadAddr::new(1, 0), 7, b"hello").unwrap();
//! let reply = ncs.recv(Some(1), None, None).unwrap();
//! assert_eq!(reply.tag, 8);
//! ```

use ncs_sim::sync::{self, Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::addr::{decode_tag, encode_tag, MsgClass, ThreadAddr};

/// Errors from the real-TCP backend, separating transport failures from
/// protocol violations so callers can react (retry, drop a peer, abort)
/// instead of unwinding on an `unwrap`.
#[derive(Debug)]
pub enum RealError {
    /// An underlying socket operation failed.
    Io(io::Error),
    /// Dialing a peer did not succeed within the mesh-formation timeout.
    DialTimedOut {
        /// Rank that could not be reached.
        peer: usize,
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The last connect error observed.
        last: io::Error,
    },
    /// The higher ranks did not all dial in and announce themselves
    /// within the mesh-formation timeout.
    AcceptTimedOut {
        /// Higher ranks this process waits for.
        expected: usize,
        /// How many of them had connected and announced by the deadline.
        accepted: usize,
    },
    /// A peer violated the mesh handshake (bad or duplicate rank
    /// announcement).
    Handshake(String),
    /// No connection to the addressed peer exists (it was never part of
    /// the mesh, or its rank is out of range).
    NotConnected {
        /// The unreachable rank.
        peer: usize,
    },
    /// Every peer has disconnected while no matching message is buffered.
    AllPeersDisconnected,
}

impl std::fmt::Display for RealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealError::Io(e) => write!(f, "I/O error: {e}"),
            RealError::DialTimedOut {
                peer,
                attempts,
                last,
            } => write!(
                f,
                "timed out dialing rank {peer} after {attempts} attempts: {last}"
            ),
            RealError::AcceptTimedOut { expected, accepted } => {
                write!(f, "accept timed out: {accepted} of {expected} ranks")
            }
            RealError::Handshake(msg) => write!(f, "mesh handshake violation: {msg}"),
            RealError::NotConnected { peer } => write!(f, "no connection to rank {peer}"),
            RealError::AllPeersDisconnected => write!(f, "all peers disconnected"),
        }
    }
}

impl std::error::Error for RealError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RealError::Io(e) | RealError::DialTimedOut { last: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RealError {
    fn from(e: io::Error) -> RealError {
        RealError::Io(e)
    }
}

/// Result type of the real-TCP backend.
pub(crate) type RealResult<T> = Result<T, RealError>;

/// First delay between connect attempts while the mesh forms; doubles per
/// failure up to [`DIAL_BACKOFF_MAX`].
const DIAL_BACKOFF_START: Duration = Duration::from_millis(10);
/// Ceiling for the connect-retry backoff.
const DIAL_BACKOFF_MAX: Duration = Duration::from_millis(500);
/// How often the non-blocking listener is polled while the mesh forms.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// A received message.
#[derive(Clone, Debug)]
pub struct RealMsg {
    /// Sending endpoint.
    pub(crate) from: ThreadAddr,
    /// Destination thread id the sender addressed.
    pub(crate) to_thread: u32,
    /// User tag.
    pub tag: u32,
    /// Payload.
    pub data: Vec<u8>,
}

struct Shared {
    stash: Mutex<SharedState>,
    cv: Condvar,
}

struct SharedState {
    msgs: VecDeque<RealMsg>,
    /// Peers whose reader thread has terminated (EOF or error).
    dead_peers: usize,
    n_peers: usize,
}

/// One process endpoint of a real NCS deployment.
pub struct RealNcs {
    id: usize,
    n: usize,
    writers: Vec<Option<Mutex<TcpStream>>>,
    shared: Arc<Shared>,
    readers: Vec<std::thread::JoinHandle<()>>,
}

const FRAME_MAGIC: u32 = 0x4E43_5331; // "NCS1"
/// Refuse frames beyond this size (corrupt stream guard).
pub(crate) const MAX_FRAME: usize = 256 * 1024 * 1024;

impl RealNcs {
    /// Establishes the full mesh for process `id` of `addrs.len()`:
    /// listens on `addrs[id]`, connects to every lower rank, accepts from
    /// every higher rank. All processes must call this with the same
    /// address list; the call returns once the mesh is complete, or fails
    /// once `timeout` has passed.
    ///
    /// Dial attempts toward not-yet-listening peers are retried with
    /// exponential backoff (starting at 10 ms, capped at 500 ms) until the
    /// timeout elapses, then fail with [`RealError::DialTimedOut`]; higher
    /// ranks that have not connected and announced themselves by then fail
    /// it with [`RealError::AcceptTimedOut`].
    pub fn connect_timeout(
        id: usize,
        addrs: &[SocketAddr],
        timeout: Duration,
    ) -> RealResult<RealNcs> {
        Self::connect_on(TcpListener::bind(addrs[id])?, id, addrs, timeout)
    }

    /// [`RealNcs::connect_timeout`] on an already-bound `listener` for
    /// `addrs[id]`.
    fn connect_on(
        listener: TcpListener,
        id: usize,
        addrs: &[SocketAddr],
        timeout: Duration,
    ) -> RealResult<RealNcs> {
        let n = addrs.len();
        assert!(id < n, "rank out of range");
        let deadline = Instant::now() + timeout;
        // Time left before the deadline; never zero, which sockets reject.
        let left = || ACCEPT_POLL.max(deadline.saturating_duration_since(Instant::now()));
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();

        // Deterministic mesh: dial lower ranks (retrying until they are
        // up), accept higher ranks. Each dialer announces its rank.
        for peer in 0..id {
            let mut backoff = DIAL_BACKOFF_START;
            let mut attempts = 0u32;
            let stream = loop {
                attempts += 1;
                match TcpStream::connect_timeout(&addrs[peer], left()) {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() > deadline {
                            return Err(RealError::DialTimedOut {
                                peer,
                                attempts,
                                last: e,
                            });
                        }
                        std::thread::sleep(backoff.min(left()));
                        backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
                    }
                }
            };
            stream.set_nodelay(true)?;
            let mut s = stream;
            s.write_all(&(id as u32).to_le_bytes())?;
            streams[peer] = Some(s);
        }
        // Accept higher ranks until the deadline: the listener is polled,
        // and each announcement read gets only the time left.
        listener.set_nonblocking(true)?;
        let expected = n - 1 - id;
        for accepted in 0..expected {
            let timed_out = RealError::AcceptTimedOut { expected, accepted };
            let mut s = loop {
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() != ErrorKind::WouldBlock => return Err(e.into()),
                    Err(_) if Instant::now() >= deadline => return Err(timed_out),
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            };
            s.set_nonblocking(false)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(left()))?;
            let mut rank_buf = [0u8; 4];
            if let Err(e) = s.read_exact(&mut rank_buf) {
                let late = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
                return Err(if late { timed_out } else { e.into() });
            }
            s.set_read_timeout(None)?;
            let peer = u32::from_le_bytes(rank_buf) as usize;
            if peer <= id || peer >= n || streams[peer].is_some() {
                return Err(RealError::Handshake(format!(
                    "unexpected rank announcement {peer}"
                )));
            }
            streams[peer] = Some(s);
        }

        let shared = Arc::new(Shared {
            stash: Mutex::new(SharedState {
                msgs: VecDeque::new(),
                dead_peers: 0,
                n_peers: n - 1,
            }),
            cv: Condvar::new(),
        });
        let mut writers: Vec<Option<Mutex<TcpStream>>> = (0..n).map(|_| None).collect();
        let mut readers = Vec::new();
        for (peer, s) in streams.into_iter().enumerate() {
            let Some(stream) = s else { continue };
            let reader = stream.try_clone()?;
            writers[peer] = Some(Mutex::new(stream));
            let shared2 = Arc::clone(&shared);
            readers.push(
                std::thread::Builder::new()
                    .name(format!("ncs-real-rx-{id}-from-{peer}"))
                    .spawn(move || reader_loop(reader, peer, shared2))?,
            );
        }
        Ok(RealNcs {
            id,
            n,
            writers,
            shared,
            readers,
        })
    }

    /// Number of processes in the mesh.
    pub fn num_procs(&self) -> usize {
        self.n
    }

    /// Sends `data` from local thread `from_thread` to endpoint `to`.
    /// Thread-safe: concurrent senders serialize per destination socket.
    pub fn send(&self, from_thread: u32, to: ThreadAddr, tag: u32, data: &[u8]) -> RealResult<()> {
        self.send_class(MsgClass::Data, from_thread, to, tag, data)
    }

    fn send_class(
        &self,
        class: MsgClass,
        from_thread: u32,
        to: ThreadAddr,
        tag: u32,
        data: &[u8],
    ) -> RealResult<()> {
        if to.proc >= self.n {
            return Err(RealError::NotConnected { peer: to.proc });
        }
        if to.proc == self.id {
            // Local delivery (threads share the address space).
            let mut st = self.shared.stash.lock();
            st.msgs.push_back(RealMsg {
                from: ThreadAddr::new(self.id, from_thread),
                to_thread: to.thread,
                tag,
                data: data.to_vec(),
            });
            self.shared.cv.notify_all();
            return Ok(());
        }
        let writer = self.writers[to.proc]
            .as_ref()
            .ok_or(RealError::NotConnected { peer: to.proc })?;
        let wire_tag = encode_tag(class, from_thread, to.thread, tag);
        let mut w = writer.lock();
        w.write_all(&FRAME_MAGIC.to_le_bytes())?;
        w.write_all(&(data.len() as u32).to_le_bytes())?;
        w.write_all(&wire_tag.to_le_bytes())?;
        w.write_all(&(self.id as u32).to_le_bytes())?;
        w.write_all(data)?;
        Ok(())
    }

    /// Receives the oldest message matching the filters, blocking the
    /// calling OS thread. Returns an error if every peer disconnected
    /// while no matching message is buffered.
    pub fn recv(
        &self,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
    ) -> RealResult<RealMsg> {
        self.recv_to(None, from_proc, from_thread, tag)
    }

    /// Like [`RealNcs::recv`] but also filtering on the addressed local
    /// thread id (`to_thread`), for multithreaded receivers.
    pub(crate) fn recv_to(
        &self,
        to_thread: Option<u32>,
        from_proc: Option<usize>,
        from_thread: Option<u32>,
        tag: Option<u32>,
    ) -> RealResult<RealMsg> {
        let mut st = self.shared.stash.lock();
        loop {
            let pos = st.msgs.iter().position(|m| {
                to_thread.is_none_or(|t| t == m.to_thread)
                    && from_proc.is_none_or(|p| p == m.from.proc)
                    && from_thread.is_none_or(|t| t == m.from.thread)
                    && tag.is_none_or(|t| t == m.tag)
            });
            if let Some(pos) = pos {
                return Ok(st.msgs.remove(pos).expect("position just found"));
            }
            if st.dead_peers == st.n_peers {
                return Err(RealError::AllPeersDisconnected);
            }
            st = sync::wait(&self.shared.cv, st);
        }
    }

    /// Sends to every other process's thread 0.
    pub(crate) fn bcast(&self, from_thread: u32, tag: u32, data: &[u8]) -> RealResult<()> {
        for p in 0..self.n {
            if p != self.id {
                self.send(from_thread, ThreadAddr::new(p, 0), tag, data)?;
            }
        }
        Ok(())
    }

    /// Global barrier over all processes (rank 0 collects and releases).
    pub fn barrier(&self) -> RealResult<()> {
        const TAG_ARRIVE: u32 = u32::MAX - 1;
        const TAG_GO: u32 = u32::MAX;
        if self.n == 1 {
            return Ok(());
        }
        if self.id == 0 {
            for _ in 1..self.n {
                self.recv(None, None, Some(TAG_ARRIVE))?;
            }
            self.bcast(0, TAG_GO, &[])?;
        } else {
            self.send(0, ThreadAddr::new(0, 0), TAG_ARRIVE, &[])?;
            self.recv(Some(0), None, Some(TAG_GO))?;
        }
        Ok(())
    }

    /// Closes all connections; reader threads terminate on EOF.
    pub fn shutdown(mut self) {
        for w in self.writers.iter().flatten() {
            let _ = w.lock().shutdown(std::net::Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

fn reader_loop(mut stream: TcpStream, peer: usize, shared: Arc<Shared>) {
    let result = (|| -> io::Result<()> {
        loop {
            let mut header = [0u8; 4 + 4 + 8 + 4];
            if let Err(e) = stream.read_exact(&mut header) {
                return if e.kind() == io::ErrorKind::UnexpectedEof {
                    Ok(()) // orderly shutdown
                } else {
                    Err(e)
                };
            }
            let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
            if magic != FRAME_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad frame magic",
                ));
            }
            let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
            if len > MAX_FRAME {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "oversized frame",
                ));
            }
            let wire_tag = u64::from_le_bytes(header[8..16].try_into().unwrap());
            let from_proc = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
            if from_proc != peer {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "rank mismatch"));
            }
            let mut data = vec![0u8; len];
            stream.read_exact(&mut data)?;
            let (_class, from_thread, to_thread, tag) = decode_tag(wire_tag);
            let mut st = shared.stash.lock();
            st.msgs.push_back(RealMsg {
                from: ThreadAddr::new(from_proc, from_thread),
                to_thread,
                tag,
                data,
            });
            shared.cv.notify_all();
        }
    })();
    let mut st = shared.stash.lock();
    st.dead_peers += 1;
    shared.cv.notify_all();
    if let Err(e) = result {
        eprintln!("ncs-real: reader for peer {peer} failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};

    /// `n` loopback listeners on port 0 — held, so no port is released
    /// between bind and use — and their addresses.
    fn listeners(n: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
        let bind = |_| TcpListener::bind("127.0.0.1:0").unwrap();
        let ls: Vec<_> = (0..n).map(bind).collect();
        let addrs = ls.iter().map(|l| l.local_addr().unwrap()).collect();
        (ls, addrs)
    }

    /// An `n`-process mesh formed over [`listeners`].
    pub(super) fn mesh(n: usize) -> Vec<RealNcs> {
        let (ls, addrs) = listeners(n);
        let timeout = Duration::from_secs(10);
        let mut joins = Vec::new();
        for (id, l) in ls.into_iter().enumerate() {
            let addrs = addrs.clone();
            let form = move || RealNcs::connect_on(l, id, &addrs, timeout).unwrap();
            joins.push(std::thread::spawn(form));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    /// Runs a test body on its own thread and fails the test if it is still
    /// running after 30 s, instead of hanging the suite.
    pub(super) fn watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let run = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(30)) {
            panic!("real-socket test still running after 30 s");
        }
        if let Err(panic) = run.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// `#[test]`s whose bodies run under [`watchdog`].
    macro_rules! real_tests {
        ($(fn $name:ident() $body:block)*) => {
            $(#[test] fn $name() { watchdog(move || $body) })*
        };
    }
    pub(super) use real_tests;

    /// Rank 0 of a two-rank mesh with the 200 ms deadline: `Ok` is
    /// impossible, and the error must come within twice the deadline.
    fn rank0_times_out_accepting(l: TcpListener, addrs: &[SocketAddr]) {
        let started = Instant::now();
        let err = RealNcs::connect_on(l, 0, addrs, Duration::from_millis(200)).err();
        let elapsed = started.elapsed();
        let Some(RealError::AcceptTimedOut { expected, accepted }) = &err else {
            panic!("expected AcceptTimedOut, got {err:?}");
        };
        assert_eq!((expected, accepted), (&1, &0));
        assert!(elapsed < Duration::from_millis(400), "{elapsed:?}");
    }

    real_tests! {
        fn two_process_ping_pong() {
            let mut nodes = mesh(2);
            let n1 = nodes.pop().unwrap();
            let n0 = nodes.pop().unwrap();
            let t1 = std::thread::spawn(move || {
                let m = n1.recv(Some(0), None, Some(1)).unwrap();
                assert_eq!(&m.data, b"ping");
                assert_eq!(m.from, ThreadAddr::new(0, 3));
                n1.send(0, ThreadAddr::new(0, 3), 2, b"pong").unwrap();
                n1.shutdown();
            });
            n0.send(3, ThreadAddr::new(1, 0), 1, b"ping").unwrap();
            let m = n0.recv(Some(1), None, Some(2)).unwrap();
            assert_eq!(&m.data, b"pong");
            n0.shutdown();
            t1.join().unwrap();
        }

        fn broadcast_and_barrier_three_ways() {
            let nodes = mesh(3);
            let mut joins = Vec::new();
            for (id, node) in nodes.into_iter().enumerate() {
                joins.push(std::thread::spawn(move || {
                    if id == 0 {
                        node.bcast(0, 42, b"fanout").unwrap();
                    } else {
                        let m = node.recv(Some(0), None, Some(42)).unwrap();
                        assert_eq!(&m.data, b"fanout");
                    }
                    node.barrier().unwrap();
                    node.barrier().unwrap(); // barriers are reusable
                    node.shutdown();
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        }

        fn large_message_integrity() {
            let mut nodes = mesh(2);
            let n1 = nodes.pop().unwrap();
            let n0 = nodes.pop().unwrap();
            let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
            let expect = payload.clone();
            let t = std::thread::spawn(move || {
                let m = n1.recv(Some(0), None, None).unwrap();
                assert_eq!(m.data.len(), expect.len());
                assert_eq!(m.data, expect);
                n1.shutdown();
            });
            n0.send(0, ThreadAddr::new(1, 0), 9, &payload).unwrap();
            n0.shutdown();
            t.join().unwrap();
        }

        fn local_send_between_threads() {
            let mut nodes = mesh(2);
            let n1 = nodes.pop().unwrap();
            let n0 = nodes.pop().unwrap();
            n0.send(0, ThreadAddr::new(0, 1), 5, b"local").unwrap();
            let m = n0.recv_to(Some(1), Some(0), Some(0), Some(5)).unwrap();
            assert_eq!(&m.data, b"local");
            n0.shutdown();
            n1.shutdown();
        }

        fn overlap_compute_and_recv_with_os_threads() {
            // The paper's headline property, for free from the OS scheduler:
            // one thread computes while another blocks in recv.
            let mut nodes = mesh(2);
            let n1 = Arc::new(nodes.pop().unwrap());
            let n0 = nodes.pop().unwrap();
            let n1b = Arc::clone(&n1);
            let receiver = std::thread::spawn(move || {
                let m = n1b.recv(Some(0), None, Some(7)).unwrap();
                assert_eq!(&m.data, b"late");
            });
            let computer = std::thread::spawn(move || {
                // Busy work that must finish long before the late message.
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                }
                acc
            });
            let acc = computer.join().unwrap();
            assert_ne!(acc, 0);
            std::thread::sleep(Duration::from_millis(50));
            n0.send(0, ThreadAddr::new(1, 0), 7, b"late").unwrap();
            receiver.join().unwrap();
            n0.shutdown();
            match Arc::try_unwrap(n1) {
                Ok(n1) => n1.shutdown(),
                Err(_) => panic!("receiver still holds the endpoint"),
            }
        }

        fn dial_timeout_is_typed_and_backed_off() {
            // Nothing can listen on port 0, so rank 1's dial loop retries
            // with backoff until the deadline.
            let (mut ls, mut addrs) = listeners(2);
            addrs[0] = "127.0.0.1:0".parse().unwrap();
            match RealNcs::connect_on(ls.remove(1), 1, &addrs, Duration::from_millis(200)) {
                Err(RealError::DialTimedOut { peer, attempts, .. }) => {
                    assert_eq!(peer, 0);
                    assert!(attempts >= 2, "expected retries, got {attempts}");
                }
                Err(other) => panic!("expected DialTimedOut, got {other}"),
                Ok(_) => panic!("mesh cannot form without rank 0"),
            }
        }

        fn accept_times_out_when_the_peer_never_dials() {
            let (mut ls, addrs) = listeners(2);
            rank0_times_out_accepting(ls.remove(0), &addrs);
        }

        fn accept_times_out_on_a_stranger_that_never_announces() {
            let (mut ls, addrs) = listeners(2);
            let _stranger = TcpStream::connect(addrs[0]).unwrap();
            rank0_times_out_accepting(ls.remove(0), &addrs);
        }

        fn send_to_unknown_rank_is_typed() {
            let mut nodes = mesh(2);
            let n1 = nodes.pop().unwrap();
            let n0 = nodes.pop().unwrap();
            match n0.send(0, ThreadAddr::new(5, 0), 1, b"x") {
                Err(RealError::NotConnected { peer: 5 }) => {}
                other => panic!("expected NotConnected, got {other:?}"),
            }
            n0.shutdown();
            n1.shutdown();
        }

        fn recv_after_all_peers_gone_is_typed() {
            let mut nodes = mesh(2);
            let n1 = nodes.pop().unwrap();
            let n0 = nodes.pop().unwrap();
            n1.shutdown();
            match n0.recv(Some(1), None, None) {
                Err(RealError::AllPeersDisconnected) => {}
                other => panic!("expected AllPeersDisconnected, got {other:?}"),
            }
            n0.shutdown();
        }

        fn wildcard_filters() {
            let mut nodes = mesh(2);
            let n1 = nodes.pop().unwrap();
            let n0 = nodes.pop().unwrap();
            n0.send(0, ThreadAddr::new(1, 0), 10, b"a").unwrap();
            n0.send(1, ThreadAddr::new(1, 0), 20, b"b").unwrap();
            // Tag filter skips the earlier message.
            let m = n1.recv(None, None, Some(20)).unwrap();
            assert_eq!(&m.data, b"b");
            assert_eq!(m.from.thread, 1);
            let m = n1.recv(None, Some(0), None).unwrap();
            assert_eq!(&m.data, b"a");
            n0.shutdown();
            n1.shutdown();
        }
    }
}

#[cfg(test)]
mod stress_tests {
    use super::tests::{mesh, real_tests, watchdog};
    use super::*;

    real_tests! {
        fn five_node_all_to_all_stress() {
            const N: usize = 5;
            const ROUNDS: u32 = 20;
            let mut joins = Vec::new();
            for (id, ncs) in mesh(N).into_iter().enumerate() {
                joins.push(std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        // Everyone sends to everyone, then collects N-1
                        // messages tagged with the round.
                        for peer in 0..N {
                            if peer != id {
                                let body = vec![(id * 41 + round as usize) as u8; 700];
                                ncs.send(0, ThreadAddr::new(peer, 0), round, &body).unwrap();
                            }
                        }
                        for _ in 0..N - 1 {
                            let m = ncs.recv(None, None, Some(round)).unwrap();
                            let want = (m.from.proc * 41 + round as usize) as u8;
                            assert!(m.data.iter().all(|&b| b == want));
                        }
                        ncs.barrier().unwrap();
                    }
                    ncs.shutdown();
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        }

        fn concurrent_senders_share_one_endpoint() {
            let mut nodes = mesh(2);
            let n1 = nodes.pop().unwrap();
            let ncs = Arc::new(nodes.pop().unwrap());
            let t1 = std::thread::spawn(move || {
                // 200 messages from 4 logical threads, FIFO per thread.
                let mut next = [0u32; 4];
                for _ in 0..200 {
                    let m = n1.recv(Some(0), None, None).unwrap();
                    let t = m.from.thread as usize;
                    assert_eq!(m.tag, m.from.thread * 1000 + next[t], "per-thread order");
                    next[t] += 1;
                }
                n1.send(0, ThreadAddr::new(0, 0), 9, b"done").unwrap();
                n1.shutdown();
            });
            // Four OS threads blast through the same socket mesh.
            let mut senders = Vec::new();
            for t in 0..4u32 {
                let ncs = Arc::clone(&ncs);
                senders.push(std::thread::spawn(move || {
                    for i in 0..50u32 {
                        ncs.send(t, ThreadAddr::new(1, 0), t * 1000 + i, &[t as u8; 64]).unwrap();
                    }
                }));
            }
            for s in senders {
                s.join().unwrap();
            }
            let m = ncs.recv(Some(1), None, Some(9)).unwrap();
            assert_eq!(&m.data, b"done");
            match Arc::try_unwrap(ncs) {
                Ok(n) => n.shutdown(),
                Err(_) => panic!("endpoint still shared"),
            }
            t1.join().unwrap();
        }
    }
}
