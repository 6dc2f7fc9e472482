//! Property test of the async-API equivalence contract: `isend` + `wait`
//! and `irecv` + `wait`, redeemed immediately, are observationally
//! identical to blocking `send`/`recv` — same delivered bytes AND the same
//! kernel event trace (byte-identical `trace_hash`) — for arbitrary
//! payloads up to 200 KiB, on both the monolithic and the chunked
//! (multi-I/O-buffer) data paths, on both green-thread engines.

use bytes::Bytes;
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{HostParams, IdealFabric, Network, TcpNet, TcpParams};
use ncs_sim::prop;
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, EngineKind, Sim, SimRng};
use std::sync::Arc;

/// Sends `payload` from proc 0 to proc 1 (blocking or post+wait form) and
/// returns `(trace_hash, received_bytes)`.
fn transfer(
    engine: EngineKind,
    payload: &[u8],
    io_buffers: u32,
    io_buffer_bytes: usize,
    nonblocking: bool,
) -> (u64, Vec<u8>) {
    let sim = Sim::with_engine(engine);
    let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
    let hosts = vec![HostParams::test_fast(); 2];
    let net: Arc<dyn Network> = Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()));
    let cfg = NcsConfig {
        flow: FlowControl::Credit { window: 4 },
        error: ErrorControl::ChecksumRetransmit,
        io_buffers,
        io_buffer_bytes,
        poll_cost: Dur::from_nanos(100),
        ..NcsConfig::default()
    };
    let sent = Bytes::from(payload.to_vec());
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = Arc::clone(&got);
    NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        let sent = sent.clone();
        let got = Arc::clone(&got2);
        proc_.t_create("w", 5, move |ncs| {
            if id == 0 {
                if nonblocking {
                    let h = ncs.isend(ThreadAddr::new(1, 0), 1, sent.clone());
                    assert!(ncs.wait(h).is_none());
                } else {
                    ncs.send(ThreadAddr::new(1, 0), 1, sent.clone());
                }
            } else {
                let m = if nonblocking {
                    let h = ncs.irecv(Some(0), None, Some(1));
                    ncs.wait(h).expect("irecv redeems to the message")
                } else {
                    ncs.recv(Some(0), None, Some(1))
                };
                *got.lock() = m.data.to_vec();
            }
        });
    });
    sim.run().assert_clean();
    let received = got.lock().clone();
    (sim.trace_hash(), received)
}

#[test]
fn post_plus_wait_matches_blocking() {
    prop::check("post_plus_wait_matches_blocking", 8, |g| {
        let len = g.range(0..=200_000);
        let seed = g.range(0..1000);
        let buffers = g.range(1..=8) as u32;
        // Monolithic or chunked data path.
        let io_buffer_bytes = *g.pick(&[usize::MAX, 16 * 1024]);
        let mut rng = SimRng::new(seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        for engine in [EngineKind::Coroutine, EngineKind::OsThread] {
            let (h_block, d_block) = transfer(engine, &payload, buffers, io_buffer_bytes, false);
            let (h_async, d_async) = transfer(engine, &payload, buffers, io_buffer_bytes, true);
            assert_eq!(
                &d_block[..],
                &payload[..],
                "{:?}: blocking transfer mangled bytes",
                engine
            );
            assert_eq!(
                &d_async[..],
                &d_block[..],
                "{:?}: async payload diverged",
                engine
            );
            assert_eq!(
                h_async, h_block,
                "{:?}: isend/irecv+wait trace diverged from blocking",
                engine
            );
        }
    });
}
