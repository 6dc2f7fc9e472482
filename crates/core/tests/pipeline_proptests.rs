//! Property test of the pipelined (Approach-2) data path: for arbitrary
//! payload sizes up to 200 KiB — far past the old 64 KiB AAL5 panic — a
//! chunked transfer through the I/O-buffer pool delivers bytes identical
//! to a monolithic one.

use bytes::Bytes;
use ncs_core::{ErrorControl, FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{HostParams, IdealFabric, Network, TcpNet, TcpParams};
use ncs_sim::prop;
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimRng};
use std::sync::Arc;

/// Sends `payload` from proc 0 to proc 1 with the given I/O-buffer
/// geometry; returns the bytes the receiving thread saw.
fn transfer(payload: &[u8], io_buffers: u32, io_buffer_bytes: usize) -> Vec<u8> {
    let sim = Sim::new();
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
                ncs.send(ThreadAddr::new(1, 0), 1, sent.clone());
            } else {
                let m = ncs.recv(Some(0), None, Some(1));
                *got.lock() = m.data.to_vec();
            }
        });
    });
    sim.run().assert_clean();
    let out = got.lock().clone();
    out
}

#[test]
fn chunked_matches_monolithic() {
    prop::check("chunked_matches_monolithic", 12, |g| {
        let len = g.range(0..=200_000);
        let seed = g.range(0..1000);
        let buffers = g.range(1..=8) as u32;
        let mut rng = SimRng::new(seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let chunked = transfer(&payload, buffers, 16 * 1024);
        assert_eq!(&chunked[..], &payload[..], "chunked transfer mangled bytes");
        let monolithic = transfer(&payload, buffers, usize::MAX);
        assert_eq!(&monolithic[..], &chunked[..], "paths disagree");
    });
}
