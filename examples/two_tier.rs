//! The two-tier NSM/HSM architecture (paper Figure 6) plus the
//! message-passing filters: one process carries both a TCP/IP tier
//! (interoperable Normal Speed Mode) and an ATM-API tier (High Speed
//! Mode) over the same ATM LAN, picks per message, and ports p4-, PVM-
//! and MPI-style code through the filters unchanged.
//!
//! ```text
//! cargo run --release --example two_tier
//! ```

use bytes::Bytes;
use ncs::core::filters::{
    MpiFilter, P4Filter, PvmFilter, PvmPackBuf, PvmUnpackBuf, ANY_SOURCE, ANY_TAG,
};
use ncs::core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs::net::Testbed;
use ncs::sim::{Dur, Sim, SimTime};
use ncs_sim::sync::Mutex;
use std::sync::Arc;

const HSM: usize = 0;
const NSM: usize = 1;

fn main() {
    let sim = Sim::new();
    let hsm = Testbed::SunAtmLanApi.build(2);
    let nsm = Testbed::SunAtmLanTcp.build(2);
    println!("tier {HSM} (HSM): {}", hsm.description());
    println!("tier {NSM} (NSM): {}\n", nsm.description());

    let latencies: Arc<Mutex<Vec<(String, Dur)>>> = Arc::new(Mutex::new(Vec::new()));
    let lat2 = Arc::clone(&latencies);

    NcsWorld::launch(
        &sim,
        vec![hsm, nsm],
        2,
        NcsConfig::default(),
        move |id, proc_| {
            let lat = Arc::clone(&lat2);
            proc_.t_create("main", 5, move |ncs| {
                let payload = Bytes::from(vec![7u8; 32 * 1024]);
                if id == 0 {
                    // Same 32 KB message, once per tier.
                    ncs.send_via(HSM, ThreadAddr::new(1, 0), 1, payload.clone());
                    ncs.send_via(NSM, ThreadAddr::new(1, 0), 2, payload.clone());
                    // Then show the filters: p4-style and MPI-style code ported
                    // onto NCS without change.
                    let p4 = P4Filter::new(ncs);
                    p4.send(100, 1, Bytes::from_static(b"ported p4 code"));
                    let mpi = MpiFilter::new(ncs);
                    let sum = mpi.bcast(0, Some(Bytes::from_static(b"mpi bcast")));
                    assert_eq!(&sum[..], b"mpi bcast");
                    mpi.barrier();
                    p4.broadcast(101, Bytes::from_static(b"p4 broadcast"));
                    // PVM-style: typed values packed into one payload, then a
                    // multicast to a task list (the caller is left out).
                    let pvm = PvmFilter::new(ncs);
                    let mut buf = PvmPackBuf::new();
                    buf.pk_int(-7)
                        .pk_double(2.5)
                        .pk_doubles(&[1.0, -2.0, 3.5])
                        .pk_str("ported pvm code");
                    pvm.send(1, 200, buf.into_bytes());
                    pvm.mcast(&[0, 1], 201, Bytes::from_static(b"pvm mcast"));
                    // MPI point to point, received with both wildcards: the
                    // last message, so nothing else can match.
                    mpi.send(1, 300, Bytes::from_static(b"mpi send"));
                } else {
                    let t0 = SimTime::ZERO;
                    let a = ncs.recv(Some(0), None, Some(1));
                    lat.lock()
                        .push(("HSM (ATM API)".into(), ncs.ctx().now().since(t0)));
                    let b = ncs.recv(Some(0), None, Some(2));
                    lat.lock()
                        .push(("NSM (TCP/IP) ".into(), ncs.ctx().now().since(t0)));
                    assert_eq!(a.data.len(), 32 * 1024);
                    assert_eq!(b.data.len(), 32 * 1024);
                    let p4 = P4Filter::new(ncs);
                    let (t, from, d) = p4.recv(Some(100), Some(0));
                    assert_eq!((t, from), (100, 0));
                    assert_eq!(&d[..], b"ported p4 code");
                    let mpi = MpiFilter::new(ncs);
                    let got = mpi.bcast(0, None);
                    assert_eq!(&got[..], b"mpi bcast");
                    mpi.barrier();
                    let (t, from, d) = p4.recv(Some(101), Some(0));
                    assert_eq!((t, from, &d[..]), (101, 0, &b"p4 broadcast"[..]));
                    let pvm = PvmFilter::new(ncs);
                    let (tid, tag, packed) = pvm.recv(Some(0), Some(200));
                    assert_eq!((tid, tag), (0, 200));
                    let mut u = PvmUnpackBuf::new(packed);
                    assert_eq!(u.upk_int(), -7);
                    assert_eq!(u.upk_double(), 2.5);
                    assert_eq!(u.upk_doubles(), [1.0, -2.0, 3.5]);
                    assert_eq!(u.upk_str(), "ported pvm code");
                    let (tid, tag, d) = pvm.recv(Some(0), Some(201));
                    assert_eq!((tid, tag, &d[..]), (0, 201, &b"pvm mcast"[..]));
                    let (src, tag, d) = mpi.recv(ANY_SOURCE, ANY_TAG);
                    assert_eq!((src, tag, &d[..]), (0, 300, &b"mpi send"[..]));
                }
            });
        },
    );
    sim.run().assert_clean();

    println!("32 KB delivery timestamps at the receiver:");
    for (label, at) in latencies.lock().iter() {
        println!("  {label}: delivered by t = {at}");
    }
    println!("\nfilters exercised: P4Filter (p4-style), PvmFilter with its pack");
    println!("buffers (PVM-style), MpiFilter (MPI-style), all running over the");
    println!("NCS system threads unchanged");
}
