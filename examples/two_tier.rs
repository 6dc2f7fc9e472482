//! The two-tier NSM/HSM architecture (paper Figure 6) plus the
//! message-passing filters: one process carries both a TCP/IP tier
//! (interoperable Normal Speed Mode) and an ATM-API tier (High Speed
//! Mode) over the same ATM LAN, picks per message, and ports p4- and
//! MPI-style code through the filters unchanged.
//!
//! ```text
//! cargo run --release --example two_tier
//! ```

use bytes::Bytes;
use ncs::core::filters::{MpiFilter, P4Filter};
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
                }
            });
        },
    );
    sim.run().assert_clean();

    println!("32 KB delivery timestamps at the receiver:");
    for (label, at) in latencies.lock().iter() {
        println!("  {label}: delivered by t = {at}");
    }
    println!("\nfilters exercised: P4Filter (p4-style), MpiFilter (MPI-style),");
    println!("both running over the NCS system threads unchanged");
}
