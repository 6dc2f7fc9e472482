//! Figure 5 as running code: two applications with different QOS needs on
//! the same NCS — a Video-on-Demand stream that wants bounded buffering
//! (credit flow control, CBR-ish pacing) next to a bulk parallel transfer
//! that wants throughput — plus per-frame deadline accounting for the VOD
//! consumer.
//!
//! ```text
//! cargo run --release --example vod_stream
//! ```

use bytes::Bytes;
use ncs::core::{FlowControl, NcsConfig, NcsWorld, ThreadAddr};
use ncs::net::Testbed;
use ncs::sim::{Dur, Sim, SimTime};
use ncs_sim::sync::Mutex;
use std::sync::Arc;

const FRAMES: u32 = 48;
const FRAME_BYTES: usize = 16 * 1024; // a compressed PAL-ish frame
const FRAME_PERIOD: Dur = Dur::from_millis(40); // 25 fps

fn main() {
    let sim = Sim::new();
    let net = Testbed::SunAtmLanApi.build(2); // High Speed Mode tier
    println!("transport: {}\n", net.description());

    // Credit flow control keeps the set-top side's buffering bounded.
    let cfg = NcsConfig {
        flow: FlowControl::Credit { window: 8 },
        ..NcsConfig::default()
    };

    let stats: Arc<Mutex<(u32, u32, Dur)>> = Arc::new(Mutex::new((0, 0, Dur::ZERO)));
    let st2 = Arc::clone(&stats);

    let world = NcsWorld::launch(&sim, vec![net], 2, cfg, move |id, proc_| {
        if id == 0 {
            // The video server: paced frame producer (the "S" thread of
            // Figure 5's VOD application).
            proc_.t_create("vod-server", 4, |ncs| {
                for i in 0..FRAMES {
                    // Absolute-time CBR pacing: frame i goes out at i·T
                    // regardless of how long the previous send blocked.
                    let target = SimTime::ZERO + FRAME_PERIOD.times(u64::from(i) + 1);
                    let now = ncs.ctx().now();
                    if target > now {
                        ncs.mctx().sleep(target.since(now));
                    }
                    ncs.send(
                        ThreadAddr::new(1, 0),
                        i,
                        Bytes::from(vec![0u8; FRAME_BYTES]),
                    );
                }
            });
            // A bulk transfer sharing the same process and wire (the
            // "P/D Appln" of Figure 5).
            proc_.t_create("bulk-sender", 6, |ncs| {
                ncs.send(
                    ThreadAddr::new(1, 1),
                    1000,
                    Bytes::from(vec![1u8; 512 * 1024]),
                );
            });
        } else {
            let st = Arc::clone(&st2);
            proc_.t_create("vod-player", 4, move |ncs| {
                let mut worst = Dur::ZERO;
                let (mut on_time, mut late) = (0u32, 0u32);
                for i in 0..FRAMES {
                    let deadline =
                        SimTime::ZERO + FRAME_PERIOD.times(u64::from(i) + 1) + Dur::from_millis(80);
                    let m = ncs.recv(Some(0), Some(0), Some(i));
                    assert_eq!(m.data.len(), FRAME_BYTES);
                    let now = ncs.ctx().now();
                    if now <= deadline {
                        on_time += 1;
                    } else {
                        late += 1;
                        worst = worst.max(now.since(deadline));
                    }
                    // Decode cost.
                    ncs.compute(200_000, "decode");
                }
                *st.lock() = (on_time, late, worst);
            });
            proc_.t_create("bulk-receiver", 6, |ncs| {
                let m = ncs.recv(Some(0), Some(1), Some(1000));
                assert_eq!(m.data.len(), 512 * 1024);
            });
        }
    });

    let out = sim.run();
    out.assert_clean();
    let (on_time, late, worst) = *stats.lock();
    println!(
        "VOD stream: {FRAMES} frames @ 25 fps, {} KB/frame",
        FRAME_BYTES / 1024
    );
    println!("  on time: {on_time}   late: {late}   worst lateness: {worst}");
    println!(
        "  peak frames buffered at the player: {} (credit window keeps it bounded)",
        world.procs()[1].peak_buffered()
    );
    println!("bulk transfer: 512 KB moved alongside the stream");
    println!("(the few late frames cluster where the bulk transfer monopolizes");
    println!(" the send thread — the jitter QOS-aware scheduling would target)");
    assert!(late <= FRAMES / 6, "too many late frames: {late}");
}
