//! Criterion microbenchmarks of the real (non-simulated) computational
//! kernels and runtime data structures:
//!
//! * ATM data plane: HEC, CRC-32, AAL5 segmentation/reassembly;
//! * MTS scheduler: the X2 ablation — queue operations and full
//!   block/unblock round trips (the paper's single-node threading
//!   overhead);
//! * application kernels: 8×8 DCT, JPEG block codec, FFT, matmul;
//! * the event kernel's schedule/pop path: timer wheel vs the
//!   `BinaryHeap` + boxed-closure design it replaced;
//! * a whole simulated NCS ping-pong (end-to-end simulator throughput).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use bytes::Bytes;
use ncs_apps::fft::{dif_fft_in_place, fft};
use ncs_apps::jpeg::{compress, decompress};
use ncs_apps::matmul::multiply;
use ncs_apps::workloads::{GrayImage, Matrix};
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{aal5, cell, crc, HostParams, IdealFabric, TcpNet, TcpParams};
use ncs_sim::{Dur, Sim, SimRng};

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("atm-crc");
    let data4 = [0x12u8, 0x34, 0x56, 0x78];
    g.throughput(Throughput::Bytes(4));
    g.bench_function("hec", |b| b.iter(|| crc::hec(black_box(&data4))));
    // 4 KiB is the ring workloads' message, 16 KiB one I/O buffer.
    for (label, len) in [("4k", 4096usize), ("16k", 16 * 1024)] {
        let payload = vec![0xA5u8; len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("crc32-aal5-{label}"), |b| {
            b.iter(|| crc::crc32_aal5(black_box(&payload)))
        });
        g.bench_function(format!("crc10-{label}"), |b| {
            b.iter(|| crc::crc10(black_box(&payload)))
        });
    }
    g.finish();
}

fn bench_aal5(c: &mut Criterion) {
    let mut g = c.benchmark_group("aal5");
    let payload = vec![0x3Cu8; 8192];
    g.throughput(Throughput::Bytes(8192));
    g.bench_function("segment-8k", |b| {
        b.iter(|| aal5::segment(black_box(&payload), 1, 42).unwrap())
    });
    let cells = aal5::segment(&payload, 1, 42).unwrap();
    g.bench_function("reassemble-8k", |b| {
        b.iter(|| aal5::reassemble(black_box(&cells)).unwrap())
    });
    g.bench_function("cell-roundtrip", |b| {
        let cell0 = cells[0].clone();
        b.iter(|| {
            let bytes = black_box(&cell0).to_bytes();
            cell::AtmCell::from_bytes(&bytes).unwrap()
        })
    });
    g.finish();
}

fn bench_mts(c: &mut Criterion) {
    let mut g = c.benchmark_group("mts-sched");
    g.sample_size(20);
    // X2: cost of simulated block/unblock round trips, measured in real
    // (wall-clock) time — the simulator's own overhead, complementing the
    // modeled 15 µs virtual context-switch cost.
    g.bench_function("block-unblock-x500", |b| {
        b.iter_batched(
            Sim::new,
            |sim| {
                sim.spawn("main", |ctx| {
                    let mts = ncs_mts::Mts::new(
                        ctx.sim(),
                        "p",
                        ncs_mts::MtsConfig {
                            context_switch: Dur::ZERO,
                            ..Default::default()
                        },
                    );
                    let mts2 = mts.clone();
                    let t1 = mts.spawn("a", 1, move |m| {
                        for _ in 0..500 {
                            m.block();
                        }
                    });
                    mts.spawn("b", 1, move |m| {
                        for _ in 0..500 {
                            mts2.unblock(m.ctx().sim(), t1);
                            m.yield_now();
                        }
                    });
                    mts.start(ctx);
                });
                sim.run().assert_clean();
                sim.finish();
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("app-kernels");
    let mut rng = SimRng::new(1);
    let img = GrayImage::synthetic(64, 64, &mut rng);
    g.throughput(Throughput::Bytes(img.len() as u64));
    g.bench_function("jpeg-compress-64x64", |b| {
        b.iter(|| compress(black_box(&img), 75))
    });
    let compressed = compress(&img, 75);
    g.bench_function("jpeg-decompress-64x64", |b| {
        b.iter(|| decompress(black_box(&compressed)).unwrap())
    });

    let signal: Vec<(f64, f64)> = (0..512).map(|i| ((i as f64).sin(), 0.0)).collect();
    g.bench_function("fft-512", |b| b.iter(|| fft(black_box(&signal))));
    g.bench_function("dif-fft-512-in-place", |b| {
        b.iter_batched(
            || signal.clone(),
            |mut s| dif_fft_in_place(&mut s),
            BatchSize::SmallInput,
        )
    });

    let a = Matrix::random(64, 64, &mut rng);
    let bm = Matrix::random(64, 64, &mut rng);
    g.bench_function("matmul-64", |b| {
        b.iter(|| multiply(black_box(&a), black_box(&bm)))
    });
    g.finish();
}

fn bench_tracing(c: &mut Criterion) {
    use ncs_sim::{MetricsRegistry, SimTime, SpanKind, Tracer};
    let mut g = c.benchmark_group("observability");
    // Guard for the hot-path span cost: labels are `&'static str` and
    // actors interned ids, so recording a span is push-only — and a
    // disabled tracer must stay a branch, not an allocation.
    let t0 = SimTime::ZERO;
    let t1 = SimTime::ZERO + Dur::from_micros(3);
    g.bench_function("span-enabled", |b| {
        let mut tr = Tracer::new();
        tr.enable();
        let actor = tr.intern("p0/t0");
        b.iter(|| tr.span_on(black_box(actor), SpanKind::Comm, "send", t0, t1))
    });
    g.bench_function("span-disabled", |b| {
        let mut tr = Tracer::new();
        let actor = tr.intern("p0/t0");
        b.iter(|| tr.span_on(black_box(actor), SpanKind::Comm, "send", t0, t1))
    });
    g.bench_function("metrics-observe", |b| {
        let mut m = MetricsRegistry::new();
        b.iter(|| m.observe("obs.e2e", black_box(Dur::from_micros(7))))
    });
    g.bench_function("causal-mark", |b| {
        let mut m = MetricsRegistry::new();
        let mut causal = 0u64;
        b.iter(|| {
            causal += 1;
            m.mark(black_box(causal), "enqueued", t0);
            m.mark(causal, "delivered", t1);
        })
    });
    g.finish();
}

fn bench_event_kernel(c: &mut Criterion) {
    use ncs_sim::wheel::TimerWheel;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut g = c.benchmark_group("event-kernel");
    // One schedule/pop round trip at a realistic standing queue depth:
    // the timer wheel the kernel runs on, against the BinaryHeap +
    // boxed-closure design it replaced (X10's micro comparison).
    const DEPTH: usize = 4096;
    const OPS: u64 = 1024;
    let offsets: Vec<u64> = {
        let mut rng = SimRng::new(42);
        (0..DEPTH as u64 + OPS)
            .map(|_| rng.gen_range(1 << 20))
            .collect()
    };
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("wheel-schedule-pop", |b| {
        b.iter_batched(
            || {
                let mut w: TimerWheel<u64> = TimerWheel::new();
                for (seq, &dt) in offsets[..DEPTH].iter().enumerate() {
                    w.push(dt, seq as u64, dt);
                }
                w
            },
            |mut w| {
                let mut now = 0u64;
                for (seq, &dt) in offsets[DEPTH..].iter().enumerate() {
                    let (t, _, v) = w.pop().expect("non-empty");
                    now = now.max(t);
                    black_box(v);
                    w.push(now + dt, (DEPTH + seq) as u64, dt);
                }
                w
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("heap-box-schedule-pop", |b| {
        type Ent = (Reverse<(u64, u64)>, Box<u64>);
        b.iter_batched(
            || {
                let mut h: BinaryHeap<Ent> = BinaryHeap::new();
                for (seq, &dt) in offsets[..DEPTH].iter().enumerate() {
                    h.push((Reverse((dt, seq as u64)), Box::new(dt)));
                }
                h
            },
            |mut h| {
                let mut now = 0u64;
                for (seq, &dt) in offsets[DEPTH..].iter().enumerate() {
                    let (Reverse((t, _)), v) = h.pop().expect("non-empty");
                    now = now.max(t);
                    black_box(*v);
                    h.push((Reverse((now + dt, (DEPTH + seq) as u64)), Box::new(dt)));
                }
                h
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_sim_ping_pong(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim-end-to-end");
    g.sample_size(20);
    g.bench_function("ncs-ping-pong-x20", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let fabric = Arc::new(IdealFabric::new(2, Dur::from_micros(10)));
            let hosts = vec![HostParams::test_fast(); 2];
            let net: Arc<dyn ncs_net::Network> =
                Arc::new(TcpNet::new(fabric, hosts, TcpParams::raw(1460, 16384)));
            NcsWorld::launch(&sim, vec![net], 2, NcsConfig::default(), |id, proc_| {
                proc_.t_create("w", 5, move |ncs| {
                    for i in 0..20u32 {
                        if id == 0 {
                            ncs.send(ThreadAddr::new(1, 0), i, Bytes::from_static(b"ping"));
                            ncs.recv(Some(1), None, Some(i));
                        } else {
                            ncs.recv(Some(0), None, Some(i));
                            ncs.send(ThreadAddr::new(0, 0), i, Bytes::from_static(b"pong"));
                        }
                    }
                });
            });
            sim.run().assert_clean();
            sim.finish();
        })
    });
    g.finish();
}

fn bench_huffman(c: &mut Criterion) {
    use ncs_apps::jpeg::huffman;
    let mut g = c.benchmark_group("huffman");
    // Realistic quantized blocks: sparse with small values.
    let blocks: Vec<[i16; 64]> = (0..64)
        .map(|i| {
            let mut b = [0i16; 64];
            b[0] = 40 + (i % 11) as i16;
            b[1] = ((i % 5) as i16) - 2;
            b[8] = 1;
            b
        })
        .collect();
    g.throughput(Throughput::Bytes((blocks.len() * 128) as u64));
    g.bench_function("encode-64-blocks", |b| {
        b.iter(|| huffman::encode_blocks(black_box(&blocks)))
    });
    let enc = huffman::encode_blocks(&blocks);
    g.bench_function("decode-64-blocks", |b| {
        b.iter(|| huffman::decode_blocks(black_box(&enc), blocks.len()).unwrap())
    });
    g.finish();
}

fn bench_fabrics(c: &mut Criterion) {
    use ncs_net::atm::{AtmLanFabric, AtmLanParams, NynetFabric, NynetParams};
    use ncs_net::ethernet::{EthernetFabric, EthernetParams};
    use ncs_net::fabric::{Fabric, NodeId};
    use ncs_sim::SimTime;
    let mut g = c.benchmark_group("fabric-booking");
    g.bench_function("ethernet-transfer", |b| {
        let f = EthernetFabric::new(EthernetParams::new(8));
        let mut t = SimTime::ZERO;
        b.iter(|| {
            let tt = f.transfer(NodeId(0), NodeId(1), black_box(1460), t);
            t = tt.arrival;
            tt
        })
    });
    g.bench_function("atm-lan-transfer", |b| {
        let f = AtmLanFabric::new(AtmLanParams::fore_lan(8));
        let mut t = SimTime::ZERO;
        b.iter(|| {
            let tt = f.transfer(NodeId(0), NodeId(5), black_box(9140), t);
            t = tt.arrival;
            tt
        })
    });
    g.bench_function("nynet-cross-site-transfer", |b| {
        let f = NynetFabric::new(NynetParams::nynet(8));
        let mut t = SimTime::ZERO;
        b.iter(|| {
            let tt = f.transfer(NodeId(0), NodeId(7), black_box(9140), t);
            t = tt.arrival;
            tt
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crc,
    bench_aal5,
    bench_mts,
    bench_kernels,
    bench_huffman,
    bench_fabrics,
    bench_tracing,
    bench_event_kernel,
    bench_sim_ping_pong
);
criterion_main!(benches);
