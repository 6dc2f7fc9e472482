//! The distributed JPEG pipeline (paper Section 5.2, Table 2, Figs. 15–18).
//!
//! Five stages: the host reads the image, ships bands to `N/2` compressor
//! nodes, compressed bands flow to `N/2` decompressor nodes, decompressed
//! bands return to the host, which combines and writes the output.
//!
//! * [`jpeg_p4`] — one thread per process: a compressor sits idle until its
//!   whole band has arrived, and each stage of its band is serialized with
//!   its communication (Figure 16, top).
//! * [`jpeg_ncs`] — two threads per process (Figures 17/18): each thread
//!   owns half its node's band, so compression of the first half overlaps
//!   reception of the second, and the host's thread 1 is unblocked
//!   (`NCS_unblock`) as soon as the image read finishes.
//!
//! The codec really runs: bytes on the wire are the real compressed bands,
//! and the host verifies the combined output against a sequentially
//! computed reference of the same partitioning.

use bytes::Bytes;
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{Network, NodeId};
use ncs_p4::create_procgroup;
use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, Sim, SimRng};
use std::sync::Arc;

use crate::costs::AppCosts;
use crate::jpeg::{compress_with, decompress, EntropyKind};
use crate::util::charge_compute;
use crate::workloads::GrayImage;

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct JpegConfig {
    /// Image width (8-aligned).
    pub width: usize,
    /// Image height (8-aligned; bands must split evenly).
    pub height: usize,
    /// Codec quality.
    pub quality: u8,
    /// Entropy stage (the X5 ablation knob).
    pub entropy: EntropyKind,
    /// Total compute nodes (even: half compress, half decompress).
    pub nodes: usize,
    /// Workload seed.
    pub seed: u64,
}

impl JpegConfig {
    /// The paper's ~600 KB image (960×640 = 614,400 pixels).
    pub fn paper(nodes: usize) -> JpegConfig {
        JpegConfig {
            width: 960,
            height: 640,
            quality: 75,
            entropy: EntropyKind::RleVarint,
            nodes,
            seed: 0x1A6,
        }
    }

    /// The same pipeline with the canonical-Huffman entropy stage.
    pub fn with_huffman(mut self) -> JpegConfig {
        self.entropy = EntropyKind::Huffman;
        self
    }
}

/// Outcome of one run.
#[derive(Clone, Copy, Debug)]
pub struct JpegRun {
    /// End-to-end execution time.
    pub elapsed: Dur,
    /// Output matched the sequential reference of the same partitioning.
    pub verified: bool,
    /// Total compressed bytes that crossed the wire.
    pub compressed_bytes: usize,
}

fn workload(cfg: &JpegConfig) -> GrayImage {
    let mut rng = SimRng::new(cfg.seed);
    GrayImage::synthetic(cfg.width, cfg.height, &mut rng)
}

/// Sequential reference: roundtrips each of `parts` horizontal bands
/// independently and reassembles.
pub fn reference_pipeline(img: &GrayImage, parts: usize, quality: u8) -> GrayImage {
    reference_pipeline_with(img, parts, quality, EntropyKind::RleVarint)
}

/// [`reference_pipeline`] with an explicit entropy stage.
pub fn reference_pipeline_with(
    img: &GrayImage,
    parts: usize,
    quality: u8,
    entropy: EntropyKind,
) -> GrayImage {
    assert!(img.height.is_multiple_of(parts));
    let band_rows = img.height / parts;
    let mut out = GrayImage {
        width: img.width,
        height: img.height,
        pixels: vec![0; img.len()],
    };
    for p in 0..parts {
        let band = img.band(p * band_rows, (p + 1) * band_rows);
        let back = decompress(&compress_with(&band, quality, entropy)).expect("reference codec");
        out.pixels[p * band_rows * img.width..(p + 1) * band_rows * img.width]
            .copy_from_slice(&back.pixels);
    }
    out
}

const TAG_RAW: u32 = 1;
const TAG_COMPRESSED: u32 = 2;
const TAG_OUT: u32 = 3;

/// Deferred verification handle for the pipeline drivers.
pub struct JpegHandle {
    expect: GrayImage,
    got: Arc<Mutex<Option<GrayImage>>>,
    comp_bytes: Arc<Mutex<usize>>,
}

impl JpegHandle {
    /// True once the combined output matches the sequential reference.
    pub fn verify(&self) -> bool {
        self.got.lock().as_ref() == Some(&self.expect)
    }

    /// Compressed bytes that crossed the wire.
    pub fn compressed_bytes(&self) -> usize {
        *self.comp_bytes.lock()
    }
}

/// Runs the p4 pipeline.
pub fn jpeg_p4(net: Arc<dyn Network>, cfg: JpegConfig) -> JpegRun {
    let sim = Sim::new();
    let handle = setup_jpeg_p4(&sim, net, cfg);
    let out = sim.run();
    out.assert_clean();
    JpegRun {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        verified: handle.verify(),
        compressed_bytes: handle.compressed_bytes(),
    }
}

/// Schedules the p4 pipeline onto an existing simulation (used by the
/// timeline figures); the caller runs the sim.
pub fn setup_jpeg_p4(sim: &Sim, net: Arc<dyn Network>, cfg: JpegConfig) -> JpegHandle {
    assert!(
        cfg.nodes >= 2 && cfg.nodes.is_multiple_of(2),
        "need pairs of nodes"
    );
    let nc = cfg.nodes / 2; // compressors (procs 1..=nc); decompressors nc+1..=2nc
    assert!(cfg.height.is_multiple_of(nc) && (cfg.height / nc).is_multiple_of(8));
    let img = workload(&cfg);
    let expect = reference_pipeline_with(&img, nc, cfg.quality, cfg.entropy);
    let band_rows = cfg.height / nc;

    let got: Arc<Mutex<Option<GrayImage>>> = Arc::new(Mutex::new(None));
    let comp_bytes = Arc::new(Mutex::new(0usize));
    let img = Arc::new(img);
    let got2 = Arc::clone(&got);
    let cb2 = Arc::clone(&comp_bytes);
    create_procgroup(sim, net, cfg.nodes + 1, move |ctx, p| {
        let host_model = p.net().host(NodeId(p.my_id() as u32)).clone();
        let costs = AppCosts::for_host(&host_model);
        let actor = format!("proc{}/main", p.my_id());
        let my = p.my_id();
        if my == 0 {
            // Stage 1: read the image, distribute bands.
            charge_compute(
                ctx,
                &host_model,
                &actor,
                "read-image",
                img.len() as u64 * costs.io_per_byte,
            );
            for j in 1..=nc {
                let band = img.band((j - 1) * band_rows, j * band_rows);
                p.send(ctx, TAG_RAW as i32, j, Bytes::from(band.pixels));
            }
            // Stage 5: collect decompressed bands, combine, write.
            let mut out = GrayImage {
                width: cfg.width,
                height: cfg.height,
                pixels: vec![0; cfg.width * cfg.height],
            };
            for _ in 0..nc {
                let m = p.recv(ctx, Some(TAG_OUT as i32), None);
                let j = m.from - nc; // decompressor j+nc handles band j
                out.pixels[(j - 1) * band_rows * cfg.width..j * band_rows * cfg.width]
                    .copy_from_slice(&m.data);
            }
            charge_compute(
                ctx,
                &host_model,
                &actor,
                "write-image",
                out.len() as u64 * costs.io_per_byte,
            );
            *got2.lock() = Some(out);
        } else if my <= nc {
            // Compressor: stage 2.
            let m = p.recv(ctx, Some(TAG_RAW as i32), Some(0));
            let band = GrayImage {
                width: cfg.width,
                height: band_rows,
                pixels: m.data.to_vec(),
            };
            let compressed = compress_with(&band, cfg.quality, cfg.entropy);
            charge_compute(
                ctx,
                &host_model,
                &actor,
                "compress",
                band.len() as u64 * costs.jpeg_compress_per_byte,
            );
            *cb2.lock() += compressed.len();
            p.send(ctx, TAG_COMPRESSED as i32, my + nc, Bytes::from(compressed));
        } else {
            // Decompressor: stage 4.
            let m = p.recv(ctx, Some(TAG_COMPRESSED as i32), Some(my - nc));
            let band = decompress(&m.data).expect("valid compressed band");
            charge_compute(
                ctx,
                &host_model,
                &actor,
                "decompress",
                band.len() as u64 * costs.jpeg_decompress_per_byte,
            );
            p.send(ctx, TAG_OUT as i32, 0, Bytes::from(band.pixels));
        }
    });
    JpegHandle {
        expect,
        got,
        comp_bytes,
    }
}

/// Runs the NCS_MTS/p4 pipeline (two threads per process).
pub fn jpeg_ncs(net: Arc<dyn Network>, cfg: JpegConfig) -> JpegRun {
    let sim = Sim::new();
    let handle = setup_jpeg_ncs(&sim, net, cfg);
    let out = sim.run();
    out.assert_clean();
    JpegRun {
        elapsed: out.end_time.since(ncs_sim::SimTime::ZERO),
        verified: handle.verify(),
        compressed_bytes: handle.compressed_bytes(),
    }
}

/// Schedules the NCS_MTS/p4 pipeline onto an existing simulation.
pub fn setup_jpeg_ncs(sim: &Sim, net: Arc<dyn Network>, cfg: JpegConfig) -> JpegHandle {
    setup_jpeg_ncs_with(sim, net, cfg, NcsConfig::default())
}

/// [`setup_jpeg_ncs`] with an explicit NCS configuration (error control,
/// flow control, retransmission tuning) — what the chaos harness uses to
/// run the pipeline over a faulty transport.
pub fn setup_jpeg_ncs_with(
    sim: &Sim,
    net: Arc<dyn Network>,
    cfg: JpegConfig,
    ncs_cfg: NcsConfig,
) -> JpegHandle {
    assert!(
        cfg.nodes >= 2 && cfg.nodes.is_multiple_of(2),
        "need pairs of nodes"
    );
    let nc = cfg.nodes / 2;
    let band_rows = cfg.height / nc;
    assert!(
        cfg.height.is_multiple_of(nc) && band_rows.is_multiple_of(16),
        "half-bands must be 8-aligned"
    );
    let half_rows = band_rows / 2;
    let img = workload(&cfg);
    // Each thread roundtrips an independent half-band: 2·nc parts.
    let expect = reference_pipeline_with(&img, 2 * nc, cfg.quality, cfg.entropy);

    let got: Arc<Mutex<Option<GrayImage>>> = Arc::new(Mutex::new(None));
    let comp_bytes = Arc::new(Mutex::new(0usize));
    let img = Arc::new(img);
    let got2 = Arc::clone(&got);
    let cb2 = Arc::clone(&comp_bytes);
    let width = cfg.width;
    let height = cfg.height;
    let quality = cfg.quality;
    let entropy = cfg.entropy;

    NcsWorld::launch(
        sim,
        vec![net],
        cfg.nodes + 1,
        ncs_cfg,
        move |id, proc_| {
            let costs = AppCosts::for_host(proc_.host());
            let host_model = proc_.host().clone();
            if id == 0 {
                // Host (Figure 17): thread 0 reads, unblocks thread 1, both
                // distribute their half-bands and collect outputs.
                let out_shared: Arc<Mutex<GrayImage>> = Arc::new(Mutex::new(GrayImage {
                    width,
                    height,
                    pixels: vec![0; width * height],
                }));
                let done = Arc::new(Mutex::new(0usize));
                for t in 0..2u32 {
                    let img = Arc::clone(&img);
                    let out_shared = Arc::clone(&out_shared);
                    let done = Arc::clone(&done);
                    let got = Arc::clone(&got2);
                    let host_model = host_model.clone();
                    proc_.t_create(format!("host-t{t}"), 5, move |ncs| {
                        if t == 0 {
                            // Stage 1: read the whole image, then wake thread 1.
                            ncs.compute(img.len() as u64 * costs.io_per_byte, "read-image");
                            ncs.unblock(1);
                        } else {
                            ncs.block(); // until the image has been read
                        }
                        // Distribute this thread's half of every band.
                        for j in 1..=nc {
                            let lo = (j - 1) * band_rows + (t as usize) * half_rows;
                            let band = img.band(lo, lo + half_rows);
                            ncs.send(ThreadAddr::new(j, t), TAG_RAW, Bytes::from(band.pixels));
                        }
                        // Collect this thread's half-bands from decompressors.
                        for _ in 0..nc {
                            let m = ncs.recv(None, Some(t), Some(TAG_OUT));
                            let j = m.from.proc - nc;
                            let lo = (j - 1) * band_rows + (t as usize) * half_rows;
                            let mut out = out_shared.lock();
                            out.pixels[lo * width..(lo + half_rows) * width]
                                .copy_from_slice(&m.data);
                        }
                        let mut d = done.lock();
                        *d += 1;
                        if *d == 2 {
                            // Stage 5: write the combined image.
                            ncs.compute((width * height) as u64 * costs.io_per_byte, "write-image");
                            *got.lock() = Some(out_shared.lock().clone());
                        }
                        let _ = host_model;
                    });
                }
            } else if id <= nc {
                // Compressor node: each thread compresses its half-band.
                for t in 0..2u32 {
                    let cb = Arc::clone(&cb2);
                    proc_.t_create(format!("comp-t{t}"), 5, move |ncs| {
                        let m = ncs.recv(Some(0), Some(t), Some(TAG_RAW));
                        let band = GrayImage {
                            width,
                            height: half_rows,
                            pixels: m.data.to_vec(),
                        };
                        let compressed = compress_with(&band, quality, entropy);
                        ncs.compute(band.len() as u64 * costs.jpeg_compress_per_byte, "compress");
                        *cb.lock() += compressed.len();
                        let me = ncs.proc().id();
                        ncs.send(
                            ThreadAddr::new(me + nc, t),
                            TAG_COMPRESSED,
                            Bytes::from(compressed),
                        );
                    });
                }
            } else {
                // Decompressor node.
                for t in 0..2u32 {
                    proc_.t_create(format!("decomp-t{t}"), 5, move |ncs| {
                        let me = ncs.proc().id();
                        let m = ncs.recv(Some(me - nc), Some(t), Some(TAG_COMPRESSED));
                        let band = decompress(&m.data).expect("valid compressed band");
                        ncs.compute(
                            band.len() as u64 * costs.jpeg_decompress_per_byte,
                            "decompress",
                        );
                        ncs.send(ThreadAddr::new(0, t), TAG_OUT, Bytes::from(band.pixels));
                    });
                }
            }
        },
    );
    JpegHandle {
        expect,
        got,
        comp_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_net::{HostParams, IdealFabric, TcpNet, TcpParams};

    fn fast_net(n: usize) -> Arc<dyn Network> {
        let fabric = Arc::new(IdealFabric::new(n, Dur::from_micros(20)));
        let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
        Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
    }

    fn small(nodes: usize) -> JpegConfig {
        JpegConfig {
            width: 64,
            height: 64,
            quality: 75,
            entropy: EntropyKind::RleVarint,
            nodes,
            seed: 21,
        }
    }

    #[test]
    fn p4_pipeline_verifies() {
        for nodes in [2usize, 4] {
            let run = jpeg_p4(fast_net(nodes + 1), small(nodes));
            assert!(run.verified, "{nodes} nodes");
            assert!(run.compressed_bytes > 0);
            assert!(run.compressed_bytes < 64 * 64, "no compression achieved");
        }
    }

    #[test]
    fn ncs_pipeline_verifies() {
        for nodes in [2usize, 4] {
            let run = jpeg_ncs(fast_net(nodes + 1), small(nodes));
            assert!(run.verified, "{nodes} nodes");
            assert!(run.compressed_bytes > 0);
        }
    }

    #[test]
    fn reference_pipeline_is_near_lossless_on_flat() {
        let img = GrayImage {
            width: 32,
            height: 32,
            pixels: vec![128; 1024],
        };
        let out = reference_pipeline(&img, 2, 90);
        assert!(out.psnr(&img) > 40.0);
    }
}
