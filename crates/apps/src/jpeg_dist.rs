//! The distributed JPEG pipeline (paper Section 5.2, Table 2, Figs. 15–18).
//!
//! Five stages: the host reads the image, ships bands to `N/2` compressor
//! nodes, compressed bands flow to `N/2` decompressor nodes, decompressed
//! bands return to the host, which combines and writes the output.
//!
//! * [`setup_jpeg_p4`] — one thread per process: a compressor sits idle until its
//!   whole band has arrived, and each stage of its band is serialized with
//!   its communication (Figure 16, top).
//! * [`setup_jpeg_ncs_with`] — two threads per process (Figures 17/18): each thread
//!   owns half its node's band, so compression of the first half overlaps
//!   reception of the second, and the host's thread 1 is unblocked
//!   (`NCS_unblock`) as soon as the image read finishes.
//!
//! The codec really runs: bytes on the wire are the real compressed bands,
//! and the host verifies the combined output bit for bit against one
//! sequential whole-image roundtrip, which every partitioning shares.

use bytes::Bytes;
use ncs_core::{NcsConfig, NcsWorld, ThreadAddr};
use ncs_net::{Network, NodeId};
use ncs_p4::create_procgroup;
use ncs_sim::sync::Mutex;
use ncs_sim::{Sim, SimRng};
use std::sync::Arc;

use crate::costs::AppCosts;
use crate::jpeg::{compress, decompress, EntropyKind};
use crate::util::{cached, charge_compute, INPUTS};
use crate::workloads::GrayImage;
use crate::Verify;

/// Workload parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct JpegConfig {
    /// Image width (8-aligned).
    pub width: usize,
    /// Image height (8-aligned; bands must split evenly).
    pub height: usize,
    /// Codec quality.
    pub quality: u8,
    /// Entropy stage; [`EntropyKind`] has one.
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
}

/// The image and its whole-image reference, built once per distinct input.
fn workload(cfg: &JpegConfig) -> (Arc<GrayImage>, Arc<GrayImage>) {
    cached(&INPUTS, JpegConfig { nodes: 0, ..*cfg }, |cfg| {
        let img = GrayImage::synthetic(cfg.width, cfg.height, &mut SimRng::new(cfg.seed));
        let expect = reference_pipeline_with(&img, 1, cfg.quality, cfg.entropy);
        (Arc::new(img), Arc::new(expect))
    })
}

/// Sequential reference: roundtrips each of `parts` horizontal bands
/// independently through the codec and reassembles. The result does not
/// depend on `parts`: blocks are quantized alone, entropy coding is lossless.
pub fn reference_pipeline_with(
    img: &GrayImage,
    parts: usize,
    quality: u8,
    entropy: EntropyKind,
) -> GrayImage {
    let EntropyKind::RleVarint = entropy;
    assert!(img.height.is_multiple_of(parts));
    let band_rows = img.height / parts;
    let mut out = GrayImage {
        width: img.width,
        height: img.height,
        pixels: vec![0; img.len()],
    };
    for p in 0..parts {
        let band = img.band(p * band_rows, (p + 1) * band_rows);
        let back = decompress(&compress(&band, quality)).expect("reference codec");
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
    expect: Arc<GrayImage>,
    got: Arc<Mutex<Option<GrayImage>>>,
    comp_bytes: Arc<Mutex<usize>>,
}

impl JpegHandle {
    /// True once the combined output matches the sequential reference.
    pub fn verify(&self) -> bool {
        self.got.lock().as_ref() == Some(&*self.expect)
    }

    /// Compressed bytes that crossed the wire.
    pub fn compressed_bytes(&self) -> usize {
        *self.comp_bytes.lock()
    }
}

impl Verify for JpegHandle {
    fn verify(&self) -> bool {
        JpegHandle::verify(self)
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
    let (img, expect) = workload(&cfg);
    let band_rows = cfg.height / nc;

    let got: Arc<Mutex<Option<GrayImage>>> = Arc::new(Mutex::new(None));
    let comp_bytes = Arc::new(Mutex::new(0usize));
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
            let compressed = compress(&band, cfg.quality);
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

/// Schedules the NCS_MTS/p4 pipeline (two threads per process) onto an
/// existing simulation, under `ncs_cfg` (error control, flow control,
/// retransmission tuning — what the chaos harness varies). Keeps the run's
/// causal timelines (`MetricsRegistry::keep_timelines`), which the
/// benchmark reads.
pub fn setup_jpeg_ncs_with(
    sim: &Sim,
    net: Arc<dyn Network>,
    cfg: JpegConfig,
    ncs_cfg: NcsConfig,
) -> JpegHandle {
    crate::util::keep_timelines(sim);
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
    let (img, expect) = workload(&cfg);

    let got: Arc<Mutex<Option<GrayImage>>> = Arc::new(Mutex::new(None));
    let comp_bytes = Arc::new(Mutex::new(0usize));
    let got2 = Arc::clone(&got);
    let cb2 = Arc::clone(&comp_bytes);
    let width = cfg.width;
    let height = cfg.height;
    let quality = cfg.quality;

    NcsWorld::launch(
        sim,
        vec![net],
        cfg.nodes + 1,
        ncs_cfg,
        move |id, proc_| {
            let costs = AppCosts::for_host(proc_.host());
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
                        let compressed = compress(&band, quality);
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
    use crate::run_app;
    use crate::util::fast_net;

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
            let (run, h) = run_app(&Sim::new(), |sim| {
                setup_jpeg_p4(sim, fast_net(nodes + 1), small(nodes))
            });
            assert!(run.verified, "{nodes} nodes");
            assert!(h.compressed_bytes() > 0);
            assert!(h.compressed_bytes() < 64 * 64, "no compression achieved");
        }
    }

    #[test]
    fn ncs_pipeline_verifies() {
        for nodes in [2usize, 4] {
            let (run, h) = run_app(&Sim::new(), |sim| {
                setup_jpeg_ncs_with(sim, fast_net(nodes + 1), small(nodes), NcsConfig::default())
            });
            assert!(run.verified, "{nodes} nodes");
            assert!(h.compressed_bytes() > 0);
        }
    }

    /// The NCS run's reference comes from the slot the p4 run filled (the
    /// key ignores `nodes`) and still checks every pixel. Parallel tests
    /// share the slot: the pair is retried until the second staging hits.
    #[test]
    fn a_planted_wrong_result_fails_verify_on_a_cached_reference() {
        let p4 = || setup_jpeg_p4(&Sim::new(), fast_net(3), small(2));
        let ncs = |sim: &Sim| setup_jpeg_ncs_with(sim, fast_net(5), small(4), NcsConfig::default());
        let (run, h) = (0..50)
            .map(|_| (p4(), run_app(&Sim::new(), ncs)))
            .find(|(first, (_, h))| Arc::ptr_eq(&first.expect, &h.expect))
            .expect("a cache hit")
            .1;
        assert!(run.verified && h.verify());
        h.got.lock().as_mut().expect("a result").pixels[100] ^= 1;
        assert!(!h.verify());
    }

    #[test]
    fn reference_pipeline_is_near_lossless_on_flat() {
        let img = GrayImage {
            width: 32,
            height: 32,
            pixels: vec![128; 1024],
        };
        let out = reference_pipeline_with(&img, 2, 90, EntropyKind::RleVarint);
        assert!(out.psnr(&img) > 40.0);
    }
}
