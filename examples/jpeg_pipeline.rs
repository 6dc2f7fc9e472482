//! The JPEG compression/decompression pipeline (paper Section 5.2): half
//! the nodes compress bands of a synthetic ~600 KB image, half decompress,
//! the host combines — showing the real codec at work (compression ratio,
//! PSNR) alongside the timing comparison.
//!
//! ```text
//! cargo run --release --example jpeg_pipeline -- [nodes]
//! ```

use ncs::apps::jpeg::{compress, decompress};
use ncs::apps::jpeg_dist::{setup_jpeg_ncs_with, setup_jpeg_p4, JpegConfig};
use ncs::apps::run_app;
use ncs::apps::workloads::GrayImage;
use ncs::core::NcsConfig;
use ncs::net::Testbed;
use ncs::sim::{Sim, SimRng};

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .map_or(4, |s| s.parse().expect("nodes"));
    let cfg = JpegConfig::paper(nodes);

    // First, the codec itself on the same image.
    let mut rng = SimRng::new(cfg.seed);
    let img = GrayImage::synthetic(cfg.width, cfg.height, &mut rng);
    let compressed = compress(&img, cfg.quality);
    let restored = decompress(&compressed).expect("decompress");
    println!(
        "image {}x{} ({} KB) -> {} KB compressed ({:.1}:1), PSNR {:.1} dB\n",
        img.width,
        img.height,
        img.len() / 1024,
        compressed.len() / 1024,
        img.len() as f64 / compressed.len() as f64,
        restored.psnr(&img)
    );

    println!(
        "distributed pipeline, {nodes} nodes ({} compress, {} decompress):",
        nodes / 2,
        nodes / 2
    );
    for (label, testbed) in [
        ("Ethernet ", Testbed::SunEthernet),
        ("NYNET WAN", Testbed::NynetTcp),
    ] {
        let net = || testbed.build(nodes + 1);
        let (p4, _) = run_app(&Sim::new(), |sim| setup_jpeg_p4(sim, net(), cfg));
        let (ncs, handle) = run_app(&Sim::new(), |sim| {
            setup_jpeg_ncs_with(sim, net(), cfg, NcsConfig::default())
        });
        assert!(p4.verified && ncs.verified);
        println!(
            "  {label}: p4 {:7.3}s   NCS_MTS/p4 {:7.3}s   improvement {:4.1}%   ({} KB crossed the wire compressed)",
            p4.elapsed.as_secs_f64(),
            ncs.elapsed.as_secs_f64(),
            (p4.elapsed.as_secs_f64() - ncs.elapsed.as_secs_f64()) / p4.elapsed.as_secs_f64()
                * 100.0,
            handle.compressed_bytes() / 1024,
        );
    }
}
