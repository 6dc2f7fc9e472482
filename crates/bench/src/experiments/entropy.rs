//! Extension experiment **X5**: entropy-stage ablation for the JPEG codec —
//! the byte-aligned RLE/varint coder vs canonical Huffman (T.81's scheme) on
//! the paper's ~600 KB image, across qualities. Less compressed output means
//! less stage-3 traffic in the Table 2 pipeline.
//!
//! ```text
//! cargo run --release -p ncs-bench -- entropy
//! ```

use super::{JsonDoc, Opts};
use ncs_apps::jpeg::{compress_with, decompress, EntropyKind};
use ncs_apps::jpeg_dist::{jpeg_ncs, JpegConfig};
use ncs_apps::workloads::GrayImage;
use ncs_net::Testbed;
use ncs_sim::SimRng;

pub(super) fn run(_: &Opts, out: &mut String) -> Option<JsonDoc> {
    let mut rng = SimRng::new(0x1A6);
    let img = GrayImage::synthetic(960, 640, &mut rng);
    *out += &format!(
        "# X5 — entropy coder ablation on the {}x{} ({} KB) Table-2 image\n\n",
        img.width,
        img.height,
        img.len() / 1024
    );
    *out += "quality |  RLE bytes | RLE ratio | Huffman bytes | Huff ratio | Huffman gain | PSNR (dB)\n";
    *out += "--------+------------+-----------+---------------+------------+--------------+----------\n";
    for quality in [25u8, 50, 75, 95] {
        let rle = compress_with(&img, quality, EntropyKind::RleVarint);
        let huf = compress_with(&img, quality, EntropyKind::Huffman);
        let back_r = decompress(&rle).expect("rle decode");
        let back_h = decompress(&huf).expect("huffman decode");
        assert_eq!(back_r, back_h, "entropy stage must not change pixels");
        *out += &format!(
            "{:7} | {:10} | {:8.2}:1 | {:13} | {:9.2}:1 | {:11.1}% | {:8.1}\n",
            quality,
            rle.len(),
            img.len() as f64 / rle.len() as f64,
            huf.len(),
            img.len() as f64 / huf.len() as f64,
            (rle.len() as f64 - huf.len() as f64) / rle.len() as f64 * 100.0,
            back_h.psnr(&img),
        );
        assert!(huf.len() < rle.len(), "Huffman must win at q{quality}");
    }
    *out += "\n(identical DCT/quantization, so pixels match exactly; Huffman\n";
    *out += " trims the stage-3 transfer of the Table-2 pipeline)\n\n";

    // And in the pipeline itself: the Table-2 NCS configuration at 4 nodes
    // with each entropy stage.
    let rle = jpeg_ncs(Testbed::SunEthernet.build(5), JpegConfig::paper(4));
    let huf = jpeg_ncs(
        Testbed::SunEthernet.build(5),
        JpegConfig::paper(4).with_huffman(),
    );
    assert!(rle.verified && huf.verified);
    *out += "Table-2 pipeline, 4 nodes Ethernet, NCS variant:\n";
    *out += &format!(
        "  RLE/varint: {:6.3}s  ({} KB compressed crossed the wire)\n",
        rle.elapsed.as_secs_f64(),
        rle.compressed_bytes / 1024
    );
    *out += &format!(
        "  Huffman:    {:6.3}s  ({} KB compressed crossed the wire)\n",
        huf.elapsed.as_secs_f64(),
        huf.compressed_bytes / 1024
    );
    None
}
