//! The assembled grayscale JPEG-style codec.
//!
//! Pipeline per 8×8 block: level shift → DCT → quantize → zig-zag →
//! DC-differential RLE entropy coding. Fully real: compressed sizes (and
//! therefore the bytes the distributed pipeline ships) come from actual
//! encoding of the actual image.

use crate::jpeg::{dct, entropy, huffman, quant, zigzag};
use crate::workloads::GrayImage;

/// Compressed-image header magic.
const MAGIC: u32 = 0x4E43_4A50; // "NCJP"

/// Selectable entropy stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntropyKind {
    /// Byte-aligned zero-run + varint coder (fast, simple).
    RleVarint,
    /// Canonical Huffman with T.81-style (run, size) symbols and appended
    /// magnitude bits — the standard's approach; better ratios, bit-level.
    Huffman,
}

impl EntropyKind {
    fn id(self) -> u8 {
        match self {
            EntropyKind::RleVarint => 0,
            EntropyKind::Huffman => 1,
        }
    }

    fn from_id(v: u8) -> Option<EntropyKind> {
        match v {
            0 => Some(EntropyKind::RleVarint),
            1 => Some(EntropyKind::Huffman),
            _ => None,
        }
    }
}

/// Compression failure (decode side).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Not a compressed image (bad magic or header).
    BadHeader,
    /// Entropy stream damaged (RLE coder).
    Entropy(entropy::EntropyError),
    /// Entropy stream damaged (Huffman coder).
    Huffman(huffman::HuffError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad compressed-image header"),
            CodecError::Entropy(e) => write!(f, "entropy: {e}"),
            CodecError::Huffman(e) => write!(f, "huffman: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Compresses a grayscale image at the given quality (1..=100) with the
/// default (RLE/varint) entropy stage.
pub fn compress(img: &GrayImage, quality: u8) -> Vec<u8> {
    compress_with(img, quality, EntropyKind::RleVarint)
}

/// Compresses with an explicit entropy stage.
pub fn compress_with(img: &GrayImage, quality: u8, coder: EntropyKind) -> Vec<u8> {
    assert!(img.width.is_multiple_of(8) && img.height.is_multiple_of(8));
    let table = quant::table_for_quality(quality);
    let mut out = Vec::with_capacity(img.len() / 4 + 16);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(img.width as u32).to_le_bytes());
    out.extend_from_slice(&(img.height as u32).to_le_bytes());
    out.push(quality);
    out.push(coder.id());
    let mut zz_blocks = Vec::with_capacity(img.len() / 64);
    for by in (0..img.height).step_by(8) {
        for bx in (0..img.width).step_by(8) {
            let mut block = [0.0f64; 64];
            for y in 0..8 {
                for x in 0..8 {
                    block[y * 8 + x] = f64::from(img.pixels[(by + y) * img.width + bx + x]) - 128.0;
                }
            }
            let coeffs = dct::forward_fast(&block);
            let q = quant::quantize(&coeffs, &table);
            zz_blocks.push(zigzag::to_zigzag(&q));
        }
    }
    match coder {
        EntropyKind::RleVarint => {
            let mut prev_dc = 0i16;
            for zz in &zz_blocks {
                entropy::encode_block(zz, &mut prev_dc, &mut out);
            }
        }
        EntropyKind::Huffman => {
            out.extend_from_slice(&huffman::encode_blocks(&zz_blocks));
        }
    }
    out
}

/// Decompresses a compressed image.
pub fn decompress(data: &[u8]) -> Result<GrayImage, CodecError> {
    if data.len() < 14 || data[..4] != MAGIC.to_le_bytes() {
        return Err(CodecError::BadHeader);
    }
    let width = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    let height = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
    let quality = data[12];
    let coder = EntropyKind::from_id(data[13]).ok_or(CodecError::BadHeader)?;
    if width == 0 || height == 0 || !width.is_multiple_of(8) || !height.is_multiple_of(8) {
        return Err(CodecError::BadHeader);
    }
    // Everything sized from the header is bounded by the input first: a
    // block costs at least one bit of body under either coder.
    let body = &data[14..];
    let n_blocks = width.checked_mul(height).ok_or(CodecError::BadHeader)? / 64;
    if n_blocks > body.len().saturating_mul(8) {
        return Err(CodecError::BadHeader);
    }
    let zz_blocks: Vec<[i16; 64]> = match coder {
        EntropyKind::RleVarint => {
            let mut pos = 0;
            let mut prev_dc = 0i16;
            let mut v = Vec::with_capacity(n_blocks);
            for _ in 0..n_blocks {
                v.push(
                    entropy::decode_block(body, &mut pos, &mut prev_dc)
                        .map_err(CodecError::Entropy)?,
                );
            }
            v
        }
        EntropyKind::Huffman => {
            huffman::decode_blocks(body, n_blocks).map_err(CodecError::Huffman)?
        }
    };
    let table = quant::table_for_quality(quality);
    let mut pixels = vec![0u8; width * height];
    let mut it = zz_blocks.iter();
    for by in (0..height).step_by(8) {
        for bx in (0..width).step_by(8) {
            let zz = it.next().expect("block count checked");
            let q = zigzag::from_zigzag(zz);
            let coeffs = quant::dequantize(&q, &table);
            let block = dct::inverse_fast(&coeffs);
            for y in 0..8 {
                for x in 0..8 {
                    // Clamped to [-1, 256] first so the rounding is exact
                    // and NaN still lands on 0.
                    let v = (block[y * 8 + x] + 128.0).clamp(-1.0, 256.0);
                    pixels[(by + y) * width + bx + x] =
                        quant::round_half_away(v).clamp(0, 255) as u8;
                }
            }
        }
    }
    Ok(GrayImage {
        width,
        height,
        pixels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_sim::SimRng;

    #[test]
    fn roundtrip_quality_vs_psnr() {
        let mut rng = SimRng::new(11);
        let img = GrayImage::synthetic(64, 64, &mut rng);
        let mut last_psnr = 0.0;
        for quality in [25u8, 50, 75, 95] {
            let compressed = compress(&img, quality);
            let back = decompress(&compressed).unwrap();
            let psnr = back.psnr(&img);
            assert!(psnr > 30.0, "q{quality}: PSNR {psnr:.1} dB too low");
            assert!(
                psnr >= last_psnr,
                "PSNR must not degrade with quality: q{quality} {psnr:.1} < {last_psnr:.1}"
            );
            last_psnr = psnr;
        }
    }

    #[test]
    fn achieves_real_compression() {
        let mut rng = SimRng::new(12);
        let img = GrayImage::synthetic(128, 128, &mut rng);
        let compressed = compress(&img, 75);
        let ratio = img.len() as f64 / compressed.len() as f64;
        assert!(ratio > 3.0, "compression ratio only {ratio:.2}:1");
    }

    #[test]
    fn flat_image_compresses_extremely() {
        let img = GrayImage {
            width: 64,
            height: 64,
            pixels: vec![77; 64 * 64],
        };
        let compressed = compress(&img, 75);
        assert!(compressed.len() < img.len() / 20);
        let back = decompress(&compressed).unwrap();
        assert!(back.psnr(&img) > 45.0);
    }

    #[test]
    fn dimensions_preserved() {
        let mut rng = SimRng::new(13);
        let img = GrayImage::synthetic(48, 24, &mut rng);
        let back = decompress(&compress(&img, 60)).unwrap();
        assert_eq!((back.width, back.height), (48, 24));
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(decompress(b"not an image"), Err(CodecError::BadHeader));
        let mut rng = SimRng::new(14);
        let img = GrayImage::synthetic(16, 16, &mut rng);
        let mut data = compress(&img, 75);
        data.truncate(data.len() - 4);
        assert!(matches!(decompress(&data), Err(CodecError::Entropy(_))));
    }
}

#[cfg(test)]
mod entropy_choice_tests {
    use super::*;
    use ncs_sim::SimRng;

    /// (length, FNV-1a) of the compressed paper image, and FNV-1a of its
    /// decoded pixels (both coders decode to the same image).
    const PIN_RLE: (usize, u64) = (35_367, 0xd5cb_60b8_4770_07d1);
    const PIN_HUFFMAN: (usize, u64) = (9_423, 0x0304_19ff_7209_c0e7);
    const PIN_DECODED: u64 = 0xb53c_06c2_eccc_8991;

    #[test]
    fn huffman_stage_roundtrips() {
        let mut rng = SimRng::new(31);
        let img = GrayImage::synthetic(64, 64, &mut rng);
        let data = compress_with(&img, 75, EntropyKind::Huffman);
        let back = decompress(&data).unwrap();
        assert!(back.psnr(&img) > 30.0);
    }

    #[test]
    fn both_stages_decode_to_identical_pixels() {
        // Same DCT/quantization, so the lossy output must match exactly.
        let mut rng = SimRng::new(32);
        let img = GrayImage::synthetic(48, 48, &mut rng);
        let a = decompress(&compress_with(&img, 60, EntropyKind::RleVarint)).unwrap();
        let b = decompress(&compress_with(&img, 60, EntropyKind::Huffman)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn huffman_smaller_on_large_images() {
        let mut rng = SimRng::new(33);
        let img = GrayImage::synthetic(256, 256, &mut rng);
        let rle = compress_with(&img, 75, EntropyKind::RleVarint);
        let huf = compress_with(&img, 75, EntropyKind::Huffman);
        assert!(
            huf.len() < rle.len(),
            "huffman {} !< rle {}",
            huf.len(),
            rle.len()
        );
    }

    /// A valid magic with width = height = 2³¹ claims 2⁵⁶ blocks: the
    /// header is refused before anything is allocated from it, under both
    /// coders (the Huffman one only reads a body of ≥ 256 bytes).
    #[test]
    fn hostile_dimensions_rejected_before_allocating() {
        for (coder, body_len) in [(EntropyKind::RleVarint, 2), (EntropyKind::Huffman, 300)] {
            let mut data = MAGIC.to_le_bytes().to_vec();
            data.extend_from_slice(&(1u32 << 31).to_le_bytes());
            data.extend_from_slice(&(1u32 << 31).to_le_bytes());
            data.push(75);
            data.push(coder.id());
            data.resize(14 + body_len, 0);
            assert_eq!(decompress(&data), Err(CodecError::BadHeader), "{coder:?}");
        }
    }

    /// The compressed paper image (`JpegConfig::paper`: 960×640, seed
    /// 0x1A6, quality 75) under both coders, pinned by digest: the
    /// factorized image, the two-rows-per-sweep DCT and the library-free
    /// rounding must leave every byte where the direct forms put it.
    #[test]
    fn paper_image_compresses_to_pinned_bytes() {
        let mut rng = SimRng::new(0x1A6);
        let img = GrayImage::synthetic(960, 640, &mut rng);
        let pins = [
            (EntropyKind::RleVarint, PIN_RLE),
            (EntropyKind::Huffman, PIN_HUFFMAN),
        ];
        for (coder, (len, digest)) in pins {
            let data = compress_with(&img, 75, coder);
            assert_eq!(
                (data.len(), ncs_sim::fnv1a(&data)),
                (len, digest),
                "{coder:?}"
            );
            let back = decompress(&data).unwrap();
            assert_eq!(ncs_sim::fnv1a(&back.pixels), PIN_DECODED, "{coder:?}");
        }
    }

    #[test]
    fn unknown_coder_id_rejected() {
        let mut rng = SimRng::new(34);
        let img = GrayImage::synthetic(16, 16, &mut rng);
        let mut data = compress(&img, 75);
        data[13] = 9;
        assert_eq!(decompress(&data), Err(CodecError::BadHeader));
    }
}
