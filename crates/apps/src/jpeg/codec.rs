//! The assembled grayscale JPEG-style codec.
//!
//! Pipeline per 8×8 block: level shift → DCT → quantize → zig-zag →
//! DC-differential RLE entropy coding. The forward DCT and quantizer run
//! a cheap path first and fall back to the exact one near a rounding tie;
//! the inverse skips zero coefficients. Neither moves a byte or a pixel
//! (DESIGN.md "Codec exactness"). Fully real: compressed sizes (and
//! therefore the bytes the distributed pipeline ships) come from actual
//! encoding of the actual image.

use crate::jpeg::{dct, entropy, ones, quant, zigzag};
use crate::workloads::GrayImage;

/// Compressed-image header magic.
const MAGIC: u32 = 0x4E43_4A50; // "NCJP"

/// The header's coder byte: the one entropy stage, [`EntropyKind::RleVarint`].
const CODER_ID: u8 = 0;

/// The entropy stage. It has one: the benchmark package under `benchmark/`
/// still passes `JpegConfig::entropy` to `reference_pipeline_with`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntropyKind {
    /// Byte-aligned zero-run + varint coder ([`entropy`]).
    RleVarint,
}

/// Compression failure (decode side).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Not a compressed image (bad magic or header, or another coder's).
    BadHeader,
    /// Entropy stream damaged.
    Entropy(entropy::EntropyError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad compressed-image header"),
            CodecError::Entropy(e) => write!(f, "entropy: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Compresses a grayscale image at the given quality (1..=100).
pub fn compress(img: &GrayImage, quality: u8) -> Vec<u8> {
    assert!(img.width.is_multiple_of(8) && img.height.is_multiple_of(8));
    // The block rows below are zipped slices of `pixels`: on a short image
    // they would stop early and leave zeros, so refuse it here.
    assert!(
        img.pixels.len() >= img.width * img.height,
        "fewer pixels than width × height"
    );
    let table = quant::table_for_quality(quality);
    let mult = dct::quant_multipliers(&table);
    let mut out = Vec::with_capacity(img.len() / 4 + 16);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(img.width as u32).to_le_bytes());
    out.extend_from_slice(&(img.height as u32).to_le_bytes());
    out.push(quality);
    out.push(CODER_ID);
    let mut prev_dc = 0i16;
    for by in (0..img.height).step_by(8) {
        for bx in (0..img.width).step_by(8) {
            let mut block = [0.0f64; 64];
            let rows = img.pixels[by * img.width + bx..].chunks(img.width);
            for (b, row) in block.chunks_exact_mut(8).zip(rows) {
                for (b, &p) in b.iter_mut().zip(&row[..8]) {
                    *b = f64::from(p) - 128.0;
                }
            }
            let zz = quant::quantize_clear(&dct::forward_aan(&block), &mult)
                .unwrap_or_else(|| zigzag::to_zigzag(&quantize_exact(&block, &table)));
            entropy::encode_block(&zz, &mut prev_dc, &mut out);
        }
    }
    out
}

#[cfg(test)]
thread_local! {
    /// Blocks that took the exact path, for the fallback tests.
    static EXACT_BLOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The exact path, [`dct::forward_fast`] then [`quant::quantize`]: the
/// coefficients every block must end with, taken when
/// [`quant::quantize_clear`] cannot vouch for its rounding.
fn quantize_exact(block: &[f64; 64], table: &[u16; 64]) -> [i16; 64] {
    #[cfg(test)]
    EXACT_BLOCKS.with(|n| n.set(n.get() + 1));
    quant::quantize(&dct::forward_fast(block), table)
}

/// Decompresses a compressed image.
pub fn decompress(data: &[u8]) -> Result<GrayImage, CodecError> {
    if data.len() < 14 || data[..4] != MAGIC.to_le_bytes() {
        return Err(CodecError::BadHeader);
    }
    let width = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    let height = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
    let quality = data[12];
    if data[13] != CODER_ID
        || width == 0
        || height == 0
        || !width.is_multiple_of(8)
        || !height.is_multiple_of(8)
    {
        return Err(CodecError::BadHeader);
    }
    // Everything sized from the header is bounded by the input first: a
    // block costs at least one bit of body.
    let body = &data[14..];
    let n_blocks = width.checked_mul(height).ok_or(CodecError::BadHeader)? / 64;
    if n_blocks > body.len().saturating_mul(8) {
        return Err(CodecError::BadHeader);
    }
    let (mut pos, mut prev_dc) = (0, 0i16);
    let table = quant::table_for_quality(quality);
    let mut pixels = vec![0u8; width * height];
    for by in (0..height).step_by(8) {
        for bx in (0..width).step_by(8) {
            let zz =
                entropy::decode_block(body, &mut pos, &mut prev_dc).map_err(CodecError::Entropy)?;
            let rows = pixels[by * width + bx..].chunks_mut(width).take(8);
            put_pixels(&zz, &table, rows);
        }
    }
    Ok(GrayImage {
        width,
        height,
        pixels,
    })
}

/// Writes one block's pixels into its 8 `rows`, rounding each distinct
/// output of the inverse transform once: a DC-only block is one value, and
/// [`dct::inverse_shaped`] names the blocks whose rows repeat.
fn put_pixels<'a>(zz: &[i16; 64], table: &[u16; 64], rows: impl Iterator<Item = &'a mut [u8]>) {
    let px = |v: f64| quant::round_pixel(v + 128.0);
    let nonzero = zigzag::nonzero_mask(zz);
    if nonzero & !1 == 0 {
        let p = px(dct::inverse_dc(f64::from(zz[0]) * f64::from(table[0])));
        rows.for_each(|row| row[..8].fill(p));
        return;
    }
    // `dequantize(&from_zigzag(zz), &table)`, nonzero entries only.
    let mut coeffs = [0.0; 64];
    for k in ones(nonzero) {
        let i = zigzag::ZIGZAG[k];
        coeffs[i] = f64::from(zz[k]) * f64::from(table[i]);
    }
    match dct::inverse_shaped(&coeffs) {
        dct::Shape::SameRows(same) => {
            let same = same.map(px);
            rows.for_each(|row| row[..8].copy_from_slice(&same));
        }
        dct::Shape::FlatRows(flat) => {
            for (row, v) in rows.zip(flat) {
                row[..8].fill(px(v));
            }
        }
        dct::Shape::Full(block) => {
            let block: [u8; 64] = std::array::from_fn(|i| px(block[i]));
            for (row, p) in rows.zip(block.chunks_exact(8)) {
                row[..8].copy_from_slice(p);
            }
        }
    }
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
    #[should_panic(expected = "fewer pixels")]
    fn short_image_panics() {
        let img = GrayImage {
            width: 16,
            height: 16,
            pixels: vec![0; 16 * 9],
        };
        compress(&img, 75);
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

/// The header's coder byte and the paper image's pinned bytes.
#[cfg(test)]
mod entropy_choice_tests {
    use super::*;
    use ncs_sim::SimRng;

    /// (length, FNV-1a) of the compressed paper image, and FNV-1a of its
    /// decoded pixels.
    const PIN_RLE: (usize, u64) = (35_367, 0xd5cb_60b8_4770_07d1);
    const PIN_DECODED: u64 = 0xb53c_06c2_eccc_8991;

    /// A valid magic with width = height = 2³¹ claims 2⁵⁶ blocks: the
    /// header is refused before anything is allocated from it.
    #[test]
    fn hostile_dimensions_rejected_before_allocating() {
        let mut data = MAGIC.to_le_bytes().to_vec();
        data.extend_from_slice(&(1u32 << 31).to_le_bytes());
        data.extend_from_slice(&(1u32 << 31).to_le_bytes());
        data.push(75);
        data.push(CODER_ID);
        data.resize(14 + 2, 0);
        assert_eq!(decompress(&data), Err(CodecError::BadHeader));
    }

    /// The compressed paper image (`JpegConfig::paper`: 960×640, seed
    /// 0x1A6, quality 75), pinned by digest: the factorized image, the
    /// two-rows-per-sweep DCT and the library-free rounding must leave
    /// every byte where the direct forms put it.
    #[test]
    fn paper_image_compresses_to_pinned_bytes() {
        let mut rng = SimRng::new(0x1A6);
        let img = GrayImage::synthetic(960, 640, &mut rng);
        let data = compress(&img, 75);
        assert_eq!((data.len(), ncs_sim::fnv1a(&data)), PIN_RLE);
        let back = decompress(&data).unwrap();
        assert_eq!(ncs_sim::fnv1a(&back.pixels), PIN_DECODED);
    }

    /// Only coder id 0 decodes. Id 1 named a second, bit-level coder that
    /// has since been removed: a stream it wrote is refused, not misread as
    /// RLE.
    #[test]
    fn unknown_coder_id_rejected() {
        let mut rng = SimRng::new(34);
        let img = GrayImage::synthetic(16, 16, &mut rng);
        let mut data = compress(&img, 75);
        for id in [1, 9] {
            data[13] = id;
            assert_eq!(decompress(&data), Err(CodecError::BadHeader), "id {id}");
        }
    }
}

/// The codec one coefficient at a time, every coefficient through
/// `forward_fast` + `quantize` and the dense inverse, in the order
/// [`compress`] and [`decompress`] must reproduce. Two calls go to
/// oracles: `entropy::reference::encode_block` and `dct`'s
/// `inverse_one_at_a_time` (bit-equal to the dense two-rows-per-sweep
/// inverse). Every compressed byte and decoded pixel is checked against
/// these.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::jpeg::dct::properties::inverse_one_at_a_time;

    pub fn compress(img: &GrayImage, quality: u8) -> Vec<u8> {
        assert!(img.width.is_multiple_of(8) && img.height.is_multiple_of(8));
        let table = quant::table_for_quality(quality);
        let mut out = Vec::with_capacity(img.len() / 4 + 16);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(img.width as u32).to_le_bytes());
        out.extend_from_slice(&(img.height as u32).to_le_bytes());
        out.push(quality);
        out.push(CODER_ID);
        let mut prev_dc = 0i16;
        for by in (0..img.height).step_by(8) {
            for bx in (0..img.width).step_by(8) {
                let mut block = [0.0f64; 64];
                for y in 0..8 {
                    for x in 0..8 {
                        block[y * 8 + x] =
                            f64::from(img.pixels[(by + y) * img.width + bx + x]) - 128.0;
                    }
                }
                let coeffs = dct::forward_fast(&block);
                let q = quant::quantize(&coeffs, &table);
                entropy::reference::encode_block(&zigzag::to_zigzag(&q), &mut prev_dc, &mut out);
            }
        }
        out
    }

    pub fn decompress(data: &[u8]) -> Result<GrayImage, CodecError> {
        if data.len() < 14 || data[..4] != MAGIC.to_le_bytes() {
            return Err(CodecError::BadHeader);
        }
        let width = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
        let height = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
        let quality = data[12];
        if data[13] != CODER_ID
            || width == 0
            || height == 0
            || !width.is_multiple_of(8)
            || !height.is_multiple_of(8)
        {
            return Err(CodecError::BadHeader);
        }
        // Everything sized from the header is bounded by the input first: a
        // block costs at least one bit of body.
        let body = &data[14..];
        let n_blocks = width.checked_mul(height).ok_or(CodecError::BadHeader)? / 64;
        if n_blocks > body.len().saturating_mul(8) {
            return Err(CodecError::BadHeader);
        }
        let (mut pos, mut prev_dc) = (0, 0i16);
        let zz_blocks: Vec<[i16; 64]> = (0..n_blocks)
            .map(|_| entropy::decode_block(body, &mut pos, &mut prev_dc))
            .collect::<Result<_, _>>()
            .map_err(CodecError::Entropy)?;
        let table = quant::table_for_quality(quality);
        let mut pixels = vec![0u8; width * height];
        let mut it = zz_blocks.iter();
        for by in (0..height).step_by(8) {
            for bx in (0..width).step_by(8) {
                let zz = it.next().expect("block count checked");
                let q = zigzag::from_zigzag(zz);
                let coeffs = quant::dequantize(&q, &table);
                let block = inverse_one_at_a_time(&coeffs);
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
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use ncs_sim::prop::{self, Gen};
    use ncs_sim::SimRng;

    /// Compressed bytes and decoded pixels equal the reference codec's.
    fn assert_matches(img: &GrayImage, quality: u8) {
        let data = compress(img, quality);
        let what = format!("{}x{} q{quality}", img.width, img.height);
        assert_eq!(data, reference::compress(img, quality), "bytes, {what}");
        let back = decompress(&data).expect("decodes");
        assert_eq!(Ok(back), reference::decompress(&data), "pixels, {what}");
    }

    fn flat(width: usize, height: usize, level: u8) -> GrayImage {
        GrayImage {
            width,
            height,
            pixels: vec![level; width * height],
        }
    }

    /// A random image of one of four kinds: the synthetic photograph,
    /// a flat field, uniform noise, or a gradient plus noise.
    fn any_image(g: &mut Gen) -> GrayImage {
        let (width, height) = (8 * g.range(1..=6) as usize, 8 * g.range(1..=6) as usize);
        let seed = g.range(0..u64::MAX);
        let mut rng = SimRng::new(seed);
        let mut noisy = |amp: f64, f: &dyn Fn(usize, usize) -> f64| -> GrayImage {
            let pixels = (0..width * height)
                .map(|i| {
                    let v = f(i % width, i / width) + rng.gen_f64_range(-amp, amp);
                    v.clamp(0.0, 255.0) as u8
                })
                .collect();
            GrayImage {
                width,
                height,
                pixels,
            }
        };
        match g.range(0..4) {
            0 => GrayImage::synthetic(width, height, &mut SimRng::new(seed)),
            1 => flat(width, height, (seed % 256) as u8),
            2 => noisy(128.0, &|_, _| 127.5),
            _ => {
                let (dx, dy) = (
                    g.rng().gen_f64_range(-8.0, 8.0),
                    g.rng().gen_f64_range(-8.0, 8.0),
                );
                let amp = *g.pick(&[0.0, 0.5, 4.0, 32.0]);
                noisy(amp, &|x, y| 128.0 + dx * x as f64 + dy * y as f64)
            }
        }
    }

    /// `cases` random image·quality cases.
    fn random_cases(name: &str, cases: u32) {
        prop::check(name, cases, |g| {
            let img = any_image(g);
            let quality = g.range(1..=100) as u8;
            assert_matches(&img, quality);
        });
    }

    /// Flat 16×8 images at `levels` × `qualities`.
    fn flat_cases(levels: impl Iterator<Item = u8> + Clone, qualities: &[u8]) -> usize {
        let mut cases = 0;
        for level in levels {
            for &quality in qualities {
                assert_matches(&flat(16, 8, level), quality);
                cases += 1;
            }
        }
        cases
    }

    #[test]
    fn codec_matches_reference() {
        random_cases("codec_matches_reference", 48);
        flat_cases((0..=255).step_by(5), &[1, 50, 75, 100]);
    }

    /// Flat images at every level × qualities 1–100 (25,600 cases), 4,000
    /// random synthetic, flat, noise and gradient ones, and the paper image
    /// at six qualities: ≥ 20k image·quality cases. CI runs it in release
    /// (`-- --ignored`).
    #[test]
    #[ignore = "29,606 image·quality cases; run in release with -- --ignored"]
    fn corpus_matches_reference() {
        let qualities: Vec<u8> = (1..=100).collect();
        assert_eq!(flat_cases(0..=255, &qualities), 25_600);
        random_cases("corpus_matches_reference", 4_000);
        let paper = GrayImage::synthetic(960, 640, &mut SimRng::new(0x1A6));
        for quality in [5, 25, 50, 75, 90, 100] {
            assert_matches(&paper, quality);
        }
    }

    /// At quality 50 the DC step is 16 and a flat block's DC is 8·(level −
    /// 128), so odd levels put every block exactly on a rounding tie: each
    /// takes the exact path, and still matches. Even levels take none.
    #[test]
    fn half_integer_dc_takes_the_exact_path() {
        let exact_blocks = || EXACT_BLOCKS.with(|n| n.get());
        for level in 0..=255u8 {
            let before = exact_blocks();
            let img = flat(16, 16, level);
            let data = compress(&img, 50);
            let taken = exact_blocks() - before;
            assert_eq!(taken, if level % 2 == 1 { 4 } else { 0 }, "level {level}");
            assert_eq!(data, reference::compress(&img, 50));
        }
    }
}
