//! Seeded workload generators: matrices, signals, and synthetic images.

use ncs_sim::SimRng;

/// A dense row-major `f64` matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix {
    /// Rows.
    pub(crate) rows: usize,
    /// Columns.
    pub(crate) cols: usize,
    /// Row-major data (`rows * cols`).
    pub(crate) data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Uniform random entries in [-1, 1).
    pub fn random(rows: usize, cols: usize, rng: &mut SimRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| rng.gen_f64_range(-1.0, 1.0))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Element access.
    #[cfg(test)]
    pub(crate) fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[cfg(test)]
    pub(crate) fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// A contiguous block of rows `[lo, hi)`.
    pub(crate) fn row_block(&self, lo: usize, hi: usize) -> &[f64] {
        &self.data[lo * self.cols..hi * self.cols]
    }

    /// Maximum absolute element difference against another matrix.
    pub(crate) fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// A sampled complex test signal: a few sinusoids plus seeded noise —
/// spectrally interesting input for the FFT benchmark.
pub fn test_signal(m: usize, rng: &mut SimRng) -> Vec<(f64, f64)> {
    let tones = [(3.0, 1.0), (17.0, 0.5), (40.0, 0.25)];
    (0..m)
        .map(|i| {
            let t = i as f64 / m as f64;
            let mut re = 0.0;
            for (f, a) in tones {
                re += a * (2.0 * std::f64::consts::PI * f * t).cos();
            }
            re += rng.gen_f64_range(-0.05, 0.05);
            (re, 0.0)
        })
        .collect()
}

/// An 8-bit grayscale image.
#[derive(Clone, PartialEq, Debug)]
pub struct GrayImage {
    /// Width in pixels (multiple of 8 for the JPEG codec).
    pub width: usize,
    /// Height in pixels (multiple of 8).
    pub height: usize,
    /// Row-major pixels.
    pub(crate) pixels: Vec<u8>,
}

impl GrayImage {
    /// Synthesizes a photograph-like test image: smooth illumination
    /// gradient, a few soft blobs, and mild seeded grain. Smoothness makes
    /// the JPEG codec compress realistically (roughly 5–15:1).
    ///
    /// Each blob's Gaussian is separable, `amp·exp(-dy²/2σ²)·exp(-dx²/2σ²)`,
    /// so it is tabulated once per column and once per row: 6·(W+H) `exp`
    /// calls instead of 6·W·H. A pixel still sums the gradient, then blobs
    /// 0..6, then its grain draw, in that order and in raster order. The
    /// product is not bit-equal to the exponential of the summed exponent,
    /// but the pixel is the truncation of a value in the hundreds, so it
    /// moves only if that value lands within ~1e-13 of an integer; the
    /// tests pin the pixels against the per-pixel form.
    pub fn synthetic(width: usize, height: usize, rng: &mut SimRng) -> GrayImage {
        assert!(
            width.is_multiple_of(8) && height.is_multiple_of(8),
            "dimensions must be 8-aligned"
        );
        let blobs: Vec<(f64, f64, f64, f64)> = (0..6)
            .map(|_| {
                (
                    rng.gen_f64_range(0.0, width as f64),
                    rng.gen_f64_range(0.0, height as f64),
                    rng.gen_f64_range(20.0, 80.0),
                    rng.gen_f64_range(width as f64 / 16.0, width as f64 / 4.0),
                )
            })
            .collect();
        let gauss = |d: f64, sigma: f64| (-d.powi(2) / (2.0 * sigma * sigma)).exp();
        // cols[b·W + x] = exp(-(x-cx)²/2σ²); rows[b·H + y] = amp·exp(-(y-cy)²/2σ²).
        let cols: Vec<f64> = blobs
            .iter()
            .flat_map(|&(cx, _, _, sigma)| (0..width).map(move |x| gauss(x as f64 - cx, sigma)))
            .collect();
        let rows: Vec<f64> = blobs
            .iter()
            .flat_map(|&(_, cy, amp, sigma)| {
                (0..height).map(move |y| amp * gauss(y as f64 - cy, sigma))
            })
            .collect();
        let ramp: Vec<f64> = (0..width)
            .map(|x| 60.0 + 80.0 * (x as f64 / width as f64))
            .collect();
        // One row at a time: every pixel of the row takes the gradient,
        // then blob 0, ..., blob 5 (vectorizable passes over the row), and
        // only then, in raster order, its grain draw.
        let mut row = vec![0.0; width];
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            let shade = 40.0 * (y as f64 / height as f64);
            for (v, &r) in row.iter_mut().zip(&ramp) {
                *v = r + shade;
            }
            for b in 0..blobs.len() {
                let ry = rows[b * height + y];
                for (v, &cx) in row.iter_mut().zip(&cols[b * width..]) {
                    *v += ry * cx;
                }
            }
            pixels.extend(row.iter().map(|&v| {
                let v = v + rng.gen_f64_range(-2.0, 2.0);
                v.clamp(0.0, 255.0) as u8
            }));
        }
        GrayImage {
            width,
            height,
            pixels,
        }
    }

    /// Total bytes.
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// Whether the image has no pixels.
    pub fn is_empty(&self) -> bool {
        self.pixels.is_empty()
    }

    /// Peak signal-to-noise ratio against a reference image, in dB.
    pub fn psnr(&self, reference: &GrayImage) -> f64 {
        assert_eq!(self.pixels.len(), reference.pixels.len());
        let mse: f64 = self
            .pixels
            .iter()
            .zip(&reference.pixels)
            .map(|(&a, &b)| {
                let d = f64::from(a) - f64::from(b);
                d * d
            })
            .sum::<f64>()
            / self.pixels.len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }

    /// Horizontal band of rows `[lo, hi)` as a sub-image.
    pub(crate) fn band(&self, lo: usize, hi: usize) -> GrayImage {
        GrayImage {
            width: self.width,
            height: hi - lo,
            pixels: self.pixels[lo * self.width..hi * self.width].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_random_deterministic() {
        let mut r1 = SimRng::new(5);
        let mut r2 = SimRng::new(5);
        assert_eq!(
            Matrix::random(16, 16, &mut r1),
            Matrix::random(16, 16, &mut r2)
        );
    }

    #[test]
    fn matrix_indexing() {
        let mut m = Matrix::zeros(3, 4);
        *m.at_mut(2, 3) = 7.5;
        assert_eq!(m.at(2, 3), 7.5);
        assert_eq!(m.row_block(2, 3)[3], 7.5);
    }

    #[test]
    fn signal_has_energy() {
        let mut rng = SimRng::new(1);
        let s = test_signal(512, &mut rng);
        assert_eq!(s.len(), 512);
        let power: f64 = s.iter().map(|(re, im)| re * re + im * im).sum();
        assert!(power > 100.0);
    }

    #[test]
    fn image_smooth_and_in_range() {
        let mut rng = SimRng::new(2);
        let img = GrayImage::synthetic(64, 64, &mut rng);
        assert_eq!(img.len(), 64 * 64);
        // Neighboring pixels mostly close (smoothness for compressibility).
        let mut big_jumps = 0;
        for y in 0..64 {
            for x in 1..64 {
                let a = i32::from(img.pixels[y * 64 + x - 1]);
                let b = i32::from(img.pixels[y * 64 + x]);
                if (a - b).abs() > 24 {
                    big_jumps += 1;
                }
            }
        }
        assert!(big_jumps < 40, "too many discontinuities: {big_jumps}");
    }

    /// The per-pixel form [`GrayImage::synthetic`] factorizes: one `exp`
    /// of the summed exponent per blob per pixel.
    fn synthetic_per_pixel(width: usize, height: usize, rng: &mut SimRng) -> GrayImage {
        assert!(
            width.is_multiple_of(8) && height.is_multiple_of(8),
            "dimensions must be 8-aligned"
        );
        let blobs: Vec<(f64, f64, f64, f64)> = (0..6)
            .map(|_| {
                (
                    rng.gen_f64_range(0.0, width as f64),
                    rng.gen_f64_range(0.0, height as f64),
                    rng.gen_f64_range(20.0, 80.0),
                    rng.gen_f64_range(width as f64 / 16.0, width as f64 / 4.0),
                )
            })
            .collect();
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                let mut v =
                    60.0 + 80.0 * (x as f64 / width as f64) + 40.0 * (y as f64 / height as f64);
                for &(cx, cy, amp, sigma) in &blobs {
                    let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                    v += amp * (-d2 / (2.0 * sigma * sigma)).exp();
                }
                v += rng.gen_f64_range(-2.0, 2.0);
                pixels.push(v.clamp(0.0, 255.0) as u8);
            }
        }
        GrayImage {
            width,
            height,
            pixels,
        }
    }

    #[test]
    fn separable_blobs_give_the_per_pixel_image() {
        // The paper image's size and seed (`JpegConfig::paper`), three
        // more seeds, and two sizes that are neither square nor powers of 2.
        let cases = [
            (960, 640, 0x1A6),
            (960, 640, 1),
            (960, 640, 1995),
            (960, 640, 0xDEAD_BEEF),
            (48, 24, 13),
            (136, 72, 7717),
        ];
        for (w, h, seed) in cases {
            let mut fast_rng = SimRng::new(seed);
            let mut slow_rng = SimRng::new(seed);
            let fast = GrayImage::synthetic(w, h, &mut fast_rng);
            let slow = synthetic_per_pixel(w, h, &mut slow_rng);
            let differ = fast.pixels.iter().zip(&slow.pixels).filter(|(a, b)| a != b);
            assert_eq!(differ.count(), 0, "{w}x{h} seed {seed:#x}");
            // Same draws, in the same order: the generators end in step.
            assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
        }
    }

    #[test]
    fn psnr_identity_infinite() {
        let mut rng = SimRng::new(3);
        let img = GrayImage::synthetic(32, 32, &mut rng);
        assert!(img.psnr(&img).is_infinite());
    }

    #[test]
    fn band_slices_rows() {
        let mut rng = SimRng::new(4);
        let img = GrayImage::synthetic(16, 32, &mut rng);
        let band = img.band(8, 16);
        assert_eq!(band.height, 8);
        assert_eq!(band.pixels[..], img.pixels[8 * 16..16 * 16]);
    }
}
