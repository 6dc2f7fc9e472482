//! 8×8 type-II/III discrete cosine transform — the heart of JPEG.

use std::f64::consts::PI;
use std::sync::OnceLock;

/// Block edge length.
pub const N: usize = 8;

/// The tables every transform reads, built once.
struct Basis {
    /// `cos[x][u] = cos((2x+1)·u·π/16)`.
    cos: [[f64; N]; N],
    /// `cos_t[u][x] = cos[x][u]`: the inverse's rows pass reads it by row.
    cos_t: [[f64; N]; N],
    /// `scale[u][v] = 0.25·c(u)·c(v)`, multiplied left to right.
    scale: [[f64; N]; N],
}

fn basis() -> &'static Basis {
    static BASIS: OnceLock<Basis> = OnceLock::new();
    BASIS.get_or_init(|| {
        let cos: [[f64; N]; N] = std::array::from_fn(|x| {
            std::array::from_fn(|u| ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos())
        });
        Basis {
            cos,
            cos_t: std::array::from_fn(|u| std::array::from_fn(|x| cos[x][u])),
            scale: std::array::from_fn(|u| std::array::from_fn(|v| 0.25 * c(u) * c(v))),
        }
    })
}

#[inline]
fn c(u: usize) -> f64 {
    if u == 0 {
        std::f64::consts::FRAC_1_SQRT_2
    } else {
        1.0
    }
}

/// Forward 8×8 DCT (type II, orthonormal JPEG scaling). `block` is
/// row-major spatial samples; returns row-major frequency coefficients.
pub fn forward(block: &[f64; N * N]) -> [f64; N * N] {
    let cos = &basis().cos;
    let mut out = [0.0; N * N];
    for u in 0..N {
        for v in 0..N {
            let mut sum = 0.0;
            for x in 0..N {
                for y in 0..N {
                    sum += block[x * N + y] * cos[x][u] * cos[y][v];
                }
            }
            out[u * N + v] = 0.25 * c(u) * c(v) * sum;
        }
    }
    out
}

/// Inverse 8×8 DCT (type III): the tests' roundtrip oracle.
#[cfg(test)]
pub fn inverse(coeffs: &[f64; N * N]) -> [f64; N * N] {
    let cos = &basis().cos;
    let mut out = [0.0; N * N];
    for x in 0..N {
        for y in 0..N {
            let mut sum = 0.0;
            for u in 0..N {
                for v in 0..N {
                    sum += c(u) * c(v) * coeffs[u * N + v] * cos[x][u] * cos[y][v];
                }
            }
            out[x * N + y] = 0.25 * sum;
        }
    }
    out
}

/// Forward DCT via row–column separation: two passes of 1-D transforms,
/// 8× fewer multiplies than the direct 2-D sum. Bit-for-bit this differs
/// from [`forward`] only by float associativity (≤ 1e-12 per coefficient);
/// the codec uses this path, tests cross-check against the direct form.
///
/// The loop order is pinned, not free. Each pass sweeps its input once per
/// two output rows, and the innermost loop runs over the 8 outputs of both
/// rows: 16 independent sums, where one output at a time is one chain of
/// dependent adds. Each output still adds its 8 products in index order,
/// from 0.0, and is scaled by `(0.25·c(u))·c(v)` last. Rust never
/// contracts `a·b + c` into a fused multiply-add, so every coefficient is
/// the same `f64` as in the one-output-at-a-time form;
/// `properties::fast_paths_keep_their_bits` checks that against verbatim
/// copies of that form.
pub fn forward_fast(block: &[f64; N * N]) -> [f64; N * N] {
    let Basis { cos, scale, .. } = basis();
    // Rows: g[x][v] = sum_y f[x][y] cos[y][v]
    let mut g = [[0.0; N]; N];
    for x in (0..N).step_by(2) {
        let (mut g0, mut g1) = ([0.0; N], [0.0; N]);
        for (y, cy) in cos.iter().enumerate() {
            let (f0, f1) = (block[x * N + y], block[(x + 1) * N + y]);
            for ((s0, s1), &cyv) in g0.iter_mut().zip(&mut g1).zip(cy) {
                *s0 += f0 * cyv;
                *s1 += f1 * cyv;
            }
        }
        g[x] = g0;
        g[x + 1] = g1;
    }
    // Columns: F[u][v] = 1/4 c(u)c(v) sum_x g[x][v] cos[x][u]
    let mut out = [0.0; N * N];
    for u in (0..N).step_by(2) {
        let (mut f0, mut f1) = ([0.0; N], [0.0; N]);
        for (gx, cx) in g.iter().zip(cos) {
            let (c0, c1) = (cx[u], cx[u + 1]);
            for ((s0, s1), &gxv) in f0.iter_mut().zip(&mut f1).zip(gx) {
                *s0 += gxv * c0;
                *s1 += gxv * c1;
            }
        }
        let rows = out[u * N..(u + 2) * N].iter_mut();
        for ((o, sc), s) in rows
            .zip(&scale.as_flattened()[u * N..])
            .zip([f0, f1].as_flattened())
        {
            *o = sc * s;
        }
    }
    out
}

/// Inverse DCT via row–column separation, its loops ordered and pinned as
/// in [`forward_fast`].
pub fn inverse_fast(coeffs: &[f64; N * N]) -> [f64; N * N] {
    let Basis { cos, cos_t, .. } = basis();
    // Rows: g[u][y] = c(u) · sum_v c(v) F[u][v] cos[y][v]; the outer c(u)
    // is the columns pass's first factor, hoisted out of its x loop.
    let mut g = [[0.0; N]; N];
    for u in (0..N).step_by(2) {
        let (mut g0, mut g1) = ([0.0; N], [0.0; N]);
        for (v, cv) in cos_t.iter().enumerate() {
            let (f0, f1) = (c(v) * coeffs[u * N + v], c(v) * coeffs[(u + 1) * N + v]);
            for ((s0, s1), &cvy) in g0.iter_mut().zip(&mut g1).zip(cv) {
                *s0 += f0 * cvy;
                *s1 += f1 * cvy;
            }
        }
        g[u] = g0.map(|s| c(u) * s);
        g[u + 1] = g1.map(|s| c(u + 1) * s);
    }
    // Columns: f[x][y] = 1/4 sum_u g[u][y] cos[x][u]
    let mut out = [0.0; N * N];
    for x in (0..N).step_by(2) {
        let (mut f0, mut f1) = ([0.0; N], [0.0; N]);
        for (u, gu) in g.iter().enumerate() {
            let (c0, c1) = (cos[x][u], cos[x + 1][u]);
            for ((s0, s1), &guy) in f0.iter_mut().zip(&mut f1).zip(gu) {
                *s0 += guy * c0;
                *s1 += guy * c1;
            }
        }
        for (o, s) in out[x * N..(x + 2) * N]
            .iter_mut()
            .zip([f0, f1].as_flattened())
        {
            *o = 0.25 * s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_block_concentrates_in_dc() {
        let block = [100.0; 64];
        let f = forward(&block);
        // DC of a constant block: 8 * value.
        assert!((f[0] - 800.0).abs() < 1e-9, "DC {}", f[0]);
        for (i, &v) in f.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-9, "AC[{i}] = {v}");
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let mut block = [0.0; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37 + 11) % 256) as f64 - 128.0;
        }
        let back = inverse(&forward(&block));
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut block = [0.0; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as f64 * 0.7).sin() * 50.0;
        }
        let f = forward(&block);
        let e_space: f64 = block.iter().map(|v| v * v).sum();
        let e_freq: f64 = f.iter().map(|v| v * v).sum();
        assert!((e_space - e_freq).abs() / e_space < 1e-9);
    }

    #[test]
    fn fast_paths_match_direct_forms() {
        let mut block = [0.0; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 53 + 7) % 256) as f64 - 128.0;
        }
        let direct = forward(&block);
        let fast = forward_fast(&block);
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-9);
        }
        let inv_direct = inverse(&direct);
        let inv_fast = inverse_fast(&direct);
        for (a, b) in inv_direct.iter().zip(&inv_fast) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn horizontal_cosine_hits_single_bin() {
        // f(x,y) = cos((2y+1)·3π/16) is pure frequency v=3, u=0.
        let cos = &basis().cos;
        let mut block = [0.0; 64];
        for x in 0..8 {
            for y in 0..8 {
                block[x * 8 + y] = cos[y][3];
            }
        }
        let f = forward(&block);
        for u in 0..8 {
            for v in 0..8 {
                let val = f[u * 8 + v];
                if (u, v) == (0, 3) {
                    assert!(val.abs() > 1.0, "expected energy at (0,3): {val}");
                } else {
                    assert!(val.abs() < 1e-9, "leakage at ({u},{v}): {val}");
                }
            }
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use ncs_sim::prop;

    /// Separable and direct transforms agree on arbitrary blocks, and
    /// the roundtrip is the identity.
    #[test]
    fn fast_equals_direct_and_roundtrips() {
        prop::check("fast_equals_direct_and_roundtrips", 64, |g| {
            let block: [f64; 64] = std::array::from_fn(|_| g.rng().gen_f64_range(-128.0, 128.0));
            let direct = forward(&block);
            let fast = forward_fast(&block);
            for (a, b) in direct.iter().zip(&fast) {
                assert!((a - b).abs() < 1e-9);
            }
            let back = inverse_fast(&fast);
            for (a, b) in block.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9);
            }
        });
    }

    /// [`forward_fast`] one output at a time, verbatim: the form whose
    /// bits the two-rows-per-sweep version must keep.
    fn forward_one_at_a_time(block: &[f64; N * N]) -> [f64; N * N] {
        let cos = &basis().cos;
        let mut g = [0.0; N * N];
        for x in 0..N {
            for v in 0..N {
                let mut s = 0.0;
                for y in 0..N {
                    s += block[x * N + y] * cos[y][v];
                }
                g[x * N + v] = s;
            }
        }
        let mut out = [0.0; N * N];
        for u in 0..N {
            for v in 0..N {
                let mut s = 0.0;
                for x in 0..N {
                    s += g[x * N + v] * cos[x][u];
                }
                out[u * N + v] = 0.25 * c(u) * c(v) * s;
            }
        }
        out
    }

    /// [`inverse_fast`] one output at a time, verbatim.
    fn inverse_one_at_a_time(coeffs: &[f64; N * N]) -> [f64; N * N] {
        let cos = &basis().cos;
        let mut g = [0.0; N * N];
        for u in 0..N {
            for y in 0..N {
                let mut s = 0.0;
                for v in 0..N {
                    s += c(v) * coeffs[u * N + v] * cos[y][v];
                }
                g[u * N + y] = s;
            }
        }
        let mut out = [0.0; N * N];
        for x in 0..N {
            for y in 0..N {
                let mut s = 0.0;
                for u in 0..N {
                    s += c(u) * g[u * N + y] * cos[x][u];
                }
                out[x * N + y] = 0.25 * s;
            }
        }
        out
    }

    /// The two-rows-per-sweep loops produce the same `f64` bits as the
    /// one-output-at-a-time form, on pixel-range blocks, on quantized
    /// coefficient blocks, and on wide-range blocks with exact zeros and
    /// negative zeros mixed in.
    #[test]
    fn fast_paths_keep_their_bits() {
        prop::check("fast_paths_keep_their_bits", 1024, |g| {
            let span = *g.pick(&[128.0, 1024.0, 1e7]);
            let block: [f64; 64] = std::array::from_fn(|_| match g.range(0..16) {
                0 => 0.0,
                1 => -0.0,
                2 => g.rng().gen_f64_range(-span, span).round(),
                _ => g.rng().gen_f64_range(-span, span),
            });
            let bits = |a: &[f64; 64]| a.map(f64::to_bits);
            assert_eq!(
                bits(&forward_fast(&block)),
                bits(&forward_one_at_a_time(&block))
            );
            assert_eq!(
                bits(&inverse_fast(&block)),
                bits(&inverse_one_at_a_time(&block))
            );
        });
    }
}
