//! 8×8 type-II/III discrete cosine transform — the heart of JPEG.

use std::f64::consts::PI;
use std::sync::OnceLock;

/// Block edge length.
pub const N: usize = 8;

/// Cosine basis table: `COS[x][u] = cos((2x+1)·u·π/16)`.
fn cos_table() -> &'static [[f64; N]; N] {
    static TABLE: OnceLock<[[f64; N]; N]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0.0; N]; N];
        for (x, row) in t.iter_mut().enumerate() {
            for (u, v) in row.iter_mut().enumerate() {
                *v = ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos();
            }
        }
        t
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
    let cos = cos_table();
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
    let cos = cos_table();
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
pub fn forward_fast(block: &[f64; N * N]) -> [f64; N * N] {
    let cos = cos_table();
    // Rows: g[x][v] = sum_y f[x][y] cos[y][v]
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
    // Columns: F[u][v] = 1/4 c(u)c(v) sum_x g[x][v] cos[x][u]
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

/// Inverse DCT via row–column separation (see [`forward_fast`]).
pub fn inverse_fast(coeffs: &[f64; N * N]) -> [f64; N * N] {
    let cos = cos_table();
    // Rows: g[u][y] = sum_v c(v) F[u][v] cos[y][v]
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
        let cos = cos_table();
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
}
