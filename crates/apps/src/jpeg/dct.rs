//! 8×8 type-II/III discrete cosine transform — the heart of JPEG.

use super::zigzag::{ZIGZAG, ZIGZAG_POS};
use super::{mask8, ones};
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

/// Two neighbouring columns (or rows) of a block, side by side: the
/// unit [`aan8`] works on, one SSE2 register wide.
type Pair = [f64; 2];

#[inline(always)]
fn add(a: Pair, b: Pair) -> Pair {
    [a[0] + b[0], a[1] + b[1]]
}

#[inline(always)]
fn sub(a: Pair, b: Pair) -> Pair {
    [a[0] - b[0], a[1] - b[1]]
}

#[inline(always)]
fn mul(a: Pair, k: f64) -> Pair {
    [a[0] * k, a[1] * k]
}

/// One 8-point DCT on two transforms at once, by the Arai–Agui–Nakajima
/// factorization (the flow graph of libjpeg's `jfdctflt.c`): 5 multiplies
/// and 29 adds, where a sum of [`forward_fast`] takes 8 of each per output.
/// Output `u` comes out multiplied by [`aan_factor`]`(u)`. `k` is
/// `[c4, c6, c2 − c6, c2 + c6]`, with `cK = cos(K·π/16)`.
#[inline(always)]
fn aan8(x: [Pair; N], k: [f64; 4]) -> [Pair; N] {
    let [c4, c6, c2_minus_c6, c2_plus_c6] = k;
    let (t0, t7) = (add(x[0], x[7]), sub(x[0], x[7]));
    let (t1, t6) = (add(x[1], x[6]), sub(x[1], x[6]));
    let (t2, t5) = (add(x[2], x[5]), sub(x[2], x[5]));
    let (t3, t4) = (add(x[3], x[4]), sub(x[3], x[4]));
    // Even half.
    let (e10, e13) = (add(t0, t3), sub(t0, t3));
    let (e11, e12) = (add(t1, t2), sub(t1, t2));
    let z1 = mul(add(e12, e13), c4);
    // Odd half: a rotation by 3π/8 in three multiplies.
    let (o10, o11, o12) = (add(t4, t5), add(t5, t6), add(t6, t7));
    let z5 = mul(sub(o10, o12), c6);
    let z2 = add(mul(o10, c2_minus_c6), z5);
    let z4 = add(mul(o12, c2_plus_c6), z5);
    let z3 = mul(o11, c4);
    let (z11, z13) = (add(t7, z3), sub(t7, z3));
    [
        add(e10, e11),
        add(z11, z4),
        add(e13, z1),
        sub(z13, z2),
        sub(e10, e11),
        add(z13, z2),
        sub(e13, z1),
        sub(z11, z4),
    ]
}

/// What [`aan8`] multiplies output `u` by, against the plain sum
/// `sum_x x[x]·cos[x][u]`: 1 for `u = 0`, else `2·cos(u·π/16)`.
fn aan_factor(u: usize) -> f64 {
    if u == 0 {
        1.0
    } else {
        2.0 * basis().cos[0][u]
    }
}

/// Forward DCT by `aan8` down the columns, two at a time, and then along
/// the rows, two at a time, its coefficients stored in zig-zag order.
/// Coefficient `(u, v)` comes out multiplied by
/// `aan_factor(u)·aan_factor(v)` and without [`forward_fast`]'s
/// `0.25·c(u)·c(v)`; [`quant_multipliers`] folds both into the quantizer.
/// This is the quantizer's fast path: its results are close to
/// [`forward_fast`]'s, not bit-equal, and `quant::quantize_clear` says how
/// close, and when that decides the rounding.
pub(crate) fn forward_aan(block: &[f64; N * N]) -> [f64; N * N] {
    let cos = &basis().cos;
    let k = [
        cos[0][4],
        cos[0][6],
        cos[0][2] - cos[0][6],
        cos[0][2] + cos[0][6],
    ];
    // Columns: t[u][y] from f[·][y].
    let mut t = [0.0; N * N];
    for y in (0..N).step_by(2) {
        let col = aan8(
            std::array::from_fn(|x| [block[x * N + y], block[x * N + y + 1]]),
            k,
        );
        for (u, p) in col.iter().enumerate() {
            t[u * N + y..u * N + y + 2].copy_from_slice(p);
        }
    }
    // Rows: F[u][v] from t[u][·], each stored at its zig-zag position.
    let mut out = [0.0; N * N];
    for u in (0..N).step_by(2) {
        let row = aan8(
            std::array::from_fn(|y| [t[u * N + y], t[(u + 1) * N + y]]),
            k,
        );
        for (v, p) in row.iter().enumerate() {
            out[ZIGZAG_POS[u * N + v]] = p[0];
            out[ZIGZAG_POS[(u + 1) * N + v]] = p[1];
        }
    }
    out
}

/// `0.25·c(u)·c(v) / (aan_factor(u)·aan_factor(v)·table[u·8 + v])` in
/// zig-zag order: what turns [`forward_aan`]'s outputs into quantization
/// steps.
pub(crate) fn quant_multipliers(table: &[u16; N * N]) -> [f64; N * N] {
    let scale = basis().scale.as_flattened();
    std::array::from_fn(|k| {
        let i = ZIGZAG[k];
        scale[i] / (aan_factor(i / N) * aan_factor(i % N) * f64::from(table[i]))
    })
}

/// What [`inverse_shaped`] found the output of a block to be.
// Returned and matched on at once, once per block: boxing `Full` would
// cost an allocation per block to save a copy.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum Shape {
    /// Every output row is this row: only coefficient row 0 is nonzero.
    SameRows([f64; N]),
    /// Output row `x` holds 8 copies of entry `x`: only coefficient column
    /// 0 is nonzero.
    FlatRows([f64; N]),
    /// Anything else.
    Full([f64; N * N]),
}

/// [`inverse_shaped`]'s result written out in full: the form the tests
/// compare bit for bit.
#[cfg(test)]
pub fn inverse_fast(coeffs: &[f64; N * N]) -> [f64; N * N] {
    match inverse_shaped(coeffs) {
        Shape::SameRows(row) => std::array::from_fn(|i| row[i % N]),
        Shape::FlatRows(col) => std::array::from_fn(|i| col[i / N]),
        Shape::Full(out) => out,
    }
}

/// Inverse DCT via row–column separation, its sums in the order of
/// [`forward_fast`]'s: each output adds its 8 products in index order, from
/// 0.0, and is scaled last. Each distinct output is computed once.
///
/// Zero coefficients are skipped, and so are coefficient rows that are all
/// zero. That keeps every bit: a sum that starts at +0.0 never becomes
/// −0.0 (x + y is −0.0 only when both are), and adding ±0.0 to anything
/// that is not −0.0 leaves it unchanged, NaN and infinities included. A
/// zero coefficient contributes `c(v)·0·cos = ±0.0`, and an all-zero row
/// leaves its row sums at +0.0, whose products in the columns pass are
/// ±0.0 again. When only row 0 is nonzero the columns pass multiplies by
/// `cos[x][0] = 1.0` alone, so every output row is the same; when only
/// column 0 is, each row sum is `0.0 + c(0)·F[u][0]` for every `y`, so
/// every output row is flat. `properties::fast_paths_keep_their_bits` and
/// `sparse_blocks_keep_their_bits` check all of this against the dense
/// one-output-at-a-time form.
pub(crate) fn inverse_shaped(coeffs: &[f64; N * N]) -> Shape {
    let Basis { cos, cos_t, .. } = basis();
    let rows: [u64; N] =
        std::array::from_fn(|u| mask8(std::array::from_fn(|v| coeffs[u * N + v] != 0.0)));
    let live = mask8(rows.map(|m| m != 0));
    if rows.iter().all(|&m| m & !1 == 0) {
        // h[u] = g[u][y] for every y.
        let h: [f64; N] = std::array::from_fn(|u| c(u) * (0.0 + c(0) * coeffs[u * N]));
        return Shape::FlatRows(std::array::from_fn(|x| {
            0.25 * (0..N).fold(0.0, |s, u| s + h[u] * cos[x][u])
        }));
    }
    // Rows: g[u][y] = c(u) · sum_v c(v) F[u][v] cos[y][v]; the outer c(u)
    // is the columns pass's first factor, hoisted out of its x loop.
    let mut g = [[0.0; N]; N];
    for u in ones(live) {
        let mut s = [0.0; N];
        for v in ones(rows[u]) {
            let f = c(v) * coeffs[u * N + v];
            for (sy, &cvy) in s.iter_mut().zip(&cos_t[v]) {
                *sy += f * cvy;
            }
        }
        g[u] = s.map(|s| c(u) * s);
    }
    if live == 1 {
        return Shape::SameRows(g[0].map(|g| 0.25 * (0.0 + g)));
    }
    // Columns: f[x][y] = 1/4 sum_u g[u][y] cos[x][u], live rows only, each
    // added to all 64 sums before the next.
    let mut out = [0.0; N * N];
    for u in ones(live) {
        for (o, cx) in out.chunks_exact_mut(N).zip(cos) {
            for (oy, &guy) in o.iter_mut().zip(&g[u]) {
                *oy += guy * cx[u];
            }
        }
    }
    Shape::Full(out.map(|s| 0.25 * s))
}

/// Every output of [`inverse_shaped`] on a block whose only nonzero
/// coefficient is the DC term `dc`: `cos[·][0]` is exactly 1.0, so each
/// sum holds one product, `0.0 + c(0)·dc` in the rows pass and
/// `0.0 + c(0)·g` in the columns pass, scaled by 0.25. The `0.0 +` is kept
/// so that `dc = −0.0` gives +0.0, as the sums do.
pub(crate) fn inverse_dc(dc: f64) -> f64 {
    let c0 = c(0);
    0.25 * (0.0 + c0 * (0.0 + c0 * dc))
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
pub(crate) mod properties {
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
    pub(crate) fn inverse_one_at_a_time(coeffs: &[f64; N * N]) -> [f64; N * N] {
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

    /// Blocks shaped like a decoder's (a few nonzero coefficients, in row
    /// 0, in column 0, or anywhere) keep their bits through every shape
    /// [`inverse_shaped`] takes, with values down to the smallest
    /// subnormal: nothing but ±0.0 may be skipped.
    #[test]
    fn sparse_blocks_keep_their_bits() {
        prop::check("sparse_blocks_keep_their_bits", 1024, |g| {
            let mut block = [0.0; 64];
            let place = *g.pick(&[0usize, 1, 2]);
            for _ in 0..g.range(1..=4) {
                let (u, v) = (g.range(0..8) as usize, g.range(0..8) as usize);
                let i = match place {
                    0 => v,
                    1 => u * N,
                    _ => u * N + v,
                };
                block[i] = match g.range(0..6) {
                    0 => -0.0,
                    1 => f64::from_bits(g.range(1..4)),
                    2 => -f64::MIN_POSITIVE * g.rng().gen_f64_range(0.0, 1.0),
                    3 => g.rng().gen_f64_range(-1e-9, 1e-9),
                    4 => (g.range(0..2048) as f64 - 1024.0) * 16.0,
                    _ => g.rng().gen_f64_range(-1e7, 1e7),
                };
            }
            let bits = |a: &[f64; 64]| a.map(f64::to_bits);
            assert_eq!(
                bits(&inverse_fast(&block)),
                bits(&inverse_one_at_a_time(&block))
            );
        });
    }

    /// [`inverse_dc`] is every output of a DC-only block, to the bit:
    /// signed zeros, subnormals, infinities and NaN included.
    #[test]
    fn dc_only_blocks_are_one_value() {
        let mut cases = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE,
            f64::INFINITY,
        ];
        cases.extend([f64::NEG_INFINITY, f64::NAN, f64::MAX, -1e300]);
        cases.extend((-2048..=2048).map(|q| f64::from(q) * 3.0));
        for dc in cases {
            let mut block = [0.0; 64];
            block[0] = dc;
            let want = inverse_one_at_a_time(&block).map(f64::to_bits);
            assert_eq!([inverse_dc(dc).to_bits(); 64], want, "{dc:e}");
        }
    }
}
