//! Quantization — where JPEG throws information away.

/// The ITU-T T.81 Annex K luminance quantization table (quality 50).
pub(crate) const BASE_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Scales the base table for a quality factor 1..=100 (libjpeg's rule).
pub(crate) fn table_for_quality(quality: u8) -> [u16; 64] {
    let q = quality.clamp(1, 100) as u32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut t = [0u16; 64];
    for (out, &base) in t.iter_mut().zip(BASE_LUMA.iter()) {
        *out = ((u32::from(base) * scale + 50) / 100).clamp(1, 255) as u16;
    }
    t
}

/// Rounds to the nearest integer, ties away from zero: `f64::round`'s
/// result for every |x| < 2³¹ − ½, without its library call (on baseline
/// x86_64 `f64::round` is not an instruction). The truncation `t` and the
/// remainder `x - t` are both exact there, so the comparison against ±0.5
/// decides exactly. NaN gives 0, as `f64::round(NaN) as i32` does; callers
/// clamp first where |x| may be larger.
#[inline]
pub(crate) fn round_half_away(x: f64) -> i32 {
    let t = x as i32;
    let f = x - f64::from(t);
    t + i32::from(f >= 0.5) - i32::from(f <= -0.5)
}

/// Quantizes DCT coefficients (round-to-nearest, ties away from zero,
/// saturating at the `i16` range).
pub(crate) fn quantize(coeffs: &[f64; 64], table: &[u16; 64]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for i in 0..64 {
        // Clamping before rounding saturates exactly as rounding first and
        // then casting does.
        let x = (coeffs[i] / f64::from(table[i])).clamp(-32768.0, 32767.0);
        out[i] = round_half_away(x) as i16;
    }
    out
}

/// Adding and then subtracting 1.5·2⁵² rounds any |x| < 2⁵¹ to the
/// nearest integer, ties to even: the sum lies in [2⁵², 2⁵³), where doubles
/// are exactly the integers. That integer also sits in the low bits of the
/// sum's representation, in two's complement.
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// How far apart, in quantization steps, the coefficient
/// [`quantize_clear`] rounds and the one [`quantize`] rounds can lie for a
/// block of level-shifted 8-bit samples: 2⁻³². DESIGN.md "Codec
/// exactness" derives it; `error_stays_inside_the_derived_bound` checks it.
pub(crate) const FAST_ERROR_BOUND: f64 = f64::EPSILON * 1_048_576.0;

/// [`quantize_clear`] gives up on a block when a coefficient lies closer
/// than this to a rounding tie: 2⁻²⁰, 2¹² times [`FAST_ERROR_BOUND`].
pub(crate) const TIE_MARGIN: f64 = 1.0 / 1_048_576.0;

const _: () = assert!(TIE_MARGIN >= 4096.0 * FAST_ERROR_BOUND);

/// [`quantize`]'s result for a block of level-shifted 8-bit samples,
/// computed from `dct::forward_aan`'s outputs and
/// `dct::quant_multipliers`' factors, or `None` when some coefficient lies
/// within [`TIE_MARGIN`] of a rounding tie. Everywhere else the exact
/// coefficient is within [`FAST_ERROR_BOUND`] of this one, so both round
/// to the same integer.
pub(crate) fn quantize_clear(sums: &[f64; 64], mult: &[f64; 64]) -> Option<[i16; 64]> {
    let mut out = [0i16; 64];
    let mut clear = true;
    for ((o, &s), &m) in out.iter_mut().zip(sums).zip(mult) {
        let x = s * m;
        let y = x + ROUNDER;
        clear &= (x - (y - ROUNDER)).abs() < 0.5 - TIE_MARGIN;
        *o = y.to_bits() as i16;
    }
    clear.then_some(out)
}

/// The decoder's pixel, `round_half_away(x.clamp(-1.0, 256.0)).clamp(0,
/// 255)`, without the saturating float→int cast. Rounding commutes with
/// clamping to [0, 255], whose ends are integers, and NaN fails `x > 0.0`,
/// so it lands on 0, as the cast puts it. Rounding ties to even falls short
/// of ties away from zero exactly when the remainder is +½.
#[inline]
pub(crate) fn round_pixel(x: f64) -> u8 {
    let x = if x > 0.0 { x.min(255.0) } else { 0.0 };
    let y = x + ROUNDER;
    y.to_bits() as u8 + u8::from(x - (y - ROUNDER) == 0.5)
}

/// Dequantizes back to coefficient space: the reference codec's step (the
/// decoder dequantizes nonzero entries only).
#[cfg(test)]
pub(crate) fn dequantize(q: &[i16; 64], table: &[u16; 64]) -> [f64; 64] {
    let mut out = [0.0; 64];
    for i in 0..64 {
        out[i] = f64::from(q[i]) * f64::from(table[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jpeg::dct;
    use crate::jpeg::zigzag::ZIGZAG;

    #[test]
    fn quality_50_is_base_table() {
        assert_eq!(table_for_quality(50), BASE_LUMA);
    }

    #[test]
    fn higher_quality_divides_less() {
        let q90 = table_for_quality(90);
        let q10 = table_for_quality(10);
        for i in 0..64 {
            assert!(q90[i] <= BASE_LUMA[i]);
            assert!(q10[i] >= BASE_LUMA[i]);
        }
    }

    #[test]
    fn entries_always_at_least_one() {
        for q in [1u8, 25, 50, 75, 99, 100] {
            assert!(table_for_quality(q).iter().all(|&v| (1..=255).contains(&v)));
        }
    }

    #[test]
    fn quantize_roundtrip_error_bounded() {
        let table = table_for_quality(75);
        let mut coeffs = [0.0; 64];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f64 - 32.0) * 7.3;
        }
        let q = quantize(&coeffs, &table);
        let back = dequantize(&q, &table);
        for i in 0..64 {
            assert!(
                (coeffs[i] - back[i]).abs() <= f64::from(table[i]) / 2.0 + 1e-9,
                "bin {i}"
            );
        }
    }

    #[test]
    fn small_coefficients_vanish() {
        let table = table_for_quality(50);
        let mut coeffs = [0.4; 64];
        coeffs[0] = 500.0;
        let q = quantize(&coeffs, &table);
        assert_ne!(q[0], 0);
        assert!(
            q[1..].iter().all(|&v| v == 0),
            "tiny ACs must quantize to 0"
        );
    }

    #[test]
    fn round_half_away_is_f64_round() {
        let mut cases = vec![
            0.49999999999999994,
            -0.49999999999999994,
            0.5000000000000001,
            -0.5000000000000001,
            0.0,
            -0.0,
            f64::NAN,
            2147483647.0,
            -2147483648.0,
            2147483646.5,
            -2147483647.5,
        ];
        // Every tie from -1024.5 to 1024.5, and the integers between.
        cases.extend((-2049..=2049).map(|h| f64::from(h) / 2.0));
        let mut rng = ncs_sim::SimRng::new(75);
        for _ in 0..100_000 {
            let span = [1.0, 1100.0, 2147483647.0][(rng.next_u64() % 3) as usize];
            cases.push(rng.gen_f64_range(-span, span));
        }
        for x in cases {
            assert_eq!(round_half_away(x), x.round() as i32, "{x:e}");
        }
    }

    /// Every tie and every integer from −2 to 258, one ulp either side,
    /// the extremes and NaN: [`round_pixel`] is the clamped
    /// [`round_half_away`] of the reference decoder.
    #[test]
    fn round_pixel_is_clamped_round_half_away() {
        let oracle = |x: f64| round_half_away(x.clamp(-1.0, 256.0)).clamp(0, 255) as u8;
        let mut cases = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            0.0,
            -0.0,
            0.49999999999999994,
            254.49999999999997,
        ];
        for h in -4..=516 {
            let x = f64::from(h) / 2.0;
            cases.extend([x.next_down(), x, x.next_up()]);
        }
        let mut rng = ncs_sim::SimRng::new(40);
        cases.extend((0..10_000).map(|_| rng.gen_f64_range(-300.0, 600.0)));
        for x in cases {
            assert_eq!(round_pixel(x), oracle(x), "{x:e}");
        }
    }

    /// For every multiplier of qualities 1–100: at a tie `n + ½` and one
    /// ulp either side [`quantize_clear`] falls back; clear of the tie it
    /// rounds as [`round_half_away`] does, negative steps included.
    #[test]
    fn clear_quantizer_falls_back_at_ties() {
        for quality in 1..=100 {
            let mult = dct::quant_multipliers(&table_for_quality(quality));
            for (k, &m) in mult.iter().enumerate() {
                for n in [-1025, -64, -3, -2, -1, 0, 1, 2, 63, 1024] {
                    let tie = f64::from(n) + 0.5;
                    let at = [tie.next_down(), tie, tie.next_up()];
                    let clear = [tie - 4.0 * TIE_MARGIN, tie + 4.0 * TIE_MARGIN, tie - 0.25];
                    for (x, falls_back) in at
                        .map(|x| (x, true))
                        .into_iter()
                        .chain(clear.map(|x| (x, false)))
                    {
                        let mut sums = [0.0; 64];
                        sums[k] = x / m;
                        let seen = sums[k] * m;
                        let got = quantize_clear(&sums, &mult);
                        let what = format!("q{quality} k{k} {x:e}");
                        if falls_back {
                            assert_eq!(got, None, "{what}");
                        } else {
                            let q = got.unwrap_or_else(|| panic!("fell back: {what}"));
                            assert_eq!(i32::from(q[k]), round_half_away(seen), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// On random 8-bit blocks, extremes and checkerboards included, every
    /// coefficient of the fast path lies within [`FAST_ERROR_BOUND`] of
    /// the exact path's, at every quality.
    #[test]
    fn error_stays_inside_the_derived_bound() {
        ncs_sim::prop::check("error_stays_inside_the_derived_bound", 256, |g| {
            let block: [f64; 64] = match g.range(0..3) {
                0 => std::array::from_fn(|i| if (i / 8 + i) % 2 == 0 { -128.0 } else { 127.0 }),
                1 => std::array::from_fn(|_| *g.pick(&[-128.0, 127.0])),
                _ => std::array::from_fn(|_| g.range(0..256) as f64 - 128.0),
            };
            let quality = g.range(1..=100) as u8;
            let table = table_for_quality(quality);
            let (fast, exact) = (dct::forward_aan(&block), dct::forward_fast(&block));
            let mult = dct::quant_multipliers(&table);
            for (k, &i) in ZIGZAG.iter().enumerate() {
                let err = (fast[k] * mult[k] - exact[i] / f64::from(table[i])).abs();
                assert!(
                    err <= FAST_ERROR_BOUND,
                    "q{quality} coefficient {i}: {err:e}"
                );
            }
        });
    }

    #[test]
    fn quantize_saturates_like_round_then_cast() {
        let table = [1u16; 64];
        let mut coeffs = [0.0; 64];
        let edges = [
            32766.5,
            32767.0,
            32767.49,
            32767.5,
            40000.0,
            -32767.5,
            -32768.0,
            -32768.5,
            -40000.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        coeffs[..edges.len()].copy_from_slice(&edges);
        let q = quantize(&coeffs, &table);
        for (i, x) in edges.iter().enumerate() {
            assert_eq!(q[i], x.round() as i16, "{x:e}");
        }
    }
}
