//! Quantization — where JPEG throws information away.

/// The ITU-T T.81 Annex K luminance quantization table (quality 50).
pub const BASE_LUMA: [u16; 64] = [
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
pub fn table_for_quality(quality: u8) -> [u16; 64] {
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
pub fn round_half_away(x: f64) -> i32 {
    let t = x as i32;
    let f = x - f64::from(t);
    t + i32::from(f >= 0.5) - i32::from(f <= -0.5)
}

/// Quantizes DCT coefficients (round-to-nearest, ties away from zero,
/// saturating at the `i16` range).
pub fn quantize(coeffs: &[f64; 64], table: &[u16; 64]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for i in 0..64 {
        // Clamping before rounding saturates exactly as rounding first and
        // then casting does.
        let x = (coeffs[i] / f64::from(table[i])).clamp(-32768.0, 32767.0);
        out[i] = round_half_away(x) as i16;
    }
    out
}

/// Dequantizes back to coefficient space.
pub fn dequantize(q: &[i16; 64], table: &[u16; 64]) -> [f64; 64] {
    let mut out = [0.0; 64];
    for i in 0..64 {
        out[i] = f64::from(q[i]) * f64::from(table[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
