//! Zig-zag coefficient ordering: low frequencies first, so the quantized
//! tail of zeros is contiguous and run-length codes well.

use super::mask8;

/// Row-major index of the k-th coefficient in zig-zag order.
pub(crate) const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// Zig-zag position of row-major coefficient `i`: the inverse of [`ZIGZAG`].
pub(crate) const ZIGZAG_POS: [usize; 64] = {
    let mut pos = [0; 64];
    let mut k = 0;
    while k < 64 {
        pos[ZIGZAG[k]] = k;
        k += 1;
    }
    pos
};

/// Bit `k` set exactly where `zz[k]` is nonzero.
pub(crate) fn nonzero_mask(zz: &[i16; 64]) -> u64 {
    zz.chunks_exact(8).enumerate().fold(0, |m, (c, eight)| {
        m | mask8(std::array::from_fn(|i| eight[i] != 0)) << (8 * c)
    })
}

/// Reorders a row-major block into zig-zag order.
pub(crate) fn to_zigzag(block: &[i16; 64]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for (k, &idx) in ZIGZAG.iter().enumerate() {
        out[k] = block[idx];
    }
    out
}

/// Restores row-major order from zig-zag order: the reference codec's step
/// (the decoder scatters nonzero entries only).
#[cfg(test)]
pub(crate) fn from_zigzag(zz: &[i16; 64]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for (k, &idx) in ZIGZAG.iter().enumerate() {
        out[idx] = zz[k];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn positions_invert_the_scan() {
        for (k, &i) in ZIGZAG.iter().enumerate() {
            assert_eq!(ZIGZAG_POS[i], k);
        }
    }

    #[test]
    fn nonzero_mask_marks_nonzero_entries() {
        let mut zz = [0i16; 64];
        assert_eq!(nonzero_mask(&zz), 0);
        zz[0] = -1;
        zz[5] = 3;
        zz[63] = i16::MIN;
        assert_eq!(nonzero_mask(&zz), 1 | 1 << 5 | 1 << 63);
        for k in 0..64 {
            let mut one = [0i16; 64];
            one[k] = 1;
            assert_eq!(nonzero_mask(&one), 1 << k);
            assert_eq!(nonzero_mask(&[7; 64]) & 1 << k, 1 << k);
        }
    }

    #[test]
    fn starts_dc_then_first_diagonal() {
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn diagonal_monotone_frequency() {
        // Sum of (row, col) — the "frequency shell" — never decreases by
        // more than 0 along the scan and covers 0..=14.
        let mut prev_shell = 0;
        for &idx in &ZIGZAG {
            let shell = idx / 8 + idx % 8;
            assert!(shell + 1 >= prev_shell, "shell jumped backwards at {idx}");
            prev_shell = shell;
        }
    }

    #[test]
    fn roundtrip() {
        let mut block = [0i16; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as i16 * 3 - 50;
        }
        assert_eq!(from_zigzag(&to_zigzag(&block)), block);
    }
}
