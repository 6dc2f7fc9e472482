//! CRC algorithms used by the ATM protocol stack.
//!
//! * **CRC-8 HEC** — ITU-T I.432 header error control: polynomial
//!   `x^8 + x^2 + x + 1` (0x07), with the 0x55 coset added to the remainder.
//! * **CRC-32** — AAL5 CS-PDU trailer check: the IEEE 802.3 polynomial in
//!   MSB-first (non-reflected) form with init/xorout all-ones, i.e. the
//!   "CRC-32/BZIP2" parameterization, which is what I.363.5 specifies.
//!
//! Both have tables, and both sets come from one `const fn` generator
//! (`msb_table`) applied to the defining polynomial, so the tables are
//! compile-time constants (20 KiB of read-only data: 4 KiB for the HEC,
//! 16 KiB for CRC-32; no set-up work, no lazy-initialisation branch). Every
//! register is kept left-aligned in a `u32`, which lets the 8- and 32-bit
//! CRCs share one generator.
//!
//! CRC-32 sits on the simulator's data path — NCS error control checksums
//! every data frame at both ends, and the fault-injection path runs the AAL5
//! trailer check — so it has two kernels behind one streaming form,
//! [`Crc32`], that lets framing code checksum a message in the pieces it
//! already holds instead of staging a contiguous copy. On an x86-64 CPU with
//! PCLMULQDQ and SSSE3, an input of at least `FOLD_MIN` bytes is folded 64
//! bytes a step with carry-less multiplies (about 0.05 ns/B against the
//! tables' 0.5); shorter inputs, other CPUs and other targets take the
//! slicing-by-16 tables, sixteen bytes per step. The fold's constants are
//! `const fn` values computed from the polynomial, as the tables are, and
//! its one `unsafe` call (into the `#[target_feature]` function, after the
//! run-time feature check) is the crate's only one.
//!
//! The bit-serial forms, which transcribe the polynomials directly, are kept
//! under `#[cfg(test)]` as the oracles both kernels are checked against.

/// CRC-8 HEC generator, left-aligned in 32 bits.
const HEC_POLY: u32 = 0x07 << 24;
/// CRC-32 generator (IEEE 802.3, MSB-first).
const CRC32_POLY: u32 = 0x04C1_1DB7;

/// Builds the byte-at-a-time table for an MSB-first CRC whose generator is
/// given left-aligned in 32 bits: entry `i` is the register after clocking
/// the byte `i` through an all-zero register.
const fn msb_table(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u32) << 24;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000_0000 != 0 {
                (crc << 1) ^ poly
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Bytes the CRC-32 consumes per step (slicing-by-16).
const SLICE: usize = 16;

/// Extends [`msb_table`] to slicing-by-`N`: `tables[k][i]` is the register
/// after clocking byte `i` followed by `k` zero bytes.
const fn msb_slices<const N: usize>(poly: u32) -> [[u32; 256]; N] {
    let mut tables = [msb_table(poly); N];
    let mut k = 1;
    while k < N {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev << 8) ^ tables[0][(prev >> 24) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static HEC_TABLES: [[u32; 256]; 4] = msb_slices(HEC_POLY);
static CRC32_TABLES: [[u32; 256]; SLICE] = msb_slices(CRC32_POLY);

/// Clocks `data` through a left-aligned MSB-first register, one byte per
/// table lookup.
fn msb_update(table: &[u32; 256], mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc << 8) ^ table[((crc >> 24) as u8 ^ byte) as usize];
    }
    crc
}

/// Clocks `data` through the CRC-32 register `crc`, sixteen bytes per step.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<SLICE>();
    for block in blocks {
        // The register meets only the block's first four bytes; byte `i`
        // then has `SLICE - 1 - i` more bytes clocked in behind it.
        let head = crc.to_be_bytes();
        let mut next = 0;
        for (i, &byte) in block.iter().enumerate() {
            let byte = if i < 4 { byte ^ head[i] } else { byte };
            next ^= CRC32_TABLES[SLICE - 1 - i][byte as usize];
        }
        crc = next;
    }
    msb_update(&CRC32_TABLES[0], crc, tail)
}

/// Inputs at least this long take the carry-less-multiply kernel on a CPU
/// that has one; shorter inputs take the tables. Timed every 8 bytes from
/// 16 to 256 on an AVX-512 Xeon, three runs: the two tie at 40 bytes, the
/// fold is ahead at 48 in two runs of three (0.24 vs 0.28 ns/B) and in
/// every run from 56 on (0.17 vs 0.30 ns/B at 64, 0.066 vs 0.45 at 256).
const FOLD_MIN: usize = 48;

#[cfg(test)]
thread_local! {
    /// Calls that ran the carry-less-multiply kernel, for the dispatch test.
    static FOLDED_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs the carry-less-multiply kernel over `data` from register `state`,
/// or returns `None` when this CPU has no such instruction.
#[cfg(target_arch = "x86_64")]
fn folded_update(state: u32, data: &[u8]) -> Option<u32> {
    if !(std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("ssse3"))
    {
        return None;
    }
    #[cfg(test)]
    FOLDED_CALLS.with(|n| n.set(n.get() + 1));
    // SAFETY: `clmul::update` is safe code compiled with `pclmulqdq` and
    // `ssse3` enabled; the detection just above shows this CPU has both.
    #[allow(unsafe_code)]
    let crc = unsafe { clmul::update(state, data) };
    Some(crc)
}

#[cfg(not(target_arch = "x86_64"))]
fn folded_update(_state: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// CRC-32 by folding with PCLMULQDQ (and SSSE3's byte shuffle).
///
/// The register is MSB-first, so a block loaded big-endian puts the
/// coefficient of `x^i` at bit `i` and the carry-less product needs no bit
/// reflection. A 128-bit accumulator `A = H·x^64 + L` moves 128 bits down
/// the message as `A·x^128 ≡ H·(x^192 mod P) + L·(x^128 mod P)`: two
/// 64×32-bit products that fit in 128 bits. Four accumulators stride 64
/// bytes (`x^576`, `x^512`), are combined into one, and whole blocks then
/// fold singly. What is left, 128 bits plus a tail under 16 bytes, goes
/// through the tables from a zero register: they compute `D·x^32 mod P`,
/// which is the CRC's remainder, so no Barrett step is needed.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{table_update, CRC32_POLY};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_set_epi8,
        _mm_shuffle_epi8, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// `x^n mod P` for the CRC-32 generator `P`, bit `i` the coefficient of
    /// `x^i`.
    const fn x_pow_mod(n: u32) -> u32 {
        let mut r: u32 = 1;
        let mut i = 0;
        while i < n {
            r = if r & 0x8000_0000 != 0 {
                (r << 1) ^ CRC32_POLY
            } else {
                r << 1
            };
            i += 1;
        }
        r
    }

    /// Fold keys `(x^(128k+64) mod P, x^(128k) mod P)` for a stride of
    /// `k` blocks.
    const STRIDE_1: (u32, u32) = (x_pow_mod(192), x_pow_mod(128));
    const STRIDE_4: (u32, u32) = (x_pow_mod(576), x_pow_mod(512));

    /// A 16-byte block as a polynomial: the first byte's MSB is `x^127`.
    /// Loaded as it lies in memory and byte-reversed in the vector unit
    /// (one `pshufb`): byte-swapping the halves in general registers and
    /// moving them across doubled the kernel's time (0.10 vs 0.05 ns/B).
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        let v = _mm_set_epi64x((v >> 64) as i64, v as i64);
        _mm_shuffle_epi8(
            v,
            _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        )
    }

    /// A stride's keys, the high half's in the upper lane.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn keys((high, low): (u32, u32)) -> __m128i {
        _mm_set_epi64x(i64::from(high), i64::from(low))
    }

    /// `acc` moved down by the stride `keys` encodes, plus `next`.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn fold(acc: __m128i, keys: __m128i, next: __m128i) -> __m128i {
        let high = _mm_clmulepi64_si128::<0x11>(acc, keys);
        let low = _mm_clmulepi64_si128::<0x00>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(high, low), next)
    }

    /// Clocks `data` through the register `state`; equal to the table
    /// kernel for every input.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        // The incoming register meets the first four bytes, as in the tables.
        let seed = _mm_set_epi64x((u64::from(state) << 32) as i64, 0);
        let (quads, rest) = blocks.as_chunks::<4>();
        let (mut acc, singles) = if let Some((head, quads)) = quads.split_first() {
            let mut lanes = head.map(|block| load(&block));
            lanes[0] = _mm_xor_si128(lanes[0], seed);
            let stride = keys(STRIDE_4);
            for quad in quads {
                for (lane, block) in lanes.iter_mut().zip(quad) {
                    *lane = fold(*lane, stride, load(block));
                }
            }
            let stride = keys(STRIDE_1);
            let mut acc = lanes[0];
            for &lane in &lanes[1..] {
                acc = fold(acc, stride, lane);
            }
            (acc, rest)
        } else if let Some((first, singles)) = blocks.split_first() {
            (_mm_xor_si128(load(first), seed), singles)
        } else {
            return table_update(state, data);
        };
        let stride = keys(STRIDE_1);
        for block in singles {
            acc = fold(acc, stride, load(block));
        }
        let high = _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)) as u64;
        let low = _mm_cvtsi128_si64(acc) as u64;
        let rem = (u128::from(high) << 64 | u128::from(low)).to_be_bytes();
        table_update(table_update(0, &rem), tail)
    }
}

/// Computes the ATM Header Error Control byte over the first four header
/// bytes (ITU-T I.432: CRC-8 remainder plus the 0x55 coset).
pub fn hec(header4: &[u8; 4]) -> u8 {
    // The register starts at zero, so the four header bytes are one slice:
    // four independent lookups, no byte-to-byte dependency.
    let [b0, b1, b2, b3] = *header4;
    let t = &HEC_TABLES;
    let crc = t[3][b0 as usize] ^ t[2][b1 as usize] ^ t[1][b2 as usize] ^ t[0][b3 as usize];
    (crc >> 24) as u8 ^ 0x55
}

/// Verifies a 5-byte cell header's HEC field.
pub fn hec_ok(header5: &[u8; 5]) -> bool {
    hec(&[header5[0], header5[1], header5[2], header5[3]]) == header5[4]
}

/// Streaming CRC-32 as used by AAL5 (MSB-first, poly 0x04C11DB7, init
/// 0xFFFF_FFFF, final complement).
///
/// `Crc32::new().update(a).update(b).finish()` equals
/// [`crc32_aal5`] of `a ‖ b` for any split.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub const fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `data` into the checksum.
    #[must_use]
    pub fn update(self, data: &[u8]) -> Self {
        let folded = if data.len() >= FOLD_MIN {
            folded_update(self.state, data)
        } else {
            None
        };
        Crc32 {
            state: folded.unwrap_or_else(|| table_update(self.state, data)),
        }
    }

    /// The CRC-32 of everything folded in so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `data` (see [`Crc32`]).
pub fn crc32_aal5(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// Bit-serial transcriptions of the two polynomials: the reference the
/// table-driven forms are tested against.
#[cfg(test)]
mod oracle {
    pub fn hec(header4: &[u8; 4]) -> u8 {
        let mut crc: u8 = 0;
        for &byte in header4 {
            crc ^= byte;
            for _ in 0..8 {
                crc = if crc & 0x80 != 0 {
                    (crc << 1) ^ 0x07
                } else {
                    crc << 1
                };
            }
        }
        crc ^ 0x55
    }

    pub fn crc32_aal5(data: &[u8]) -> u32 {
        !crc32_register(0xFFFF_FFFF, data)
    }

    /// The register after clocking `data` in from `crc`.
    pub fn crc32_register(mut crc: u32, data: &[u8]) -> u32 {
        for &byte in data {
            crc ^= u32::from(byte) << 24;
            for _ in 0..8 {
                crc = if crc & 0x8000_0000 != 0 {
                    (crc << 1) ^ 0x04C1_1DB7
                } else {
                    crc << 1
                };
            }
        }
        crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK: &[u8] = b"123456789";

    /// Seeded xorshift64* bytes: std-only stand-in for a random buffer.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn hec_of_zero_header_is_coset() {
        // CRC-8 of all-zero input is 0; the transmitted HEC is the 0x55 coset.
        assert_eq!(hec(&[0, 0, 0, 0]), 0x55);
    }

    #[test]
    fn hec_roundtrip_and_detection() {
        let hdr4 = [0x12, 0x34, 0x56, 0x78];
        let h = hec(&hdr4);
        let full = [hdr4[0], hdr4[1], hdr4[2], hdr4[3], h];
        assert!(hec_ok(&full));
        // Any single-bit flip in the protected bytes must be detected
        // (CRC-8 detects all single-bit errors).
        for byte in 0..4 {
            for bit in 0..8 {
                let mut bad = full;
                bad[byte] ^= 1 << bit;
                assert!(!hec_ok(&bad), "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn hec_matches_bit_serial_oracle() {
        // Every value of every header byte, the others drawn from the seed.
        let noise = seeded_bytes(0x4EC, 4 * 256 * 4);
        for (i, other) in noise.chunks_exact(4).enumerate() {
            let mut hdr: [u8; 4] = other.try_into().expect("4 bytes");
            hdr[i % 4] = (i / 4) as u8;
            assert_eq!(hec(&hdr), oracle::hec(&hdr), "header {hdr:02x?}");
        }
    }

    #[test]
    fn crc32_check_vector() {
        // CRC-32/BZIP2 catalogue value for "123456789".
        assert_eq!(crc32_aal5(CHECK), 0xFC89_1918);
    }

    #[test]
    fn crc32_empty_input() {
        // init ^ final-complement with no data: !0xFFFFFFFF = 0.
        assert_eq!(crc32_aal5(&[]), 0);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn crc32_detects_swaps() {
        let a = crc32_aal5(b"abcd");
        let b = crc32_aal5(b"abdc");
        assert_ne!(a, b);
    }

    /// A CRC-32 kernel: the register after clocking the bytes in.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// The dispatching `update` and each kernel this host can run, the
    /// kernels called directly so that the tables are tested above the
    /// fold threshold and the fold below it.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![
            ("update", |state, data| Crc32 { state }.update(data).state),
            ("tables", table_update),
        ];
        if folded_update(0, &[]).is_some() {
            kernels.push(("folded", |state, data| {
                folded_update(state, data).expect("detected above")
            }));
        }
        kernels
    }

    const INIT: u32 = 0xFFFF_FFFF;

    #[test]
    fn crc32_matches_bit_serial_oracle_at_every_short_length() {
        // 0..=300 crosses the 16-byte block and the 64-byte fold stride
        // several times, with every tail length, on both sides of FOLD_MIN.
        let buf = seeded_bytes(0xAA15, 300);
        for (name, kernel) in kernels() {
            for len in 0..=buf.len() {
                assert_eq!(
                    !kernel(INIT, &buf[..len]),
                    oracle::crc32_aal5(&buf[..len]),
                    "{name}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bit_serial_oracle_on_seeded_buffers() {
        for (seed, len) in [
            (1u64, 81usize),
            (2, 511),
            (3, 4096),
            (4, 16 * 1024 + 12),
            (5, 65_535),
            (6, 64 * 1024),
        ] {
            let buf = seeded_bytes(seed, len);
            let want = oracle::crc32_aal5(&buf);
            assert_eq!(crc32_aal5(&buf), want, "seed {seed}, len {len}");
            for (name, kernel) in kernels() {
                assert_eq!(!kernel(INIT, &buf), want, "{name}, seed {seed}, len {len}");
            }
        }
    }

    #[test]
    fn crc32_kernels_continue_from_any_register() {
        // The incoming register meets the first four bytes; a state other
        // than the all-ones init must fold in exactly as the oracle clocks it.
        let states = seeded_bytes(0x57A7, 4 * 8);
        let buf = seeded_bytes(0xC0DE, 1000);
        for state in states
            .chunks_exact(4)
            .map(|b| u32::from_be_bytes(b.try_into().unwrap()))
        {
            for len in [0, 3, 16, 63, 64, 65, 128, 200, 1000] {
                let want = oracle::crc32_register(state, &buf[..len]);
                for (name, kernel) in kernels() {
                    assert_eq!(
                        kernel(state, &buf[..len]),
                        want,
                        "{name}, state {state:#x}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc32_streaming_split_anywhere_equals_one_shot() {
        let buf = seeded_bytes(0x5717, 257);
        let whole = crc32_aal5(&buf);
        assert_eq!(whole, oracle::crc32_aal5(&buf));
        for (name, kernel) in kernels() {
            for cut in 0..=buf.len() {
                let (a, b) = buf.split_at(cut);
                assert_eq!(!kernel(kernel(INIT, a), b), whole, "{name}, split at {cut}");
            }
        }
        // Three pieces, the middle one shorter than a stride.
        let three = Crc32::new()
            .update(&buf[..100])
            .update(&buf[100..103])
            .update(&buf[103..]);
        assert_eq!(three.finish(), whole);
    }

    #[test]
    fn crc32_seeded_three_way_splits_equal_one_shot() {
        let buf = seeded_bytes(0x3A7, 6 * 256);
        let whole = oracle::crc32_aal5(&buf);
        let cuts = seeded_bytes(0xC475, 2 * 40);
        for (name, kernel) in kernels() {
            for pair in cuts.chunks_exact(2) {
                // Cuts spread over the buffer, so pieces range from empty
                // to well above the fold threshold.
                let (x, y) = (usize::from(pair[0]) * 6, usize::from(pair[1]) * 6);
                let (i, j) = (x.min(y), x.max(y));
                let crc = kernel(kernel(kernel(INIT, &buf[..i]), &buf[i..j]), &buf[j..]);
                assert_eq!(!crc, whole, "{name}, cuts {i}, {j}");
            }
        }
    }

    #[test]
    fn crc32_dispatch_folds_from_the_threshold() {
        if folded_update(0, &[]).is_none() {
            return;
        }
        let folds = || FOLDED_CALLS.with(std::cell::Cell::get);
        let buf = seeded_bytes(0xF01D, FOLD_MIN);
        let before = folds();
        let _ = Crc32::new().update(&buf[..FOLD_MIN - 1]);
        assert_eq!(folds(), before, "below FOLD_MIN the tables run");
        let _ = Crc32::new().update(&buf);
        assert_eq!(folds(), before + 1, "at FOLD_MIN the fold runs");
    }
}
