//! CRC algorithms used by the ATM protocol stack.
//!
//! * **CRC-8 HEC** — ITU-T I.432 header error control: polynomial
//!   `x^8 + x^2 + x + 1` (0x07), with the 0x55 coset added to the remainder.
//! * **CRC-32** — AAL5 CS-PDU trailer check: the IEEE 802.3 polynomial in
//!   MSB-first (non-reflected) form with init/xorout all-ones, i.e. the
//!   "CRC-32/BZIP2" parameterization, which is what I.363.5 specifies.
//!
//! Both are table-driven, and both sets of tables come from one `const fn`
//! generator (`msb_table`) applied to the defining polynomial, so the
//! tables are compile-time constants (20 KiB of read-only data: 4 KiB for
//! the HEC, 16 KiB for CRC-32; no set-up work, no lazy-initialisation
//! branch). Every register is kept left-aligned in a `u32`, which lets the
//! 8- and 32-bit CRCs share one generator.
//!
//! CRC-32 sits on the simulator's data path — NCS error control checksums
//! every data frame at both ends, and the fault-injection path runs the AAL5
//! trailer check — so it consumes sixteen bytes per step (slicing-by-16)
//! and has a streaming form, [`Crc32`], that lets framing code checksum a
//! message in the pieces it already holds instead of staging a contiguous
//! copy.
//!
//! The bit-serial forms, which transcribe the polynomials directly, are kept
//! under `#[cfg(test)]` as the oracles the tables are checked against.

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
        let (blocks, tail) = data.as_chunks::<SLICE>();
        let mut crc = self.state;
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
        Crc32 {
            state: msb_update(&CRC32_TABLES[0], crc, tail),
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
        let mut crc: u32 = 0xFFFF_FFFF;
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
        !crc
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

    #[test]
    fn crc32_matches_bit_serial_oracle_at_every_short_length() {
        // 0..=80 crosses the 16-byte stride five times, with every tail length.
        let buf = seeded_bytes(0xAA15, 80);
        for len in 0..=80 {
            assert_eq!(
                crc32_aal5(&buf[..len]),
                oracle::crc32_aal5(&buf[..len]),
                "len {len}"
            );
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
            assert_eq!(
                crc32_aal5(&buf),
                oracle::crc32_aal5(&buf),
                "seed {seed}, len {len}"
            );
        }
    }

    #[test]
    fn crc32_streaming_split_anywhere_equals_one_shot() {
        let buf = seeded_bytes(0x5717, 257);
        let whole = crc32_aal5(&buf);
        assert_eq!(whole, oracle::crc32_aal5(&buf));
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                whole,
                "split at {cut}"
            );
        }
        // Three pieces, the middle one shorter than a stride.
        let three = Crc32::new()
            .update(&buf[..100])
            .update(&buf[100..103])
            .update(&buf[103..]);
        assert_eq!(three.finish(), whole);
    }
}
