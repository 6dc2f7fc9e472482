//! A real grayscale JPEG-style codec (paper Section 5.2).
//!
//! The paper distributes "the sequential JPEG compression algorithm"; this
//! module provides that sequential algorithm — 8×8 [`dct`], [`quant`]
//! (T.81 tables with libjpeg quality scaling), [`zigzag`] scan and a
//! run-length [`entropy`] coder — assembled in [`codec`].

pub mod codec;
pub mod dct;
pub mod entropy;
pub mod quant;
pub mod zigzag;

pub use codec::{compress, decompress, CodecError, EntropyKind};

/// The set bits of `mask`, lowest first: the coefficients a nonzero mask
/// names.
pub(crate) fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        bit
    })
}

/// Bit `i` set exactly where `flags[i]`. The flags become eight 0/1 bytes,
/// and one multiply gathers byte `i` at bit `56 + i`: every other product
/// lands below bit 56 or above bit 63, each at a bit of its own, so nothing
/// carries.
pub(crate) fn mask8(flags: [bool; 8]) -> u64 {
    u64::from_le_bytes(flags.map(u8::from)).wrapping_mul(0x0102_0408_1020_4080) >> 56
}
