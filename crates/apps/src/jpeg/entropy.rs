//! Entropy coding of quantized coefficients: zero-run-length coding with
//! variable-length integers (a table-free stand-in for JPEG's Huffman
//! stage — lossless, byte-aligned, and compresses the long zero tails the
//! zig-zag scan produces).
//!
//! Stream grammar, per 64-coefficient block (DC first, differentially
//! coded against the previous block):
//!
//! ```text
//! block  := dc_delta:varint  ac*  EOB
//! ac     := run:u8 (0..=62)  value:varint   (value != 0)
//! EOB    := 0xFF
//! ```

/// End-of-block marker byte.
const EOB: u8 = 0xFF;

/// ZigZag-maps a signed value to unsigned for LEB128.
fn zz_enc(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

fn zz_dec(u: u32) -> i32 {
    ((u >> 1) as i32) ^ -((u & 1) as i32)
}

fn put_varint(out: &mut Vec<u8>, v: i32) {
    let mut u = zz_enc(v);
    loop {
        let byte = (u & 0x7F) as u8;
        u >>= 7;
        if u == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<i32, EntropyError> {
    let mut u: u32 = 0;
    let mut shift = 0;
    loop {
        let &byte = data.get(*pos).ok_or(EntropyError::Truncated)?;
        *pos += 1;
        u |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(zz_dec(u));
        }
        shift += 7;
        if shift > 28 {
            return Err(EntropyError::Malformed);
        }
    }
}

/// Decode failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntropyError {
    /// Stream ended mid-block.
    Truncated,
    /// Grammar violation (bad run length, overlong varint).
    Malformed,
}

impl std::fmt::Display for EntropyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntropyError::Truncated => write!(f, "entropy stream truncated"),
            EntropyError::Malformed => write!(f, "entropy stream malformed"),
        }
    }
}

impl std::error::Error for EntropyError {}

/// Appends one zig-zag-ordered block to `out`. `prev_dc` carries the DC
/// predictor across blocks.
pub fn encode_block(zz: &[i16; 64], prev_dc: &mut i16, out: &mut Vec<u8>) {
    put_varint(out, i32::from(zz[0]) - i32::from(*prev_dc));
    *prev_dc = zz[0];
    let mut run: u8 = 0;
    for &v in &zz[1..] {
        if v == 0 {
            run += 1;
        } else {
            out.push(run);
            put_varint(out, i32::from(v));
            run = 0;
        }
    }
    out.push(EOB);
}

/// Decodes one block starting at `pos` (which advances).
pub fn decode_block(
    data: &[u8],
    pos: &mut usize,
    prev_dc: &mut i16,
) -> Result<[i16; 64], EntropyError> {
    let mut zz = [0i16; 64];
    let dc = i32::from(*prev_dc) + get_varint(data, pos)?;
    *prev_dc = dc as i16;
    zz[0] = dc as i16;
    let mut k = 1;
    loop {
        let &byte = data.get(*pos).ok_or(EntropyError::Truncated)?;
        *pos += 1;
        if byte == EOB {
            return Ok(zz);
        }
        let run = byte as usize;
        k += run;
        if k >= 64 {
            return Err(EntropyError::Malformed);
        }
        let v = get_varint(data, pos)?;
        zz[k] = v as i16;
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(blocks: &[[i16; 64]]) {
        let mut out = Vec::new();
        let mut dc = 0i16;
        for b in blocks {
            encode_block(b, &mut dc, &mut out);
        }
        let mut pos = 0;
        let mut dc = 0i16;
        for b in blocks {
            let back = decode_block(&out, &mut pos, &mut dc).unwrap();
            assert_eq!(&back, b);
        }
        assert_eq!(pos, out.len(), "trailing bytes");
    }

    #[test]
    fn roundtrip_sparse_blocks() {
        let mut b1 = [0i16; 64];
        b1[0] = 73;
        b1[5] = -2;
        b1[63] = 1;
        let mut b2 = [0i16; 64];
        b2[0] = 70;
        roundtrip(&[b1, b2]);
    }

    #[test]
    fn roundtrip_dense_block() {
        let mut b = [0i16; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as i16 - 32) * 9;
        }
        roundtrip(&[b]);
    }

    #[test]
    fn all_zero_block_is_two_bytes() {
        let b = [0i16; 64];
        let mut out = Vec::new();
        let mut dc = 0;
        encode_block(&b, &mut dc, &mut out);
        assert_eq!(out, vec![0, EOB]);
    }

    #[test]
    fn truncated_stream_detected() {
        let mut b = [0i16; 64];
        b[0] = 5;
        b[10] = 3;
        let mut out = Vec::new();
        let mut dc = 0;
        encode_block(&b, &mut dc, &mut out);
        out.pop(); // drop the EOB
        let mut pos = 0;
        let mut dc = 0;
        assert_eq!(
            decode_block(&out, &mut pos, &mut dc),
            Err(EntropyError::Truncated)
        );
    }

    #[test]
    fn varint_extremes() {
        for v in [
            0,
            1,
            -1,
            i32::from(i16::MAX),
            i32::from(i16::MIN),
            12345,
            -9876,
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use ncs_sim::prop;

    /// Any sequence of blocks roundtrips losslessly through the coder.
    #[test]
    fn any_blocks_roundtrip() {
        prop::check("entropy::any_blocks_roundtrip", 256, |g| {
            let blocks: Vec<[i16; 64]> = g.vec(1..6, |g| {
                std::array::from_fn(|_| g.range(0..2000) as i16 - 1000)
            });
            let mut out = Vec::new();
            let mut dc = 0i16;
            for b in &blocks {
                encode_block(b, &mut dc, &mut out);
            }
            let mut pos = 0;
            let mut dc = 0i16;
            for b in &blocks {
                let back = decode_block(&out, &mut pos, &mut dc).unwrap();
                assert_eq!(&back, b);
            }
            assert_eq!(pos, out.len());
        });
    }
}
