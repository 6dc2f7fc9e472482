//! Canonical Huffman coding — the entropy stage the JPEG standard actually
//! uses, as an alternative to the byte-aligned RLE coder in
//! [`crate::jpeg::entropy`].
//!
//! Symbols are JPEG-style `(run, size)` pairs: `run` zero coefficients
//! followed by a value whose magnitude category is `size`, with the value's
//! bits appended raw after the Huffman code (exactly T.81's scheme). Code
//! tables are built per message from symbol frequencies, emitted as a
//! 256-byte code-length header, and reconstructed canonically on decode —
//! so the stream is self-contained.

use std::collections::BinaryHeap;

/// End-of-block symbol (run = 0, size = 0).
const SYM_EOB: u16 = 0;
/// Zero-run-of-16 symbol (T.81's ZRL).
const SYM_ZRL: u16 = 0xF0;

/// Maximum code length we permit (canonical reassignment keeps us ≤ 16,
/// like T.81).
const MAX_CODE_LEN: u8 = 16;

/// Decode failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HuffError {
    /// Stream ended mid-symbol.
    Truncated,
    /// Header or code structure invalid.
    Malformed,
}

impl std::fmt::Display for HuffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffError::Truncated => write!(f, "huffman stream truncated"),
            HuffError::Malformed => write!(f, "huffman stream malformed"),
        }
    }
}

impl std::error::Error for HuffError {}

// --- bit I/O ---------------------------------------------------------------

/// MSB-first bit writer.
#[derive(Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u8,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends the low `n` bits of `bits`, MSB first.
    pub fn put(&mut self, bits: u32, n: u8) {
        debug_assert!(n <= 24);
        if n == 0 {
            return;
        }
        let mask = (1u32 << n) - 1;
        self.acc = (self.acc << n) | (bits & mask);
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Pads with 1-bits to a byte boundary and returns the stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put((1u32 << pad) - 1, pad);
        }
        self.out
    }
}

/// MSB-first bit reader.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u8,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte stream.
    pub fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Reads one bit.
    pub fn bit(&mut self) -> Result<u32, HuffError> {
        if self.nbits == 0 {
            let &b = self.data.get(self.pos).ok_or(HuffError::Truncated)?;
            self.pos += 1;
            self.acc = u32::from(b);
            self.nbits = 8;
        }
        self.nbits -= 1;
        Ok((self.acc >> self.nbits) & 1)
    }

    /// Reads `n` bits MSB-first.
    pub fn bits(&mut self, n: u8) -> Result<u32, HuffError> {
        let mut v = 0;
        for _ in 0..n {
            v = (v << 1) | self.bit()?;
        }
        Ok(v)
    }
}

// --- canonical code construction -------------------------------------------

/// Computes canonical code lengths from frequencies (0 = symbol unused).
fn code_lengths(freqs: &[u64; 256]) -> [u8; 256] {
    // Package-merge would be exact; a Huffman tree with depth clamping is
    // plenty here (clamping is a rare fallback re-run with flattened
    // frequencies).
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        idx: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap by weight, ties by index for determinism.
            (other.weight, other.idx).cmp(&(self.weight, self.idx))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut freqs = *freqs;
    loop {
        let used: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
        let mut lens = [0u8; 256];
        match used.len() {
            0 => return lens,
            1 => {
                lens[used[0]] = 1;
                return lens;
            }
            _ => {}
        }
        // parents[k] for internal/leaf nodes; leaves are 0..256 by symbol,
        // internals appended after.
        let mut parents: Vec<Option<usize>> = vec![None; 256];
        let mut heap: BinaryHeap<Node> = used
            .iter()
            .map(|&s| Node {
                weight: freqs[s],
                idx: s,
            })
            .collect();
        while heap.len() > 1 {
            let a = heap.pop().unwrap();
            let b = heap.pop().unwrap();
            let parent = parents.len();
            parents.push(None);
            parents[a.idx] = Some(parent);
            parents[b.idx] = Some(parent);
            heap.push(Node {
                weight: a.weight + b.weight,
                idx: parent,
            });
        }
        let mut too_deep = false;
        for &s in &used {
            let mut len = 0u8;
            let mut n = s;
            while let Some(p) = parents[n] {
                len += 1;
                n = p;
            }
            if len > MAX_CODE_LEN {
                too_deep = true;
                break;
            }
            lens[s] = len;
        }
        if !too_deep {
            return lens;
        }
        // Flatten the distribution and retry (bounded: converges to
        // uniform, whose depth is 8).
        for f in freqs.iter_mut() {
            if *f > 0 {
                *f = f.div_ceil(2);
            }
        }
    }
}

/// Assigns canonical codes from lengths: shorter codes first, ties in
/// symbol order.
fn canonical_codes(lens: &[u8; 256]) -> [(u32, u8); 256] {
    let mut symbols: Vec<usize> = (0..256).filter(|&s| lens[s] > 0).collect();
    symbols.sort_by_key(|&s| (lens[s], s));
    let mut codes = [(0u32, 0u8); 256];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &s in &symbols {
        code <<= lens[s] - prev_len;
        codes[s] = (code, lens[s]);
        code += 1;
        prev_len = lens[s];
    }
    codes
}

// --- public coder -----------------------------------------------------------

/// JPEG magnitude category of a value (bits needed for |v|).
fn size_of(v: i32) -> u8 {
    (32 - v.unsigned_abs().leading_zeros()) as u8
}

/// T.81 value coding: positive values as-is; negative values as
/// `v - 1 + 2^size` (one's-complement style).
fn value_bits(v: i32, size: u8) -> u32 {
    if v >= 0 {
        v as u32
    } else {
        (v - 1 + (1 << size)) as u32
    }
}

fn value_from_bits(bits: u32, size: u8) -> i32 {
    if size == 0 {
        0
    } else if bits >> (size - 1) != 0 {
        bits as i32
    } else {
        bits as i32 - (1 << size) + 1
    }
}

/// Encodes zig-zag blocks with per-message canonical Huffman tables.
/// Stream layout: `[256-byte code-length table][bit stream]`.
pub fn encode_blocks(blocks: &[[i16; 64]]) -> Vec<u8> {
    // Pass 1: symbol stream + frequencies.
    let mut syms: Vec<(u16, i32)> = Vec::new();
    let mut prev_dc = 0i16;
    for zz in blocks {
        let dc_delta = i32::from(zz[0]) - i32::from(prev_dc);
        prev_dc = zz[0];
        // DC coded as (run=0, size) with its own symbol space offset 0x00.
        syms.push((u16::from(size_of(dc_delta)), dc_delta));
        let mut run = 0u16;
        for &v in &zz[1..] {
            if v == 0 {
                run += 1;
            } else {
                while run >= 16 {
                    syms.push((SYM_ZRL, 0));
                    run -= 16;
                }
                let size = size_of(i32::from(v));
                syms.push(((run << 4) | u16::from(size), i32::from(v)));
                run = 0;
            }
        }
        syms.push((SYM_EOB, 0));
    }
    let mut freqs = [0u64; 256];
    for &(s, _) in &syms {
        freqs[s as usize] += 1;
    }
    let lens = code_lengths(&freqs);
    let codes = canonical_codes(&lens);

    let mut out = Vec::with_capacity(256 + syms.len());
    out.extend_from_slice(&lens);
    let mut bw = BitWriter::new();
    for &(s, v) in &syms {
        let (code, len) = codes[s as usize];
        debug_assert!(len > 0, "symbol {s} has no code");
        bw.put(code, len);
        let size = (s & 0x0F) as u8;
        if s != SYM_ZRL && size > 0 {
            bw.put(value_bits(v, size), size);
        }
    }
    out.extend_from_slice(&bw.finish());
    out
}

/// Decodes `n_blocks` zig-zag blocks from a stream made by
/// [`encode_blocks`].
pub fn decode_blocks(data: &[u8], n_blocks: usize) -> Result<Vec<[i16; 64]>, HuffError> {
    if data.len() < 256 {
        return Err(HuffError::Truncated);
    }
    let mut lens = [0u8; 256];
    lens.copy_from_slice(&data[..256]);
    if lens.iter().any(|&l| l > MAX_CODE_LEN) {
        return Err(HuffError::Malformed);
    }
    let codes = canonical_codes(&lens);
    // Decode table: (len, code) -> symbol, via linear scan per bit length
    // (tables are tiny; simplicity over speed).
    let mut by_len: Vec<Vec<(u32, u16)>> = vec![Vec::new(); usize::from(MAX_CODE_LEN) + 1];
    for s in 0..256 {
        if lens[s] > 0 {
            by_len[usize::from(lens[s])].push((codes[s].0, s as u16));
        }
    }
    let mut br = BitReader::new(&data[256..]);
    let read_symbol = |br: &mut BitReader| -> Result<u16, HuffError> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN {
            code = (code << 1) | br.bit()?;
            if let Some(&(_, s)) = by_len[usize::from(len)].iter().find(|&&(c, _)| c == code) {
                return Ok(s);
            }
        }
        Err(HuffError::Malformed)
    };

    let mut blocks = Vec::with_capacity(n_blocks);
    let mut prev_dc = 0i16;
    for _ in 0..n_blocks {
        let mut zz = [0i16; 64];
        // DC.
        let s = read_symbol(&mut br)?;
        if s > 15 {
            return Err(HuffError::Malformed); // DC symbols are pure sizes
        }
        let size = s as u8;
        let delta = value_from_bits(br.bits(size)?, size);
        let dc = i32::from(prev_dc) + delta;
        prev_dc = dc as i16;
        zz[0] = dc as i16;
        // AC.
        let mut k = 1usize;
        loop {
            let s = read_symbol(&mut br)?;
            if s == SYM_EOB {
                break;
            }
            if s == SYM_ZRL {
                k += 16;
                if k > 64 {
                    return Err(HuffError::Malformed);
                }
                continue;
            }
            let run = usize::from(s >> 4);
            let size = (s & 0x0F) as u8;
            k += run;
            if size == 0 || k >= 64 {
                return Err(HuffError::Malformed);
            }
            zz[k] = value_from_bits(br.bits(size)?, size) as i16;
            k += 1;
        }
        blocks.push(zz);
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_block(dc: i16, taps: &[(usize, i16)]) -> [i16; 64] {
        let mut b = [0i16; 64];
        b[0] = dc;
        for &(k, v) in taps {
            b[k] = v;
        }
        b
    }

    #[test]
    fn roundtrip_typical_blocks() {
        let blocks = vec![
            sparse_block(73, &[(1, -3), (5, 2), (20, 1)]),
            sparse_block(70, &[(2, 8)]),
            sparse_block(70, &[]),
            sparse_block(-40, &[(63, -1)]),
        ];
        let enc = encode_blocks(&blocks);
        let dec = decode_blocks(&enc, blocks.len()).unwrap();
        assert_eq!(dec, blocks);
    }

    #[test]
    fn roundtrip_dense_block() {
        let mut b = [0i16; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as i16 % 17) - 8;
        }
        let enc = encode_blocks(&[b]);
        assert_eq!(decode_blocks(&enc, 1).unwrap(), vec![b]);
    }

    #[test]
    fn long_zero_runs_use_zrl() {
        let b = sparse_block(10, &[(40, 5)]); // 39 zeros: 2 ZRLs + run 7
        let enc = encode_blocks(&[b]);
        assert_eq!(decode_blocks(&enc, 1).unwrap(), vec![b]);
    }

    #[test]
    fn beats_plain_bytes_on_sparse_data() {
        let blocks: Vec<[i16; 64]> = (0..64)
            .map(|i| sparse_block(50 + (i % 5) as i16, &[(1, 1), (3, -2)]))
            .collect();
        let enc = encode_blocks(&blocks);
        // 64 blocks × 128 raw bytes = 8192; Huffman with header must be
        // far smaller.
        assert!(
            enc.len() < 1500,
            "huffman stream too large: {} bytes",
            enc.len()
        );
    }

    #[test]
    fn value_bit_coding_matches_t81() {
        for v in [-255, -128, -1, 0, 1, 127, 255] {
            let size = size_of(v);
            if size > 0 {
                assert_eq!(value_from_bits(value_bits(v, size), size), v, "v={v}");
            } else {
                assert_eq!(v, 0);
            }
        }
        assert_eq!(size_of(0), 0);
        assert_eq!(size_of(1), 1);
        assert_eq!(size_of(-1), 1);
        assert_eq!(size_of(255), 8);
    }

    #[test]
    fn truncated_stream_detected() {
        let blocks = vec![sparse_block(5, &[(7, 3)])];
        let mut enc = encode_blocks(&blocks);
        enc.truncate(256); // header only
        assert!(decode_blocks(&enc, 1).is_err());
        assert_eq!(decode_blocks(&enc[..100], 1), Err(HuffError::Truncated));
    }

    #[test]
    fn single_symbol_stream() {
        // All-zero blocks: only DC size-0 and EOB symbols exist.
        let blocks = vec![[0i16; 64]; 3];
        let enc = encode_blocks(&blocks);
        assert_eq!(decode_blocks(&enc, 3).unwrap(), blocks);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use ncs_sim::prop;

    /// Arbitrary coefficient blocks roundtrip losslessly.
    #[test]
    fn any_blocks_roundtrip() {
        prop::check("huffman::any_blocks_roundtrip", 64, |g| {
            let blocks: Vec<[i16; 64]> = g.vec(1..5, |g| {
                std::array::from_fn(|_| g.range(0..4000) as i16 - 2000)
            });
            let enc = encode_blocks(&blocks);
            let dec = decode_blocks(&enc, blocks.len()).unwrap();
            assert_eq!(dec, blocks);
        });
    }
}
