//! AAL5 — the ATM adaptation layer NCS's High Speed Mode rides on.
//!
//! AAL5 (ITU-T I.363.5) frames a variable-length CS-PDU as:
//!
//! ```text
//! | user payload | 0-pad | 8-byte trailer: UU CPI LEN(2) CRC32(4) |
//! ```
//!
//! padded so the total is a multiple of 48, then slices it into cells; the
//! final cell is marked via the AUU bit of the PT field. There is no per-cell
//! overhead, which is why AAL5 (rather than AAL3/4) became the data AAL —
//! the `ncs-bench` overhead comparison quantifies exactly that.

use crate::cell::{AtmCell, CellHeader, CELL_PAYLOAD};
use crate::crc::Crc32;
use bytes::Bytes;

/// Trailer length in bytes.
pub const TRAILER_BYTES: usize = 8;

/// Maximum CS-PDU payload (16-bit length field).
pub const MAX_PDU: usize = 65_535;

/// Segments `payload` into AAL5 cells on circuit (`vpi`, `vci`).
///
/// Zero-copy: the padded CS-PDU (payload + pad + trailer) is materialized
/// exactly once, and every cell holds a [`Bytes`] slice into it — no
/// per-cell payload copy. The trailer CRC is streamed over the payload as it
/// is appended, then over the pad and trailer head. Returns
/// [`Aal5Error::PduTooLarge`] when `payload` exceeds [`MAX_PDU`] (the NCS
/// I/O-buffer layer chunks larger transfers, so it never hands AAL5 more
/// than one buffer at once, but direct users get a typed error rather than
/// an abort).
pub fn segment(payload: &[u8], vpi: u8, vci: u16) -> Result<Vec<AtmCell>, Aal5Error> {
    if payload.len() > MAX_PDU {
        return Err(Aal5Error::PduTooLarge {
            len: payload.len(),
            max: MAX_PDU,
        });
    }
    let total = (payload.len() + TRAILER_BYTES).div_ceil(CELL_PAYLOAD) * CELL_PAYLOAD;
    let mut pdu = Vec::with_capacity(total);
    pdu.extend_from_slice(payload);
    let crc = Crc32::new().update(payload);
    pdu.resize(total - TRAILER_BYTES, 0);
    pdu.push(0); // CPCS-UU
    pdu.push(0); // CPI
    pdu.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    let crc = crc.update(&pdu[payload.len()..]).finish();
    pdu.extend_from_slice(&crc.to_be_bytes());
    debug_assert_eq!(pdu.len() % CELL_PAYLOAD, 0);

    let pdu = Bytes::from(pdu);
    let n_cells = pdu.len() / CELL_PAYLOAD;
    let mut cells = Vec::with_capacity(n_cells);
    for i in 0..n_cells {
        let header = CellHeader::data(vpi, vci).with_end_of_pdu(i == n_cells - 1);
        cells.push(AtmCell::new(
            header,
            pdu.slice(i * CELL_PAYLOAD..(i + 1) * CELL_PAYLOAD),
        ));
    }
    Ok(cells)
}

/// Number of cells AAL5 needs for a payload of `bytes` (used by the timing
/// models without materializing cells).
pub fn cells_for_pdu(bytes: usize) -> usize {
    (bytes + TRAILER_BYTES).div_ceil(CELL_PAYLOAD)
}

/// Segmentation or reassembly failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Aal5Error {
    /// Payload exceeds the 16-bit AAL5 length field.
    PduTooLarge {
        /// Offending payload length.
        len: usize,
        /// The [`MAX_PDU`] limit.
        max: usize,
    },
    /// No cells supplied.
    Empty,
    /// Final cell lacks the end-of-PDU mark, or a mark appears early.
    Framing,
    /// Cells from more than one circuit were interleaved.
    MixedCircuit,
    /// CRC-32 mismatch over the reassembled CS-PDU.
    BadCrc,
    /// Length field inconsistent with the cell count.
    BadLength,
}

impl std::fmt::Display for Aal5Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Aal5Error::PduTooLarge { len, max } => {
                write!(f, "CS-PDU of {len} bytes exceeds the AAL5 maximum of {max}")
            }
            Aal5Error::Empty => write!(f, "no cells"),
            Aal5Error::Framing => write!(f, "end-of-PDU framing violation"),
            Aal5Error::MixedCircuit => write!(f, "cells from multiple circuits"),
            Aal5Error::BadCrc => write!(f, "CS-PDU CRC-32 mismatch"),
            Aal5Error::BadLength => write!(f, "length field inconsistent"),
        }
    }
}

impl std::error::Error for Aal5Error {}

/// Reassembles one CS-PDU from its cells, verifying framing, circuit
/// consistency, CRC and length.
pub fn reassemble(cells: &[AtmCell]) -> Result<Vec<u8>, Aal5Error> {
    if cells.is_empty() {
        return Err(Aal5Error::Empty);
    }
    let circuit = (cells[0].header.vpi, cells[0].header.vci);
    for (i, c) in cells.iter().enumerate() {
        if (c.header.vpi, c.header.vci) != circuit {
            return Err(Aal5Error::MixedCircuit);
        }
        let last = i == cells.len() - 1;
        if c.header.end_of_pdu() != last {
            return Err(Aal5Error::Framing);
        }
    }
    // The CRC rides along with the copy: each cell payload is checksummed
    // as it is appended, the last one up to the trailer's CRC field.
    let (last, body) = cells.split_last().expect("checked non-empty");
    let mut pdu = Vec::with_capacity(cells.len() * CELL_PAYLOAD);
    let mut crc = Crc32::new();
    for c in body {
        pdu.extend_from_slice(&c.payload);
        crc = crc.update(&c.payload);
    }
    let last_at = pdu.len();
    pdu.extend_from_slice(&last.payload);
    let crc_at = pdu.len() - 4;
    let crc_given = u32::from_be_bytes(pdu[crc_at..].try_into().unwrap());
    let crc_calc = crc.update(&pdu[last_at..crc_at]).finish();
    if crc_given != crc_calc {
        return Err(Aal5Error::BadCrc);
    }
    let len = u16::from_be_bytes(pdu[pdu.len() - 6..pdu.len() - 4].try_into().unwrap()) as usize;
    if len + TRAILER_BYTES > pdu.len() || pdu.len() - (len + TRAILER_BYTES) >= CELL_PAYLOAD {
        return Err(Aal5Error::BadLength);
    }
    pdu.truncate(len);
    Ok(pdu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn roundtrip_various_sizes() {
        for n in [0, 1, 39, 40, 41, 47, 48, 88, 89, 96, 1000, 65_535] {
            let p = payload(n);
            let cells = segment(&p, 2, 99).expect("segment");
            assert_eq!(cells.len(), cells_for_pdu(n), "cell count for {n}");
            let back = reassemble(&cells).expect("reassemble");
            assert_eq!(back, p, "payload {n}");
        }
    }

    #[test]
    fn zero_length_pdu_roundtrips() {
        // A zero-byte payload is a legal CS-PDU: one cell of pure pad +
        // trailer, end-of-PDU marked, LEN = 0.
        let cells = segment(&[], 7, 40).expect("segment");
        assert_eq!(cells.len(), 1);
        assert!(cells[0].header.end_of_pdu());
        let back = reassemble(&cells).expect("reassemble");
        assert!(back.is_empty());
    }

    #[test]
    fn oversize_pdu_is_typed_error() {
        let p = vec![0u8; MAX_PDU + 1];
        assert_eq!(
            segment(&p, 0, 1),
            Err(Aal5Error::PduTooLarge {
                len: MAX_PDU + 1,
                max: MAX_PDU
            })
        );
    }

    #[test]
    fn segmentation_is_zero_copy() {
        // All cells of one PDU view the same backing allocation: slicing
        // the PDU must not copy payload bytes.
        let p = payload(500);
        let cells = segment(&p, 0, 1).unwrap();
        let base = cells[0].payload.as_ptr() as usize;
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.payload.as_ptr() as usize, base + i * CELL_PAYLOAD);
        }
    }

    #[test]
    fn only_last_cell_marked() {
        let cells = segment(&payload(200), 1, 5).unwrap();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.header.end_of_pdu(), i == cells.len() - 1);
        }
    }

    #[test]
    fn forty_bytes_fit_one_cell() {
        // 40 + 8 trailer = 48: exactly one cell; 41 needs two.
        assert_eq!(segment(&payload(40), 0, 1).unwrap().len(), 1);
        assert_eq!(segment(&payload(41), 0, 1).unwrap().len(), 2);
    }

    #[test]
    fn corrupted_payload_detected() {
        let mut cells = segment(&payload(500), 0, 1).unwrap();
        // Copy-on-write: the payload slice shares the PDU, so damage goes
        // through an owned copy.
        let mut damaged = cells[3].payload.to_vec();
        damaged[10] ^= 0x01;
        cells[3].payload = Bytes::from(damaged);
        assert_eq!(reassemble(&cells), Err(Aal5Error::BadCrc));
    }

    #[test]
    fn missing_last_cell_detected() {
        let mut cells = segment(&payload(500), 0, 1).unwrap();
        cells.pop();
        assert_eq!(reassemble(&cells), Err(Aal5Error::Framing));
    }

    #[test]
    fn dropped_middle_cell_detected() {
        let mut cells = segment(&payload(500), 0, 1).unwrap();
        cells.remove(2);
        // Framing still looks fine (only last cell marked) but CRC catches it.
        assert_eq!(reassemble(&cells), Err(Aal5Error::BadCrc));
    }

    #[test]
    fn interleaved_circuits_detected() {
        let a = segment(&payload(100), 0, 1).unwrap();
        let b = segment(&payload(100), 0, 2).unwrap();
        let mixed: Vec<_> = a[..1].iter().chain(b[1..].iter()).cloned().collect();
        assert_eq!(reassemble(&mixed), Err(Aal5Error::MixedCircuit));
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(reassemble(&[]), Err(Aal5Error::Empty));
    }
}
