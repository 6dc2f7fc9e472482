//! The ATM cell: a 53-byte unit with a 5-byte header and 48-byte payload.
//!
//! Header layout (UNI format, ITU-T I.361):
//!
//! ```text
//!  bit 7                                0
//!  +--------+--------+--------+--------+
//!  |  GFC   |       VPI       |  VCI   |   (GFC 4b, VPI 8b, VCI 16b,
//!  |        VCI (cont)        |PT |CLP |    PT 3b, CLP 1b)
//!  +--------+--------+--------+--------+
//!  |               HEC                 |   (CRC-8 + coset over bytes 0..4)
//!  +-----------------------------------+
//! ```
//!
//! The payload-type (PT) field's least significant "AUU" bit is how AAL5
//! marks the final cell of a CS-PDU.

use crate::crc;
use bytes::Bytes;

/// Bytes in a full ATM cell.
pub const CELL_BYTES: usize = 53;
/// Bytes of payload per cell.
pub const CELL_PAYLOAD: usize = 48;
/// Header bytes.
pub const CELL_HEADER: usize = 5;

/// Number of cells needed to carry `bytes` of raw payload (no AAL framing).
pub fn cells_for(bytes: usize) -> usize {
    bytes.div_ceil(CELL_PAYLOAD)
}

/// Decoded cell header fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellHeader {
    /// Generic flow control (UNI only), 4 bits.
    pub gfc: u8,
    /// Virtual path identifier, 8 bits at the UNI.
    pub vpi: u8,
    /// Virtual channel identifier, 16 bits.
    pub vci: u16,
    /// Payload type, 3 bits. Bit 0 is the AAU/AUU bit used by AAL5 to mark
    /// the last cell of a PDU.
    pub pt: u8,
    /// Cell loss priority, 1 bit (1 = discard-eligible).
    pub clp: bool,
}

impl CellHeader {
    /// A data-cell header for the given circuit.
    pub fn data(vpi: u8, vci: u16) -> CellHeader {
        CellHeader {
            gfc: 0,
            vpi,
            vci,
            pt: 0,
            clp: false,
        }
    }

    /// Marks this as the final cell of an AAL5 CS-PDU.
    pub fn with_end_of_pdu(mut self, end: bool) -> CellHeader {
        if end {
            self.pt |= 0b001;
        } else {
            self.pt &= !0b001;
        }
        self
    }

    /// Whether the AAL5 end-of-PDU bit is set.
    pub fn end_of_pdu(&self) -> bool {
        self.pt & 0b001 != 0
    }

    /// Packs the header into 5 bytes including the computed HEC.
    pub fn pack(&self) -> [u8; CELL_HEADER] {
        assert!(self.gfc < 16, "GFC is 4 bits");
        assert!(self.pt < 8, "PT is 3 bits");
        let b0 = (self.gfc << 4) | (self.vpi >> 4);
        let b1 = (self.vpi << 4) | ((self.vci >> 12) as u8 & 0x0F);
        let b2 = (self.vci >> 4) as u8;
        let b3 = ((self.vci as u8) << 4) | (self.pt << 1) | u8::from(self.clp);
        let hec = crc::hec(&[b0, b1, b2, b3]);
        [b0, b1, b2, b3, hec]
    }

    /// Unpacks and HEC-verifies a 5-byte header.
    pub fn unpack(bytes: &[u8; CELL_HEADER]) -> Result<CellHeader, HeaderError> {
        if !crc::hec_ok(bytes) {
            return Err(HeaderError::BadHec);
        }
        Ok(CellHeader {
            gfc: bytes[0] >> 4,
            vpi: (bytes[0] << 4) | (bytes[1] >> 4),
            vci: (u16::from(bytes[1] & 0x0F) << 12)
                | (u16::from(bytes[2]) << 4)
                | u16::from(bytes[3] >> 4),
            pt: (bytes[3] >> 1) & 0b111,
            clp: bytes[3] & 1 != 0,
        })
    }

    /// Unpacks a 5-byte header in HEC *correction mode* (ITU-T I.432): a
    /// clean header decodes directly; a single-bit error anywhere in the 40
    /// header bits is corrected; anything worse is discarded. Returns the
    /// header and whether a correction was applied.
    pub fn unpack_correcting(
        bytes: &[u8; CELL_HEADER],
    ) -> Result<(CellHeader, bool), HeaderError> {
        if let Ok(h) = CellHeader::unpack(bytes) {
            return Ok((h, false));
        }
        for bit in 0..(CELL_HEADER * 8) {
            let mut fixed = *bytes;
            fixed[bit / 8] ^= 1 << (bit % 8);
            if let Ok(h) = CellHeader::unpack(&fixed) {
                return Ok((h, true));
            }
        }
        Err(HeaderError::BadHec)
    }
}

/// Header decode failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeaderError {
    /// Header error control checksum mismatch.
    BadHec,
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::BadHec => write!(f, "HEC check failed"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// A complete ATM cell.
///
/// The payload is a [`Bytes`] slice — normally a zero-copy view into the
/// CS-PDU the SAR layer built once (see [`crate::aal5::segment`]), so
/// cloning a cell or a whole cell train never copies payload bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AtmCell {
    /// Decoded header.
    pub header: CellHeader,
    /// 48-byte payload slice (invariant: `len() == CELL_PAYLOAD`).
    pub payload: Bytes,
}

impl AtmCell {
    /// Builds a cell from header fields and exactly 48 payload bytes.
    pub fn new(header: CellHeader, payload: Bytes) -> AtmCell {
        assert_eq!(
            payload.len(),
            CELL_PAYLOAD,
            "ATM cell payload must be exactly {CELL_PAYLOAD} bytes"
        );
        AtmCell { header, payload }
    }

    /// Serializes to 53 bytes.
    pub fn to_bytes(&self) -> [u8; CELL_BYTES] {
        let mut out = [0u8; CELL_BYTES];
        out[..CELL_HEADER].copy_from_slice(&self.header.pack());
        out[CELL_HEADER..].copy_from_slice(&self.payload);
        out
    }

    /// Parses 53 bytes, verifying the HEC.
    #[cfg(test)]
    pub fn from_bytes(bytes: &[u8; CELL_BYTES]) -> Result<AtmCell, HeaderError> {
        let mut hdr = [0u8; CELL_HEADER];
        hdr.copy_from_slice(&bytes[..CELL_HEADER]);
        let header = CellHeader::unpack(&hdr)?;
        Ok(AtmCell {
            header,
            payload: Bytes::copy_from_slice(&bytes[CELL_HEADER..]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_for_rounds_up() {
        assert_eq!(cells_for(0), 0);
        assert_eq!(cells_for(1), 1);
        assert_eq!(cells_for(48), 1);
        assert_eq!(cells_for(49), 2);
        assert_eq!(cells_for(96), 2);
    }

    #[test]
    fn header_pack_unpack_roundtrip() {
        for (vpi, vci, pt, clp) in [
            (0u8, 0u16, 0u8, false),
            (1, 42, 0, false),
            (255, 65535, 0b101, true),
            (0x5A, 0x1234, 0b001, false),
        ] {
            let h = CellHeader {
                gfc: 0,
                vpi,
                vci,
                pt,
                clp,
            };
            let packed = h.pack();
            let back = CellHeader::unpack(&packed).unwrap();
            assert_eq!(back, h);
        }
    }

    #[test]
    fn corrupted_header_rejected() {
        let h = CellHeader::data(3, 77);
        let mut packed = h.pack();
        packed[2] ^= 0x40;
        assert_eq!(CellHeader::unpack(&packed), Err(HeaderError::BadHec));
    }

    #[test]
    fn single_bit_header_error_corrected() {
        let h = CellHeader::data(3, 77).with_end_of_pdu(true);
        for bit in 0..(CELL_HEADER * 8) {
            let mut packed = h.pack();
            packed[bit / 8] ^= 1 << (bit % 8);
            let (back, corrected) = CellHeader::unpack_correcting(&packed)
                .unwrap_or_else(|_| panic!("bit {bit} must be correctable"));
            assert!(corrected);
            assert_eq!(back, h, "bit {bit}");
        }
    }

    #[test]
    fn clean_header_reports_no_correction() {
        let h = CellHeader::data(1, 9);
        let (back, corrected) = CellHeader::unpack_correcting(&h.pack()).unwrap();
        assert!(!corrected);
        assert_eq!(back, h);
    }

    #[test]
    fn end_of_pdu_bit() {
        let h = CellHeader::data(1, 2).with_end_of_pdu(true);
        assert!(h.end_of_pdu());
        assert_eq!(h.pt, 0b001);
        let h = h.with_end_of_pdu(false);
        assert!(!h.end_of_pdu());
    }

    #[test]
    fn cell_roundtrip() {
        let payload: Vec<u8> = (0..CELL_PAYLOAD as u8).collect();
        let cell = AtmCell::new(
            CellHeader::data(9, 300).with_end_of_pdu(true),
            Bytes::from(payload),
        );
        let bytes = cell.to_bytes();
        assert_eq!(bytes.len(), CELL_BYTES);
        let back = AtmCell::from_bytes(&bytes).unwrap();
        assert_eq!(back, cell);
    }

    #[test]
    #[should_panic(expected = "exactly 48 bytes")]
    fn wrong_payload_length_rejected() {
        let _ = AtmCell::new(CellHeader::data(0, 33), Bytes::from_static(b"short"));
    }
}
