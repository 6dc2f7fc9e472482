//! Checked framing: the error-control header every data frame carries when
//! [`super::ErrorControl::ChecksumRetransmit`] is selected.

use bytes::Bytes;
use ncs_net::crc::Crc32;

/// Bytes of the error-control header a checked frame carries:
/// `[seq u32 LE][crc u32 LE]`.
pub(super) const CHECKED_HEADER_BYTES: usize = 8;

/// Wraps a payload with the error-control header: `[seq u32][crc u32]data`
/// where the CRC covers the sequence number and the data. The payload is
/// given as `head ‖ body` so a chunk header and the slice of the user
/// message it describes go into the frame in one copy; the CRC is streamed
/// over the finished frame in place.
pub fn wrap_checked(seq: u32, head: &[u8], body: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(CHECKED_HEADER_BYTES + head.len() + body.len());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(&[0; 4]);
    v.extend_from_slice(head);
    v.extend_from_slice(body);
    let crc = Crc32::new()
        .update(&v[..4])
        .update(&v[CHECKED_HEADER_BYTES..])
        .finish();
    v[4..CHECKED_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    Bytes::from(v)
}

/// Why a checked frame was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// Shorter than the error-control header: there is no sequence number
    /// to name in a NACK.
    Runt,
    /// The CRC does not cover the frame; `seq` is what the (possibly
    /// damaged) header claims.
    BadCrc {
        /// The sequence number read from the frame.
        seq: u32,
    },
}

/// The sequence number a checked frame's header claims, without verifying
/// anything: all that is ever read of a frame the transport delivered
/// damaged, to name it in a NACK. `None` if even those four bytes are
/// missing.
pub(super) fn claimed_seq(b: &[u8]) -> Option<u32> {
    b.first_chunk().map(|w| u32::from_le_bytes(*w))
}

/// Parses and verifies a checked payload, returning its sequence number and
/// a zero-copy view of the data.
pub fn unwrap_checked(b: &Bytes) -> Result<(u32, Bytes), FrameError> {
    if b.len() < CHECKED_HEADER_BYTES {
        return Err(FrameError::Runt);
    }
    let seq = u32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"));
    let calc = Crc32::new()
        .update(&b[..4])
        .update(&b[CHECKED_HEADER_BYTES..])
        .finish();
    if calc == crc {
        Ok((seq, b.slice(CHECKED_HEADER_BYTES..)))
    } else {
        Err(FrameError::BadCrc { seq })
    }
}

#[cfg(test)]
mod tests {
    use super::super::reassembly::frag_header;
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 + 5) as u8).collect()
    }

    #[test]
    fn wire_format_is_pinned() {
        // [seq LE][crc LE]data, CRC-32/BZIP2 over seq ‖ data. The frame was
        // computed independently of this crate; it must never drift.
        let frame = wrap_checked(0x0102_0304, &[], b"NCS/ATM");
        let pinned: [u8; 15] = [
            0x04, 0x03, 0x02, 0x01, // seq
            0xbc, 0x73, 0x16, 0x68, // crc 0x681673bc
            0x4e, 0x43, 0x53, 0x2f, 0x41, 0x54, 0x4d, // "NCS/ATM"
        ];
        assert_eq!(&frame[..], &pinned[..]);
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        for n in [0, 1, 7, 8, 9, 64, 4096, 16 * 1024] {
            let data = payload(n);
            let seq = 0xFFFF_FF00u32.wrapping_add(n as u32);
            let frame = wrap_checked(seq, &[], &data);
            assert_eq!(frame.len(), CHECKED_HEADER_BYTES + n);
            let (got_seq, got) = unwrap_checked(&frame).expect("clean frame");
            assert_eq!(got_seq, seq);
            assert_eq!(&got[..], &data[..], "payload of {n} bytes");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = wrap_checked(42, &[], &payload(64 - CHECKED_HEADER_BYTES));
        assert_eq!(frame.len(), 64);
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    unwrap_checked(&Bytes::from(bad)),
                    Err(FrameError::BadCrc { .. })
                ),
                "flip of bit {bit} accepted"
            );
        }
    }

    #[test]
    fn runt_frame_has_no_sequence_number() {
        let frame = wrap_checked(7, &[], &[]);
        assert!(unwrap_checked(&frame).is_ok(), "header-only frame is legal");
        for n in 0..CHECKED_HEADER_BYTES {
            assert_eq!(unwrap_checked(&frame.slice(..n)), Err(FrameError::Runt));
        }
    }

    #[test]
    fn fragment_frame_equals_wrapped_header_and_chunk() {
        // The send path builds [seq][crc][xfer][idx][total][chunk] in one
        // allocation from two parts; the bytes must be those of wrapping the
        // concatenated payload.
        let chunk = payload(1000);
        let header = frag_header(0xA1B2_C3D4, 3, 9);
        assert_eq!(
            header,
            [0xD4, 0xC3, 0xB2, 0xA1, 3, 0, 0, 0, 9, 0, 0, 0],
            "chunk header layout"
        );
        let joined = [&header[..], &chunk[..]].concat();
        let frame = wrap_checked(77, &header, &chunk);
        assert_eq!(frame, wrap_checked(77, &[], &joined));
        let (seq, data) = unwrap_checked(&frame).expect("clean frame");
        assert_eq!(seq, 77);
        assert_eq!(&data[..], &joined[..]);
    }
}
