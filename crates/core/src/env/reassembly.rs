//! Chunked transfers: the wire format of a [`MsgClass::Frag`] payload and
//! the receive-side reassembly table of the pipelined (Approach 2) data
//! path. A plain state machine: chunks and clock readings in, verdicts out;
//! the receive driver owns the timers and the stash.
//!
//! [`MsgClass::Frag`]: crate::addr::MsgClass::Frag

use bytes::Bytes;
use ncs_sim::{Dur, SimTime, TimerHandle};
use std::collections::BTreeMap;

/// Bytes of the chunk header a `Frag` payload carries:
/// `[xfer_id u32 LE][chunk index u32 LE][chunk count u32 LE]`.
pub(super) const FRAG_HEADER_BYTES: usize = 12;

/// The chunk header of chunk `idx` of `total` in transfer `xfer`.
pub(super) fn frag_header(xfer: u32, idx: u32, total: u32) -> [u8; FRAG_HEADER_BYTES] {
    let mut h = [0; FRAG_HEADER_BYTES];
    h[0..4].copy_from_slice(&xfer.to_le_bytes());
    h[4..8].copy_from_slice(&idx.to_le_bytes());
    h[8..12].copy_from_slice(&total.to_le_bytes());
    h
}

/// One parsed chunk: which transfer, which piece of how many, and a
/// zero-copy view of its bytes.
pub(super) struct Chunk {
    pub xfer: u32,
    pub idx: u32,
    pub total: u32,
    pub data: Bytes,
}

/// Parses a `Frag` payload, refusing (with the reason) a header that is
/// short, inconsistent, or declares more chunks than a u32-sized transfer
/// of `io_buffer_bytes` chunks can have.
pub(super) fn parse_chunk(payload: &Bytes, io_buffer_bytes: usize) -> Result<Chunk, String> {
    if payload.len() < FRAG_HEADER_BYTES {
        return Err(format!(
            "{} bytes is shorter than the chunk header",
            payload.len()
        ));
    }
    let word = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().expect("4 bytes"));
    let (xfer, idx, total) = (word(0), word(4), word(8));
    if total == 0 || idx >= total {
        return Err(format!("chunk {idx} outside its declared count {total}"));
    }
    // `total` sizes the reassembly table, and it comes off the wire
    // (unchecked when error control is off). The smallest transfer that
    // needs `total` chunks fills `total - 1` I/O buffers; refuse one that
    // would not fit the u32 length space before allocating for it.
    let chunk_bytes = io_buffer_bytes.max(1) as u64;
    if u64::from(total - 1).saturating_mul(chunk_bytes) >= u64::from(u32::MAX) {
        return Err(format!(
            "declared count {total} x {chunk_bytes}-byte chunks exceeds the u32 transfer size"
        ));
    }
    Ok(Chunk {
        xfer,
        idx,
        total,
        data: payload.slice(FRAG_HEADER_BYTES..),
    })
}

/// One partial transfer.
pub(super) struct FragAsm {
    pub total: u32,
    parts: Vec<Option<Bytes>>,
    pub have: u32,
    /// When the last chunk was accepted (drives timeout reclamation).
    pub last_progress: SimTime,
    /// The armed reclamation timer, if
    /// [`NcsConfig::reassembly_timeout`](super::NcsConfig::reassembly_timeout)
    /// is set; retracted when the transfer completes.
    pub reaper: Option<TimerHandle>,
}

/// What became of one chunk.
pub(super) enum Accepted {
    /// Placed; the transfer is still partial. `first`: it opened the
    /// transfer, so a reclamation timer (if configured) is due.
    Stored { first: bool },
    /// Already placed (a duplicate that slipped past the sequence window,
    /// e.g. with error control off): ignored.
    Duplicate,
    /// Declares a different chunk count than the transfer's earlier chunks
    /// did (carried here): ignored.
    Mismatch(u32),
    /// The last missing chunk: the rebuilt message, and the transfer's
    /// reclamation timer for the driver to retract.
    Complete {
        data: Bytes,
        reaper: Option<TimerHandle>,
    },
}

/// Verdict of a reclamation-timer expiry.
#[derive(PartialEq, Eq, Debug)]
pub(super) enum Expiry {
    /// The transfer completed (or was reclaimed) meanwhile.
    Gone,
    /// Chunks landed within the timeout: re-arm from the latest progress.
    Active,
    /// No chunk for a full timeout — the sender is gone (crash-stop,
    /// give-up): the partial buffers were dropped.
    Reclaimed,
}

/// One source's partially reassembled transfers, keyed by transfer id.
#[derive(Default)]
pub(super) struct Reassembly {
    bufs: BTreeMap<u32, FragAsm>,
}

impl Reassembly {
    pub fn accept(&mut self, c: Chunk, now: SimTime) -> Accepted {
        let mut first = false;
        let asm = self.bufs.entry(c.xfer).or_insert_with(|| {
            first = true;
            FragAsm {
                total: c.total,
                parts: vec![None; c.total as usize],
                have: 0,
                last_progress: now,
                reaper: None,
            }
        });
        if asm.total != c.total {
            return Accepted::Mismatch(asm.total);
        }
        let part = &mut asm.parts[c.idx as usize];
        if part.is_some() {
            return Accepted::Duplicate;
        }
        *part = Some(c.data);
        asm.have += 1;
        asm.last_progress = now;
        if asm.have < asm.total {
            return Accepted::Stored { first };
        }
        let asm = self.bufs.remove(&c.xfer).expect("entry just completed");
        let mut v = Vec::with_capacity(asm.parts.iter().flatten().map(Bytes::len).sum());
        for p in asm.parts {
            v.extend_from_slice(&p.expect("all chunks present"));
        }
        Accepted::Complete {
            data: Bytes::from(v),
            reaper: asm.reaper,
        }
    }

    pub fn expire(&mut self, xfer: u32, now: SimTime, timeout: Dur) -> Expiry {
        match self.bufs.get(&xfer) {
            None => Expiry::Gone,
            Some(asm) if now.saturating_since(asm.last_progress) >= timeout => {
                self.bufs.remove(&xfer);
                Expiry::Reclaimed
            }
            Some(_) => Expiry::Active,
        }
    }

    pub fn get_mut(&mut self, xfer: u32) -> Option<&mut FragAsm> {
        self.bufs.get_mut(&xfer)
    }

    /// The partial transfers, by transfer id.
    pub fn partial(&self) -> impl Iterator<Item = (&u32, &FragAsm)> {
        self.bufs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(xfer: u32, idx: u32, total: u32, fill: u8) -> Chunk {
        let payload = Bytes::from([&frag_header(xfer, idx, total)[..], &[fill; 4]].concat());
        parse_chunk(&payload, 4).expect("well-formed chunk")
    }

    #[test]
    fn chunks_in_any_order_rebuild_the_message_once() {
        let t = SimTime::ZERO;
        let mut r = Reassembly::default();
        assert!(matches!(
            r.accept(chunk(7, 2, 3, 2), t),
            Accepted::Stored { first: true }
        ));
        assert!(matches!(
            r.accept(chunk(7, 0, 3, 0), t),
            Accepted::Stored { first: false }
        ));
        // A replayed chunk is ignored and does not count toward completion.
        assert!(matches!(
            r.accept(chunk(7, 2, 3, 9), t),
            Accepted::Duplicate
        ));
        assert_eq!(
            r.partial()
                .map(|(_, a)| (a.have, a.total))
                .collect::<Vec<_>>(),
            [(2, 3)]
        );
        match r.accept(chunk(7, 1, 3, 1), t) {
            Accepted::Complete { data, reaper } => {
                assert_eq!(&data[..], &[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
                assert!(reaper.is_none());
            }
            _ => panic!("third distinct chunk completes the transfer"),
        }
        assert_eq!(
            r.partial().count(),
            0,
            "a completed transfer leaves nothing behind"
        );
    }

    #[test]
    fn count_mismatch_is_refused_without_disturbing_the_transfer() {
        let t = SimTime::ZERO;
        let mut r = Reassembly::default();
        r.accept(chunk(1, 0, 2, 0), t);
        assert!(matches!(
            r.accept(chunk(1, 1, 3, 1), t),
            Accepted::Mismatch(2)
        ));
        assert!(matches!(
            r.accept(chunk(1, 1, 2, 1), t),
            Accepted::Complete { .. }
        ));
    }

    #[test]
    fn malformed_headers_are_refused_before_allocating() {
        let runt = Bytes::from(vec![0u8; FRAG_HEADER_BYTES - 1]);
        assert!(parse_chunk(&runt, 16).is_err());
        for (idx, total) in [(0, 0), (3, 3), (9, 2)] {
            let p = Bytes::from(frag_header(1, idx, total).to_vec());
            assert!(parse_chunk(&p, 16).is_err(), "chunk {idx} of {total}");
        }
        // 2^18 + 1 chunks of 16 KiB is past the u32 length space; one fewer fits.
        let oversize = Bytes::from(frag_header(1, 0, (1 << 18) + 1).to_vec());
        assert!(parse_chunk(&oversize, 16 * 1024).is_err());
        let largest = Bytes::from(frag_header(1, 0, 1 << 18).to_vec());
        assert!(parse_chunk(&largest, 16 * 1024).is_ok());
    }

    #[test]
    fn expiry_reclaims_only_a_stalled_transfer() {
        let timeout = Dur::from_millis(10);
        let at = |ms| SimTime::ZERO + Dur::from_millis(ms);
        let mut r = Reassembly::default();
        r.accept(chunk(4, 0, 3, 0), at(0));
        r.accept(chunk(4, 1, 3, 1), at(6));
        assert_eq!(
            r.expire(4, at(10), timeout),
            Expiry::Active,
            "progress at 6 ms"
        );
        assert_eq!(r.expire(4, at(16), timeout), Expiry::Reclaimed);
        assert_eq!(r.expire(4, at(30), timeout), Expiry::Gone);
    }
}
