//! Message addressing: the paper's `(thread, process)` pairs.
//!
//! Every NCS primitive names endpoints as a thread id within a process
//! ([`ThreadAddr`]). On the wire, the class and both thread ids ride in the
//! transport's 64-bit tag next to a 32-bit user tag:
//!
//! ```text
//! | class (8) | from_thread (12) | to_thread (12) | user tag (32) |
//! ```

/// A thread endpoint: thread `thread` of process `proc`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadAddr {
    /// Process (node) id.
    pub proc: usize,
    /// Logical user-thread id within the process (creation order).
    pub thread: u32,
}

impl ThreadAddr {
    /// Convenience constructor.
    pub fn new(proc: usize, thread: u32) -> ThreadAddr {
        ThreadAddr { proc, thread }
    }
}

impl std::fmt::Display for ThreadAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}.t{}", self.proc, self.thread)
    }
}

/// Wire-level message class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum MsgClass {
    /// Application data (NCS_send / NCS_recv).
    Data = 0,
    /// Thread-to-thread signal (zero-byte synchronization).
    Signal = 1,
    /// Barrier arrival report.
    BarArrive = 2,
    /// Barrier release.
    BarGo = 3,
    /// Flow-control credit grant.
    Credit = 4,
    /// Error-control positive acknowledgment.
    Ack = 5,
    /// Error-control retransmission request.
    Nack = 6,
    /// Exception notification.
    Exception = 7,
    /// One chunk of a large data message staged through the I/O-buffer
    /// pool (the pipelined Approach-2 data path). Carries a
    /// `[xfer_id][idx][total]` header ahead of the chunk bytes; the
    /// receive thread reassembles the original [`MsgClass::Data`] message.
    Frag = 8,
}

impl MsgClass {
    /// Decodes a class byte.
    pub(crate) fn from_u8(v: u8) -> Option<MsgClass> {
        Some(match v {
            0 => MsgClass::Data,
            1 => MsgClass::Signal,
            2 => MsgClass::BarArrive,
            3 => MsgClass::BarGo,
            4 => MsgClass::Credit,
            5 => MsgClass::Ack,
            6 => MsgClass::Nack,
            7 => MsgClass::Exception,
            8 => MsgClass::Frag,
            _ => return None,
        })
    }

    /// Whether [`ErrorControl::ChecksumRetransmit`](crate::ErrorControl::ChecksumRetransmit)
    /// sequences, acknowledges and retransmits this class: every class but
    /// the acknowledgments themselves, whose loss the sender's RTO covers.
    pub(crate) fn sequenced(self) -> bool {
        !matches!(self, MsgClass::Ack | MsgClass::Nack)
    }
}

/// Maximum encodable thread id (12 bits).
pub(crate) const MAX_THREAD_ID: u32 = 0xFFF;

/// Packs class, thread ids and user tag into a transport tag.
pub fn encode_tag(class: MsgClass, from_thread: u32, to_thread: u32, user: u32) -> u64 {
    assert!(from_thread <= MAX_THREAD_ID, "from_thread exceeds 12 bits");
    assert!(to_thread <= MAX_THREAD_ID, "to_thread exceeds 12 bits");
    (u64::from(class as u8) << 56)
        | (u64::from(from_thread) << 44)
        | (u64::from(to_thread) << 32)
        | u64::from(user)
}

/// Unpacks a transport tag.
pub(crate) fn decode_tag(tag: u64) -> (MsgClass, u32, u32, u32) {
    let class = MsgClass::from_u8((tag >> 56) as u8).expect("unknown message class");
    let from_thread = ((tag >> 44) & 0xFFF) as u32;
    let to_thread = ((tag >> 32) & 0xFFF) as u32;
    let user = tag as u32;
    (class, from_thread, to_thread, user)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip_all_classes() {
        for class in [
            MsgClass::Data,
            MsgClass::Signal,
            MsgClass::BarArrive,
            MsgClass::BarGo,
            MsgClass::Credit,
            MsgClass::Ack,
            MsgClass::Nack,
            MsgClass::Exception,
            MsgClass::Frag,
        ] {
            let tag = encode_tag(class, 7, 11, 0xDEAD_BEEF);
            assert_eq!(decode_tag(tag), (class, 7, 11, 0xDEAD_BEEF));
        }
    }

    #[test]
    fn tag_roundtrip_extremes() {
        let tag = encode_tag(MsgClass::Exception, MAX_THREAD_ID, 0, u32::MAX);
        assert_eq!(
            decode_tag(tag),
            (MsgClass::Exception, MAX_THREAD_ID, 0, u32::MAX)
        );
        let tag = encode_tag(MsgClass::Data, 0, MAX_THREAD_ID, 0);
        assert_eq!(decode_tag(tag), (MsgClass::Data, 0, MAX_THREAD_ID, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds 12 bits")]
    fn oversized_thread_id_rejected() {
        encode_tag(MsgClass::Data, MAX_THREAD_ID + 1, 0, 0);
    }

    #[test]
    fn addr_display() {
        assert_eq!(ThreadAddr::new(3, 1).to_string(), "p3.t1");
    }
}
