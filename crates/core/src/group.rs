//! Group communication (paper Section 3.1): 1-to-many, many-to-1 and
//! many-to-many patterns built on the point-to-point NCS core.
//!
//! All operations are *collective over an explicit participant list* —
//! every listed thread must call the same operation with the same list.
//! User tags at and above [`GROUP_TAG_BASE`] are reserved for these
//! operations; application point-to-point traffic should stay below it.

use bytes::Bytes;

use crate::addr::ThreadAddr;
use crate::codec;
use crate::env::NcsCtx;

/// First user tag reserved for collective operations.
pub const GROUP_TAG_BASE: u32 = 0xFFFF_FF00;
const TAG_GATHER: u32 = GROUP_TAG_BASE;
const TAG_SCATTER: u32 = GROUP_TAG_BASE + 1;
const TAG_REDUCE: u32 = GROUP_TAG_BASE + 2;
const TAG_ALLTOALL: u32 = GROUP_TAG_BASE + 3;
const TAG_TREE_BCAST: u32 = GROUP_TAG_BASE + 4;

/// 1-to-many over a binomial tree: `parties[0]` supplies `data`; every
/// party returns it after O(log n) communication rounds instead of the
/// O(n) serialized sends of the flat [`crate::env::NcsCtx::bcast`].
/// Collective: every listed thread calls it with the same list.
// ncs-lint: allow(dead-surface) §3.1 group operation
pub fn tree_bcast(ncs: &NcsCtx, parties: &[ThreadAddr], data: Option<Bytes>) -> Bytes {
    let me = ncs.my_addr();
    let idx = parties
        .iter()
        .position(|&p| p == me)
        .expect("caller must be a party");
    let n = parties.len();
    let payload = if idx == 0 {
        data.expect("root must supply the broadcast data")
    } else {
        assert!(data.is_none(), "only the root supplies data");
        // Receive from the parent: the rank that differs in our lowest set
        // bit (MPICH-style binomial tree rooted at index 0).
        let mut mask = 1usize;
        loop {
            if idx & mask != 0 {
                let parent = parties[idx - mask];
                break ncs
                    .recv(Some(parent.proc), Some(parent.thread), Some(TAG_TREE_BCAST))
                    .data;
            }
            mask <<= 1;
        }
    };
    // Forward to children: ranks idx + mask for each mask below our lowest
    // set bit (the root forwards for every mask).
    let low = if idx == 0 {
        n.next_power_of_two()
    } else {
        idx & idx.wrapping_neg()
    };
    let mut mask = low >> 1;
    while mask > 0 {
        if idx + mask < n {
            ncs.send(parties[idx + mask], TAG_TREE_BCAST, payload.clone());
        }
        mask >>= 1;
    }
    payload
}

/// Many-to-1: every party contributes `mine`; the root (`parties[0]`)
/// returns all contributions ordered by the participant list, others get
/// `None`.
pub fn gather(ncs: &NcsCtx, parties: &[ThreadAddr], mine: Bytes) -> Option<Vec<Bytes>> {
    let me = ncs.my_addr();
    let root = parties[0];
    if me == root {
        let mut out: Vec<Option<Bytes>> = vec![None; parties.len()];
        out[0] = Some(mine);
        for _ in 1..parties.len() {
            let m = ncs.recv(None, None, Some(TAG_GATHER));
            let idx = parties
                .iter()
                .position(|&p| p == m.from)
                .expect("gather from non-party");
            assert!(out[idx].is_none(), "duplicate gather contribution");
            out[idx] = Some(m.data);
        }
        Some(out.into_iter().map(|o| o.unwrap()).collect())
    } else {
        ncs.send(root, TAG_GATHER, mine);
        None
    }
}

/// 1-to-many: the root supplies one part per party (ordered like
/// `parties`); every party returns its own part.
// ncs-lint: allow(dead-surface) §3.1 group operation
pub fn scatter(ncs: &NcsCtx, parties: &[ThreadAddr], parts: Option<Vec<Bytes>>) -> Bytes {
    let me = ncs.my_addr();
    let root = parties[0];
    if me == root {
        let parts = parts.expect("root must supply parts");
        assert_eq!(parts.len(), parties.len(), "one part per party");
        let mut my_part = None;
        for (&p, part) in parties.iter().zip(parts) {
            if p == me {
                my_part = Some(part);
            } else {
                ncs.send(p, TAG_SCATTER, part);
            }
        }
        my_part.expect("root must be a party")
    } else {
        assert!(parts.is_none(), "only the root supplies parts");
        ncs.recv(Some(root.proc), Some(root.thread), Some(TAG_SCATTER))
            .data
    }
}

/// Element-wise reduction operators for `f64` vectors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    fn apply(self, acc: &mut [f64], x: &[f64]) {
        assert_eq!(acc.len(), x.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(x) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Min => a.min(*b),
                ReduceOp::Max => a.max(*b),
            };
        }
    }
}

/// Many-to-1 with combination: the root returns the element-wise reduction
/// of every party's vector.
// ncs-lint: allow(dead-surface) §3.1 group operation
pub fn reduce_f64(
    ncs: &NcsCtx,
    parties: &[ThreadAddr],
    mine: &[f64],
    op: ReduceOp,
) -> Option<Vec<f64>> {
    let me = ncs.my_addr();
    let root = parties[0];
    if me == root {
        let mut acc = mine.to_vec();
        for _ in 1..parties.len() {
            let m = ncs.recv(None, None, Some(TAG_REDUCE));
            let xs = codec::bytes_to_f64s(&m.data);
            op.apply(&mut acc, &xs);
        }
        Some(acc)
    } else {
        ncs.send(root, TAG_REDUCE, codec::f64s_to_bytes(mine));
        None
    }
}

/// Many-to-many: party `i` supplies one part per party; returns the parts
/// addressed to it, ordered by the participant list.
// ncs-lint: allow(dead-surface) §3.1 group operation
pub fn all_to_all(ncs: &NcsCtx, parties: &[ThreadAddr], parts: Vec<Bytes>) -> Vec<Bytes> {
    assert_eq!(parts.len(), parties.len(), "one part per party");
    let me = ncs.my_addr();
    let my_idx = parties
        .iter()
        .position(|&p| p == me)
        .expect("caller must be a party");
    let mut out: Vec<Option<Bytes>> = vec![None; parties.len()];
    // Send own parts (keeping the self part), then collect the rest.
    for (i, (&p, part)) in parties.iter().zip(parts).enumerate() {
        if i == my_idx {
            out[i] = Some(part);
        } else {
            ncs.send(p, TAG_ALLTOALL, part);
        }
    }
    for _ in 0..parties.len() - 1 {
        let m = ncs.recv(None, None, Some(TAG_ALLTOALL));
        let idx = parties
            .iter()
            .position(|&p| p == m.from)
            .expect("all_to_all from non-party");
        assert!(out[idx].is_none(), "duplicate all_to_all part");
        out[idx] = Some(m.data);
    }
    out.into_iter().map(|o| o.unwrap()).collect()
}
