//! Message-passing filters (paper Figure 6): p4-, PVM- and MPI-style
//! interfaces mapped onto NCS primitives, so *"any parallel/distributed
//! application written using these tools can be ported to NCS without any
//! change"*.
//!
//! Each filter is a thin, zero-state adapter over an [`NcsCtx`]:
//! addressing and matching translate to NCS `(thread, process)` endpoints
//! and tags; the transfers themselves go through the NCS system threads,
//! so ported applications get the multithreaded overlap for free.
//!
//! Filters address *processes* (ranks / task ids), which NCS represents as
//! thread 0 of each process — matching how p4/PVM programs are structured
//! as one context per process.

use bytes::Bytes;

use crate::addr::ThreadAddr;
use crate::env::{NcsCtx, NcsMsg};

/// The user tag of `MPI_Bcast`'s transfers.
const MPI_BCAST_TAG: u32 = 0xFFFF_FF10;

fn rank0(proc: usize) -> ThreadAddr {
    ThreadAddr::new(proc, 0)
}

/// Thread 0 of each listed process but `me`, in list order: the receivers
/// of a filter's broadcast, which never sends to its caller.
fn others(procs: impl IntoIterator<Item = usize>, me: usize) -> Vec<ThreadAddr> {
    procs.into_iter().filter(|&p| p != me).map(rank0).collect()
}

/// p4-style interface (`p4_send` / `p4_recv` / `p4_broadcast`).
pub struct P4Filter<'a, 'b> {
    ncs: &'a NcsCtx<'b>,
}

impl<'a, 'b> P4Filter<'a, 'b> {
    /// Wraps an NCS thread context (should be thread 0 of its process).
    pub fn new(ncs: &'a NcsCtx<'b>) -> Self {
        P4Filter { ncs }
    }

    /// `p4_get_my_id`.
    pub fn my_id(&self) -> usize {
        self.ncs.proc().id()
    }

    /// `p4_num_total_slaves` + 1.
    pub(crate) fn num_procs(&self) -> usize {
        self.ncs.proc().num_procs()
    }

    /// `p4_send(type, to, data, size)`.
    pub fn send(&self, msg_type: i32, to: usize, data: Bytes) {
        self.ncs.send(rank0(to), msg_type as u32, data);
    }

    /// `p4_recv(&type, &from, ...)` with `None` as the `-1` wildcard.
    pub fn recv(&self, msg_type: Option<i32>, from: Option<usize>) -> (i32, usize, Bytes) {
        let m = self.ncs.recv(from, None, msg_type.map(|t| t as u32));
        (m.tag as i32, m.from.proc, m.data)
    }

    /// `p4_broadcast` to every other rank, lowest rank first.
    pub fn broadcast(&self, msg_type: i32, data: Bytes) {
        let to = others(0..self.num_procs(), self.my_id());
        self.ncs.bcast(&to, msg_type as u32, data);
    }
}

/// PVM-style interface (`pvm_send` / `pvm_recv` with task ids and tags).
pub struct PvmFilter<'a, 'b> {
    ncs: &'a NcsCtx<'b>,
}

impl<'a, 'b> PvmFilter<'a, 'b> {
    /// Wraps an NCS thread context.
    pub fn new(ncs: &'a NcsCtx<'b>) -> Self {
        PvmFilter { ncs }
    }

    /// `pvm_mytid`: this process's task id.
    pub fn mytid(&self) -> usize {
        self.ncs.proc().id()
    }

    /// `pvm_send(tid, msgtag)` with the payload pre-packed (the pack/unpack
    /// buffer layer collapses to a byte payload here).
    pub fn send(&self, tid: usize, msgtag: u32, data: Bytes) {
        self.ncs.send(rank0(tid), msgtag, data);
    }

    /// `pvm_recv(tid, msgtag)` — `None` is PVM's `-1` wildcard.
    pub fn recv(&self, tid: Option<usize>, msgtag: Option<u32>) -> (usize, u32, Bytes) {
        let m = self.ncs.recv(tid, None, msgtag);
        (m.from.proc, m.tag, m.data)
    }

    /// `pvm_mcast` to an explicit task list.
    pub fn mcast(&self, tids: &[usize], msgtag: u32, data: Bytes) {
        let to = others(tids.iter().copied(), self.mytid());
        self.ncs.bcast(&to, msgtag, data);
    }
}

/// MPI-style interface over `MPI_COMM_WORLD` (`MPI_Send` / `MPI_Recv` /
/// `MPI_Bcast` semantics on byte buffers).
pub struct MpiFilter<'a, 'b> {
    ncs: &'a NcsCtx<'b>,
}

/// MPI's `MPI_ANY_SOURCE`.
pub const ANY_SOURCE: Option<usize> = None;
/// MPI's `MPI_ANY_TAG`.
pub const ANY_TAG: Option<u32> = None;

impl<'a, 'b> MpiFilter<'a, 'b> {
    /// Wraps an NCS thread context.
    pub fn new(ncs: &'a NcsCtx<'b>) -> Self {
        MpiFilter { ncs }
    }

    /// `MPI_Comm_rank(MPI_COMM_WORLD, ..)`.
    pub fn rank(&self) -> usize {
        self.ncs.proc().id()
    }

    /// `MPI_Comm_size(MPI_COMM_WORLD, ..)`.
    pub(crate) fn size(&self) -> usize {
        self.ncs.proc().num_procs()
    }

    /// `MPI_Send(buf, dest, tag, MPI_COMM_WORLD)`.
    pub fn send(&self, dest: usize, tag: u32, data: Bytes) {
        self.ncs.send(rank0(dest), tag, data);
    }

    /// `MPI_Recv` returning `(source, tag, data)`.
    pub fn recv(&self, source: Option<usize>, tag: Option<u32>) -> (usize, u32, Bytes) {
        let m: NcsMsg = self.ncs.recv(source, None, tag);
        (m.from.proc, m.tag, m.data)
    }

    /// `MPI_Bcast`: collective — every rank calls it; the root's buffer is
    /// returned at every rank.
    pub fn bcast(&self, root: usize, data: Option<Bytes>) -> Bytes {
        if self.rank() == root {
            let data = data.expect("root must supply the bcast buffer");
            let to = others(0..self.size(), root);
            self.ncs.bcast(&to, MPI_BCAST_TAG, data.clone());
            data
        } else {
            self.ncs.recv(Some(root), None, Some(MPI_BCAST_TAG)).data
        }
    }

    /// `MPI_Barrier(MPI_COMM_WORLD)`: collective over all ranks' thread 0.
    pub fn barrier(&self) {
        let parties: Vec<ThreadAddr> = (0..self.size()).map(rank0).collect();
        self.ncs.barrier(&parties);
    }
}

/// PVM's typed pack buffer (`pvm_initsend` + `pvm_pk*`): values are packed
/// into a byte stream in call order and unpacked with matching `upk_*`
/// calls on the receiving side. Little-endian "raw" encoding (PvmDataRaw).
#[derive(Default, Clone, Debug)]
pub struct PvmPackBuf {
    data: Vec<u8>,
}

impl PvmPackBuf {
    /// `pvm_initsend(PvmDataRaw)`.
    pub fn new() -> PvmPackBuf {
        PvmPackBuf::default()
    }

    /// `pvm_pkint`.
    pub fn pk_int(&mut self, v: i32) -> &mut Self {
        self.data.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// `pvm_pkdouble`.
    pub fn pk_double(&mut self, v: f64) -> &mut Self {
        self.data.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// `pvm_pkdouble` over an array.
    pub fn pk_doubles(&mut self, vs: &[f64]) -> &mut Self {
        self.pk_int(vs.len() as i32);
        for v in vs {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// `pvm_pkstr`.
    pub fn pk_str(&mut self, s: &str) -> &mut Self {
        self.pk_int(s.len() as i32);
        self.data.extend_from_slice(s.as_bytes());
        self
    }

    /// Finalizes the buffer into a payload.
    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.data)
    }
}

/// PVM's unpack cursor over a received payload.
pub struct PvmUnpackBuf {
    data: Bytes,
    pos: usize,
}

impl PvmUnpackBuf {
    /// Wraps a received payload.
    pub fn new(data: Bytes) -> PvmUnpackBuf {
        PvmUnpackBuf { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.pos + n <= self.data.len(), "unpack past end of buffer");
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// `pvm_upkint`.
    pub fn upk_int(&mut self) -> i32 {
        i32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// `pvm_upkdouble`.
    pub fn upk_double(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Unpacks a double array packed with [`PvmPackBuf::pk_doubles`].
    pub fn upk_doubles(&mut self) -> Vec<f64> {
        let n = self.upk_int() as usize;
        (0..n).map(|_| self.upk_double()).collect()
    }

    /// `pvm_upkstr`.
    pub fn upk_str(&mut self) -> String {
        let n = self.upk_int() as usize;
        String::from_utf8(self.take(n).to_vec()).expect("packed string was UTF-8")
    }

    /// Bytes not yet unpacked.
    #[cfg(test)]
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

#[cfg(test)]
mod pack_tests {
    use super::*;

    #[test]
    fn pack_unpack_mixed_sequence() {
        let mut b = PvmPackBuf::new();
        b.pk_int(-7)
            .pk_double(2.5)
            .pk_str("hello pvm")
            .pk_doubles(&[1.0, -2.0, 3.5]);
        let mut u = PvmUnpackBuf::new(b.into_bytes());
        assert_eq!(u.upk_int(), -7);
        assert_eq!(u.upk_double(), 2.5);
        assert_eq!(u.upk_str(), "hello pvm");
        assert_eq!(u.upk_doubles(), vec![1.0, -2.0, 3.5]);
        assert_eq!(u.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "unpack past end")]
    fn overrun_detected() {
        let mut u = PvmUnpackBuf::new(Bytes::from_static(&[1, 2]));
        u.upk_int();
    }

    #[test]
    fn empty_buffer_roundtrip() {
        let b = PvmPackBuf::new();
        let u = PvmUnpackBuf::new(b.into_bytes());
        assert_eq!(u.remaining(), 0);
    }
}
