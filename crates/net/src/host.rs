//! Host CPU and memory-datapath cost models.
//!
//! The paper's Figure 3 argument is a counting one: on the Unix
//! socket/TCP/IP path every transmitted word crosses the memory bus **five**
//! times (application write, socket-layer copy in and out of the kernel
//! buffer, TCP read for checksumming, DMA to the interface), while the NCS
//! path — kernel buffers mmap'ed into the NCS address space, traps instead
//! of read/write syscalls — needs only **three**. [`DatapathKind`] encodes
//! those counts and [`HostParams::copy_time`] turns them into virtual time.
//!
//! Per-platform constants are calibrated against the paper's single-node
//! measurements (see `EXPERIMENTS.md`); they describe early-1990s SPARC
//! workstations, not modern hardware.

use ncs_sim::{Ctx, Dur};

/// Which software datapath a transfer uses (Figure 3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DatapathKind {
    /// Unix sockets + TCP/IP: five memory-bus accesses per word.
    SocketTcp,
    /// NCS over the ATM API with mmap'ed kernel buffers: three accesses.
    NcsMapped,
}

impl DatapathKind {
    /// Memory-bus accesses per 32-bit word of message data.
    pub fn accesses_per_word(self) -> u64 {
        match self {
            DatapathKind::SocketTcp => 5,
            DatapathKind::NcsMapped => 3,
        }
    }
}

/// Timing parameters of one workstation model.
#[derive(Clone, Debug)]
pub struct HostParams {
    /// Human-readable platform name.
    pub name: &'static str,
    /// CPU clock rate in Hz.
    pub(crate) clock_hz: u64,
    /// Effective memory-bus time per 32-bit word access during protocol
    /// copies (includes cache-miss amortization).
    pub bus_access: Dur,
    /// Cost of entering/leaving the kernel through a system call.
    pub(crate) syscall: Dur,
    /// Cost of the lightweight trap NCS uses instead of read/write syscalls.
    pub(crate) trap: Dur,
    /// Per-packet interrupt handling cost on receive.
    pub(crate) interrupt: Dur,
    /// TCP/IP protocol processing per packet, excluding data-touching costs
    /// (those are covered by [`HostParams::copy_time`]).
    pub(crate) tcp_per_packet: Dur,
}

impl HostParams {
    /// SUN SPARCstation IPX (~40 MHz): the paper's ATM LAN / NYNET hosts.
    pub fn sparc_ipx() -> HostParams {
        HostParams {
            name: "SPARCstation IPX (40 MHz)",
            clock_hz: 40_000_000,
            bus_access: Dur::from_nanos(320),
            syscall: Dur::from_micros(60),
            trap: Dur::from_micros(12),
            interrupt: Dur::from_micros(60),
            tcp_per_packet: Dur::from_micros(120),
        }
    }

    /// SUN SPARCstation ELC (~33 MHz): the paper's Ethernet hosts.
    pub fn sparc_elc() -> HostParams {
        HostParams {
            name: "SPARCstation ELC (33 MHz)",
            clock_hz: 33_000_000,
            bus_access: Dur::from_nanos(400),
            syscall: Dur::from_micros(75),
            trap: Dur::from_micros(15),
            interrupt: Dur::from_micros(75),
            tcp_per_packet: Dur::from_micros(150),
        }
    }

    /// A deliberately fast, low-overhead host for unit tests that want
    /// communication costs to dominate.
    pub fn test_fast() -> HostParams {
        HostParams {
            name: "test host (1 GHz)",
            clock_hz: 1_000_000_000,
            bus_access: Dur::from_nanos(4),
            syscall: Dur::from_micros(1),
            trap: Dur::from_nanos(200),
            interrupt: Dur::from_micros(1),
            tcp_per_packet: Dur::from_micros(2),
        }
    }

    /// Charges `cycles` of computation to the calling green thread.
    pub fn compute(&self, ctx: &Ctx, cycles: u64) {
        ctx.sleep(Dur::for_cycles(cycles, self.clock_hz));
    }

    /// Virtual time for `cycles` of computation.
    pub(crate) fn cycles(&self, cycles: u64) -> Dur {
        Dur::for_cycles(cycles, self.clock_hz)
    }

    /// Time to move `bytes` of message data through the given datapath
    /// (Figure 3: accesses-per-word × words × bus-access time).
    pub fn copy_time(&self, bytes: usize, kind: DatapathKind) -> Dur {
        let words = bytes.div_ceil(4) as u64;
        self.bus_access.times(words * kind.accesses_per_word())
    }

    /// Effective one-way memory throughput of a datapath in bytes/sec
    /// (reporting helper for the Figure 3 regenerator).
    pub fn datapath_bandwidth(&self, kind: DatapathKind) -> f64 {
        let t = self.copy_time(1 << 20, kind);
        (1u64 << 20) as f64 / t.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_sim::Sim;

    #[test]
    fn access_counts_match_paper() {
        assert_eq!(DatapathKind::SocketTcp.accesses_per_word(), 5);
        assert_eq!(DatapathKind::NcsMapped.accesses_per_word(), 3);
    }

    #[test]
    fn copy_time_ratio_is_five_thirds() {
        let h = HostParams::sparc_ipx();
        let tcp = h.copy_time(4096, DatapathKind::SocketTcp);
        let ncs = h.copy_time(4096, DatapathKind::NcsMapped);
        assert_eq!(tcp.as_ps() * 3, ncs.as_ps() * 5);
    }

    #[test]
    fn copy_time_scales_linearly() {
        let h = HostParams::sparc_elc();
        let one = h.copy_time(1024, DatapathKind::SocketTcp);
        let four = h.copy_time(4096, DatapathKind::SocketTcp);
        assert_eq!(four, one * 4);
    }

    #[test]
    fn copy_time_rounds_partial_words_up() {
        let h = HostParams::sparc_ipx();
        assert_eq!(
            h.copy_time(1, DatapathKind::NcsMapped),
            h.copy_time(4, DatapathKind::NcsMapped)
        );
        assert!(h.copy_time(5, DatapathKind::NcsMapped) > h.copy_time(4, DatapathKind::NcsMapped));
    }

    #[test]
    fn compute_charges_clock_cycles() {
        let sim = Sim::new();
        sim.spawn("c", |ctx| {
            let h = HostParams::sparc_ipx(); // 40 MHz: 1 Mcycle = 25 ms
            h.compute(ctx, 1_000_000);
            assert_eq!(ctx.now().as_ps(), Dur::from_millis(25).as_ps());
        });
        sim.run().assert_clean();
    }

    #[test]
    fn ncs_datapath_faster() {
        let h = HostParams::sparc_ipx();
        assert!(
            h.datapath_bandwidth(DatapathKind::NcsMapped)
                > h.datapath_bandwidth(DatapathKind::SocketTcp)
        );
    }
}
