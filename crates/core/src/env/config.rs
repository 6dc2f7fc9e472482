//! The arguments of `NCS_init`: flow- and error-control selection plus the
//! scheduler, polling and retransmission-timeout parameters.

use ncs_mts::MtsConfig;
use ncs_sim::{AnalysisConfig, Dur};

/// Flow-control strategy (the `flow` argument of `NCS_init`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowControl {
    /// No NCS-level flow control: rely on the transport (what the paper's
    /// NCS_MTS/p4 measurements use — "the flow and error control provided
    /// by p4").
    None,
    /// Credit-based: a sender may have at most `window` unacknowledged data
    /// messages to any one destination; the receiver returns credits as it
    /// ingests.
    Credit {
        /// Per-destination message window.
        window: u32,
    },
}

/// Error-control strategy (the `error` argument of `NCS_init`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorControl {
    /// Trust the transport (TCP or ATM with AAL5 CRC).
    None,
    /// NCS-level checksum with retransmit-on-NACK, for transports modeled
    /// as corrupting.
    ///
    /// It covers every message class except the acknowledgments
    /// themselves ([`MsgClass::sequenced`](crate::MsgClass::sequenced)):
    /// data, chunks, credit grants, signals, barrier messages and
    /// exceptions are sequenced, checksummed, acknowledged and retransmitted
    /// alike, so none of them is lost silently.
    ///
    /// Two things draw the NACK and its immediate retransmission: a frame
    /// the transport delivers marked damaged (`ncs_net::ChaosNet`'s
    /// cell-level faults — the modelled AAL5 CRC fails and the SAR hands
    /// the corrupted SDU up with its reception status), which is answered
    /// by the sequence number its header claims without being parsed; and
    /// a frame delivered unmarked whose NCS checksum fails (the
    /// message-level faults of `ChaosParams::message_level`). Losses that
    /// raise no indication at the receiver — the end-of-message cell,
    /// a switch overflow, a link flap, a lost ACK — are recovered by the
    /// sender's adaptive RTO.
    ChecksumRetransmit,
}

/// Configuration for one NCS process (the arguments of `NCS_init` plus
/// scheduler and polling costs).
#[derive(Clone, Debug)]
pub struct NcsConfig {
    /// User-level scheduler parameters.
    pub mts: MtsConfig,
    /// Flow-control thread selection.
    pub flow: FlowControl,
    /// Error-control thread selection.
    pub error: ErrorControl,
    /// CPU cost of one receive-thread poll of the transport
    /// (`p4_messages_available`).
    pub poll_cost: Dur,
    /// Error control: adaptive retransmission-timeout parameters.
    pub rto: RtoConfig,
    /// Error control: give up at the timeout that finds a frame
    /// retransmitted this many times, timer- and NACK-driven resends
    /// counted alike, abandoning every frame outstanding toward the
    /// destination and marking it **dead**: further sends to it fail fast
    /// instead of hanging. Each user send that fails either way raises one
    /// local delivery-failure exception (code [`EXC_DELIVERY_FAILED`]) and
    /// counts one [`ErrorStats::delivery_failures`](super::ErrorStats::delivery_failures)
    /// — once per send, a chunked transfer included; a given-up credit
    /// grant raises nothing.
    pub max_retries: u32,
    /// Pipelined data path (the paper's Approach 2): number of I/O buffers
    /// the send thread may keep in flight per destination. A data message
    /// larger than [`NcsConfig::io_buffer_bytes`] is chunked into
    /// buffer-sized CS-PDUs; with checksum/retransmit error control active,
    /// at most this many chunks ride unacknowledged at once, and the send
    /// thread refills buffers as acknowledgments free them.
    pub io_buffers: u32,
    /// Size of one I/O buffer: the chunk granularity of the pipelined data
    /// path. Large messages are split at this boundary, which also keeps
    /// every CS-PDU under the AAL5 65 535-byte ceiling (a >64 KiB send used
    /// to die in the adaptation layer; now it is designed behavior).
    pub io_buffer_bytes: usize,
    /// Receiver-side reclamation: a partial chunk-reassembly buffer that
    /// sees no new chunk for this long is dropped and its memory reclaimed
    /// (a crash-stopped sender must not leak receiver buffers forever).
    /// Must be set comfortably above the sender's give-up horizon
    /// (`max_retries` × max RTO): chunks are acknowledged individually, so
    /// reclaiming a transfer whose sender is still retrying would lose the
    /// already-acknowledged bytes silently. `None` (the default) disables
    /// reclamation.
    pub reassembly_timeout: Option<Dur>,
    /// Runtime analysis pass: deadlock / lost-wakeup detection in the
    /// scheduler plus protocol conservation checks (credits, sequence
    /// numbers, retry budgets) in the system threads. Off by default; an
    /// active config here is installed into the simulation
    /// ([`Sim::set_analysis`](ncs_sim::Sim::set_analysis)) at `NCS_init`,
    /// where the scheduler and the kernel read it.
    pub analysis: AnalysisConfig,
}

impl Default for NcsConfig {
    fn default() -> NcsConfig {
        NcsConfig {
            mts: MtsConfig::default(),
            flow: FlowControl::None,
            error: ErrorControl::None,
            poll_cost: Dur::from_micros(10),
            rto: RtoConfig::default(),
            max_retries: 8,
            io_buffers: 4,
            io_buffer_bytes: 16 * 1024,
            reassembly_timeout: None,
            analysis: AnalysisConfig::off(),
        }
    }
}

/// Adaptive retransmission-timeout parameters (Jacobson's algorithm).
///
/// Error control keeps a per-destination smoothed RTT and variance from
/// acknowledged frames (`SRTT += (rtt − SRTT)/8`, `RTTVAR += (|rtt − SRTT|
/// − RTTVAR)/4`) and times out at `SRTT + 4·RTTVAR`, clamped to `[min,
/// max]`. Karn's rule: retransmitted frames never contribute samples, since
/// their ACKs are ambiguous. Each timeout doubles the timeout (exponential
/// backoff), still capped at `max`; a fresh sample resets the backoff.
#[derive(Clone, Copy, Debug)]
pub struct RtoConfig {
    /// Timeout used before the first RTT sample from a destination.
    pub initial: Dur,
    /// Floor for the computed timeout.
    pub min: Dur,
    /// Ceiling for the computed timeout, including backoff.
    pub max: Dur,
}

impl Default for RtoConfig {
    fn default() -> RtoConfig {
        RtoConfig {
            initial: Dur::from_millis(500),
            min: Dur::from_millis(10),
            max: Dur::from_secs(4),
        }
    }
}

impl RtoConfig {
    /// A config whose three parameters scale from one base timeout:
    /// `initial = base × 16` (= `max`), `min = base / 4`, `max = base ×
    /// 16`. Convenient for tests and experiments that used to set a single
    /// fixed timeout.
    ///
    /// The pre-sample timeout is deliberately the *ceiling*, not the base:
    /// until the first RTT measurement exists there is nothing to justify
    /// an aggressive timer, and an `initial` below the real path RTT
    /// guarantees a spurious retransmission of the very first frame (RFC
    /// 6298 makes the same call with its 1-second initial RTO). Jacobson's
    /// estimator pulls the timeout down as soon as the first ACK lands.
    pub fn from_base(base: Dur) -> RtoConfig {
        RtoConfig {
            initial: base.times(16),
            min: Dur::from_ps((base.as_ps() / 4).max(1)),
            max: base.times(16),
        }
    }
}

/// Exception code raised locally when error control exhausts its retries.
pub const EXC_DELIVERY_FAILED: u32 = 0xDEAD_5E0D;

/// Graceful degradation: at most this many retransmissions may sit in the
/// send queue at once. A timer that fires while the queue is at the cap
/// defers (backing the RTO off and counting it in
/// `ErrorStats::retx_deferred`) instead of queueing, and a NACK at the cap
/// is left to the timer — under sustained loss the retransmit backlog stays
/// bounded rather than growing without limit.
pub const RETX_QUEUE_CAP: usize = 256;

/// MTS priority of the send system thread (highest: transfers start
/// promptly once the CPU is free).
pub const SEND_THREAD_PRIORITY: usize = 0;
/// MTS priority of the receive system thread (lowest: it polls only when
/// no user thread can run).
pub const RECV_THREAD_PRIORITY: usize = ncs_mts::PRIORITY_LEVELS - 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_base_scales_all_three_knobs() {
        let r = RtoConfig::from_base(Dur::from_millis(20));
        // Pre-sample RTO sits at the ceiling (RFC 6298-style conservative
        // initial): a first-frame timer below the real path RTT would fire
        // a guaranteed-spurious retransmission.
        assert_eq!(r.initial, Dur::from_millis(320));
        assert_eq!(r.min, Dur::from_millis(5));
        assert_eq!(r.max, Dur::from_millis(320));
    }
}
