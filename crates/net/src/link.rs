//! Point-to-point link models with FIFO queueing.
//!
//! A [`LinkState`] tracks when a link's transmitter frees up
//! (`busy_until`); enqueueing a chunk books the next free slot. This is the
//! standard packet-granularity FIFO-queue model: exact for a single sender,
//! and a faithful first-come-first-served approximation when several
//! activities share the link, without simulating every 53-byte cell as its
//! own event.
//!
//! [`LinkSpec`] presets carry *payload-effective* rates: SONET section/line/
//! path overhead, DS-3 PLCP framing and TAXI coding are already deducted, so
//! `Dur::for_bytes(wire_bytes, rate)` is the real serialization time of that
//! many link-layer bytes.

use ncs_sim::sync::Mutex;
use ncs_sim::{Dur, SimTime};
use std::sync::Arc;

/// Static description of a link type.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Link-type name for reports.
    pub name: &'static str,
    /// Payload-effective data rate, bits per second.
    pub(crate) rate_bps: u64,
    /// One-way propagation delay.
    pub propagation: Dur,
}

impl LinkSpec {
    /// FORE TAXI host–switch interface: 140 Mb/s, LAN-scale propagation.
    pub(crate) const fn taxi_140() -> LinkSpec {
        LinkSpec {
            name: "TAXI-140",
            rate_bps: 140_000_000,
            propagation: Dur::from_micros(5),
        }
    }

    /// SONET OC-3c: 155.52 Mb/s line rate, 149.76 Mb/s SPE payload.
    pub(crate) const fn oc3(propagation: Dur) -> LinkSpec {
        LinkSpec {
            name: "OC-3c",
            rate_bps: 149_760_000,
            propagation,
        }
    }

    /// SONET OC-48c: 2.48832 Gb/s line rate, 2.39616 Gb/s payload.
    pub(crate) const fn oc48(propagation: Dur) -> LinkSpec {
        LinkSpec {
            name: "OC-48c",
            rate_bps: 2_396_160_000,
            propagation,
        }
    }

    /// DS-3 with PLCP framing: 44.736 Mb/s line, 40.704 Mb/s cell payload.
    pub(crate) const fn ds3(propagation: Dur) -> LinkSpec {
        LinkSpec {
            name: "DS-3",
            rate_bps: 40_704_000,
            propagation,
        }
    }

    /// Classic shared 10 Mb/s Ethernet.
    pub fn ethernet10() -> LinkSpec {
        LinkSpec {
            name: "Ethernet-10",
            rate_bps: 10_000_000,
            propagation: Dur::from_micros(10),
        }
    }

    /// Serialization time for `bytes` on this link.
    pub(crate) fn tx_time(&self, bytes: usize) -> Dur {
        Dur::for_bytes(bytes, self.rate_bps)
    }
}

struct LinkInner {
    busy_until: SimTime,
    /// Scheduled outage windows `[down, up)`: any transmission overlapping
    /// one is lost on the wire (the transmitter still clocks the bits out).
    down_windows: Vec<(SimTime, SimTime)>,
    flap_losses: u64,
}

/// Dynamic state of one unidirectional link.
pub struct LinkState {
    /// The link's static parameters.
    pub spec: LinkSpec,
    inner: Mutex<LinkInner>,
}

/// A booked transmission on a link.
#[derive(Clone, Copy, Debug)]
pub struct TxSlot {
    /// When the first bit goes out.
    pub start: SimTime,
    /// When the last bit has left the transmitter.
    pub end: SimTime,
    /// When the last bit arrives at the far end (`end` + propagation).
    pub arrival: SimTime,
    /// The transmission overlapped a scheduled outage window: the bits were
    /// clocked out but never reached the far end.
    pub(crate) lost: bool,
}

impl LinkState {
    /// Creates an idle link.
    pub fn new(spec: LinkSpec) -> Arc<LinkState> {
        Arc::new(LinkState {
            spec,
            inner: Mutex::new(LinkInner {
                busy_until: SimTime::ZERO,
                down_windows: Vec::new(),
                flap_losses: 0,
            }),
        })
    }

    /// Books `wire_bytes` for transmission at or after `earliest`, with an
    /// extra `gap` of dead time appended (inter-frame gap on Ethernet, 0 on
    /// ATM links). FIFO: the chunk starts when both the caller is ready and
    /// the link is free.
    pub fn enqueue(&self, earliest: SimTime, wire_bytes: usize, gap: Dur) -> TxSlot {
        let mut l = self.inner.lock();
        let start = earliest.max(l.busy_until);
        let end = start + self.spec.tx_time(wire_bytes);
        l.busy_until = end + gap;
        let lost = l.down_windows.iter().any(|&(d, u)| start < u && end > d);
        if lost {
            l.flap_losses += 1;
        }
        TxSlot {
            start,
            end,
            arrival: end + self.spec.propagation,
            lost,
        }
    }

    /// Schedules an outage window `[down, up)`: any transmission whose wire
    /// time overlaps it is marked lost. Deterministic link-flap injection.
    pub fn schedule_flap(&self, down: SimTime, up: SimTime) {
        assert!(down < up, "flap window must have positive width");
        self.inner.lock().down_windows.push((down, up));
    }

    /// Whether a scheduled outage covers instant `at`.
    pub(crate) fn is_down(&self, at: SimTime) -> bool {
        self.inner
            .lock()
            .down_windows
            .iter()
            .any(|&(d, u)| d <= at && at < u)
    }

    /// Transmissions lost to scheduled outages so far.
    pub(crate) fn flap_losses(&self) -> u64 {
        self.inner.lock().flap_losses
    }

    /// Wire bytes still queued ahead of `now`, at this link's rate.
    pub(crate) fn backlog_bytes(&self, now: SimTime) -> u64 {
        let ps = u128::from(self.backlog(now).as_ps());
        (ps * u128::from(self.spec.rate_bps) / 8 / 1_000_000_000_000) as u64
    }

    /// How far beyond `now` this link's transmitter is already booked.
    pub fn backlog(&self, now: SimTime) -> Dur {
        self.inner.lock().busy_until.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    #[test]
    fn idle_link_starts_immediately() {
        let link = LinkState::new(LinkSpec::ethernet10());
        let slot = link.enqueue(t(5), 1250, Dur::ZERO); // 1250 B at 10 Mb/s = 1 ms
        assert_eq!(slot.start, t(5));
        assert_eq!(slot.end, t(5) + Dur::from_millis(1));
        assert_eq!(slot.arrival, slot.end + Dur::from_micros(10));
    }

    #[test]
    fn fifo_queueing_serializes() {
        let link = LinkState::new(LinkSpec::ethernet10());
        let a = link.enqueue(t(0), 1250, Dur::ZERO);
        let b = link.enqueue(t(0), 1250, Dur::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(link.backlog(t(0)), Dur::from_millis(2));
    }

    #[test]
    fn gap_holds_the_link() {
        let link = LinkState::new(LinkSpec::ethernet10());
        let a = link.enqueue(t(0), 1250, Dur::from_micros(9));
        let b = link.enqueue(t(0), 1250, Dur::ZERO);
        assert_eq!(b.start, a.end + Dur::from_micros(9));
    }

    #[test]
    fn late_arrival_after_idle_gap() {
        let link = LinkState::new(LinkSpec::ethernet10());
        let _ = link.enqueue(t(0), 125, Dur::ZERO); // 100 us
        let b = link.enqueue(t(500), 125, Dur::ZERO);
        assert_eq!(b.start, t(500));
    }

    #[test]
    fn preset_rates_payload_effective() {
        // OC-3c carries 149.76 Mb/s of cells: one 53-byte cell = 2.831 us.
        let oc3 = LinkSpec::oc3(Dur::ZERO);
        let cell = oc3.tx_time(53);
        assert!((cell.as_secs_f64() - 53.0 * 8.0 / 149.76e6).abs() < 1e-12);
        assert!(LinkSpec::oc48(Dur::ZERO).rate_bps > 15 * oc3.rate_bps);
        assert!(LinkSpec::ds3(Dur::ZERO).rate_bps < oc3.rate_bps / 3);
    }

    #[test]
    fn counters_accumulate() {
        let link = LinkState::new(LinkSpec::taxi_140());
        let a = link.enqueue(t(0), 53, Dur::ZERO);
        let b = link.enqueue(t(0), 53, Dur::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(link.backlog(t(0)), link.spec.tx_time(53) * 2);
    }

    #[test]
    fn flap_window_loses_overlapping_transmissions() {
        let link = LinkState::new(LinkSpec::ethernet10());
        link.schedule_flap(t(100), t(300));
        // 125 B at 10 Mb/s = 100 us of wire time.
        let before = link.enqueue(t(0), 125, Dur::ZERO); // [0, 100): clean
        let during = link.enqueue(t(150), 125, Dur::ZERO); // [150, 250): lost
        let after = link.enqueue(t(300), 125, Dur::ZERO); // [300, 400): clean
        assert!(!before.lost);
        assert!(during.lost);
        assert!(!after.lost);
        assert_eq!(link.flap_losses(), 1);
        assert!(link.is_down(t(200)));
        assert!(!link.is_down(t(300)));
    }

    #[test]
    fn straddling_the_outage_edge_still_loses() {
        let link = LinkState::new(LinkSpec::ethernet10());
        link.schedule_flap(t(50), t(60));
        let slot = link.enqueue(t(0), 125, Dur::ZERO); // [0, 100) overlaps
        assert!(slot.lost);
    }

    #[test]
    fn backlog_bytes_tracks_queued_wire_time() {
        let link = LinkState::new(LinkSpec::ethernet10());
        link.enqueue(t(0), 1250, Dur::ZERO); // 1 ms of wire time
        assert_eq!(link.backlog_bytes(t(0)), 1250);
        assert_eq!(link.backlog_bytes(t(2000)), 0);
    }
}
