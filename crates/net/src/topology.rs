//! Ready-made testbeds matching the paper's experimental environment
//! (Section 2): SUN/Ethernet, SUN/ATM LAN, and the NYNET WAN, each with the
//! appropriate host models and transport stack.

use std::sync::Arc;

use crate::atm::{AtmFabric, AtmLanParams, NynetParams, Topology};
use crate::ethernet::{EthernetFabric, EthernetParams};
use crate::host::HostParams;
use crate::stack::{AtmApiNet, AtmApiParams, Network, TcpNet, TcpParams};
use crate::wan::{FatTreeParams, WanRingParams};

/// The three hardware configurations of the paper plus the two HSM
/// variants enabled by NCS's second MPS implementation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Testbed {
    /// SPARCstation ELCs on shared 10 Mb/s Ethernet, TCP/IP (baseline LAN).
    SunEthernet,
    /// SPARCstation IPXs on a FORE ATM LAN, TCP/IP over ATM (NSM).
    SunAtmLanTcp,
    /// SPARCstation IPXs across the NYNET WAN testbed, TCP/IP over ATM.
    NynetTcp,
    /// SPARCstation IPXs on the FORE ATM LAN via the NCS ATM API (HSM).
    SunAtmLanApi,
    /// SPARCstation IPXs across NYNET via the NCS ATM API (HSM).
    NynetApi,
}

impl Testbed {
    /// Short identifier used in experiment tables.
    pub fn id(self) -> &'static str {
        match self {
            Testbed::SunEthernet => "ethernet",
            Testbed::SunAtmLanTcp => "atm-lan-tcp",
            Testbed::NynetTcp => "nynet-tcp",
            Testbed::SunAtmLanApi => "atm-lan-api",
            Testbed::NynetApi => "nynet-api",
        }
    }

    /// Builds the testbed's network stack for `nodes` hosts: the wire
    /// first, then the transport the testbed runs over it.
    pub fn build(self, nodes: usize) -> Arc<dyn Network> {
        let topology: Topology = match self {
            Testbed::SunEthernet => {
                let fabric = Arc::new(EthernetFabric::new(EthernetParams::new(nodes)));
                let hosts = vec![HostParams::sparc_elc(); nodes];
                return Arc::new(TcpNet::new(fabric, hosts, TcpParams::ethernet()));
            }
            Testbed::SunAtmLanTcp | Testbed::SunAtmLanApi => AtmLanParams::fore_lan(nodes).into(),
            Testbed::NynetTcp | Testbed::NynetApi => NynetParams::nynet(nodes).into(),
        };
        let fabric = Arc::new(AtmFabric::new(topology));
        let hosts = vec![HostParams::sparc_ipx(); nodes];
        match self {
            Testbed::SunAtmLanApi | Testbed::NynetApi => {
                Arc::new(AtmApiNet::new(fabric, hosts, AtmApiParams::default()))
            }
            _ => Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm())),
        }
    }
}

/// The topology axis of the WAN-scale chaos sweep: one switch, a campus
/// fat-tree, or a wide-area ring. All three run SPARCstation IPX hosts
/// over TCP/IP-over-ATM so only the wire topology varies between arms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosTopology {
    /// Single FORE switch (the paper's ATM LAN).
    Lan,
    /// Two-level fat-tree: TAXI access into edge switches, OC-3 trunks to
    /// two cores.
    FatTree,
    /// Wide-area ring with mixed DS-3/OC-48 long-haul segments and
    /// millisecond propagation.
    WanRing,
}

impl ChaosTopology {
    /// Short identifier used in result tables.
    pub fn id(self) -> &'static str {
        match self {
            ChaosTopology::Lan => "lan",
            ChaosTopology::FatTree => "fat-tree",
            ChaosTopology::WanRing => "wan-ring",
        }
    }

    /// All sweep arms, in report order.
    pub fn all() -> [ChaosTopology; 3] {
        [
            ChaosTopology::Lan,
            ChaosTopology::FatTree,
            ChaosTopology::WanRing,
        ]
    }

    /// Builds a chaos testbed: a fabric over `nodes + extra_nodes` hosts
    /// (the extras carry cross-traffic, not application processes) with an
    /// optional finite per-switch output buffer, and the TCP/IP-over-ATM
    /// stack on top. Returns the fabric twice — as the handle the fault
    /// harness flaps links through, and erased inside the [`Network`] — so
    /// the harness can keep scheduling faults after the stack takes
    /// ownership.
    pub fn build_chaos(
        self,
        nodes: usize,
        extra_nodes: usize,
        output_buffer_cells: Option<usize>,
    ) -> (Arc<AtmFabric>, Arc<dyn Network>) {
        let total = nodes + extra_nodes;
        let topology = match self {
            ChaosTopology::Lan => Topology::Star(AtmLanParams {
                output_buffer_cells,
                ..AtmLanParams::fore_lan(total)
            }),
            ChaosTopology::FatTree => Topology::FatTree(FatTreeParams {
                output_buffer_cells,
                ..FatTreeParams::campus(total)
            }),
            ChaosTopology::WanRing => Topology::Ring(WanRingParams {
                output_buffer_cells,
                ..WanRingParams::mixed_ring(total, 4)
            }),
        };
        let fabric = Arc::new(AtmFabric::new(topology));
        let hosts = vec![HostParams::sparc_ipx(); total];
        let net = Arc::new(TcpNet::new(
            Arc::clone(&fabric),
            hosts,
            TcpParams::ip_over_atm(),
        ));
        (fabric, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::NodeId;
    use crate::stack::BlockingWait;
    use bytes::Bytes;
    use ncs_sim::sync::Mutex;
    use ncs_sim::{Dur, Sim};

    fn one_way_latency(testbed: Testbed, bytes: usize) -> Dur {
        let net = testbed.build(4);
        let sim = Sim::new();
        let lat = Arc::new(Mutex::new(Dur::ZERO));
        let n2 = Arc::clone(&net);
        sim.spawn("tx", move |ctx| {
            n2.send(
                ctx,
                &BlockingWait,
                NodeId(0),
                NodeId(3),
                0,
                Bytes::from(vec![0u8; bytes]),
            );
        });
        let l2 = Arc::clone(&lat);
        sim.spawn("rx", move |ctx| {
            let m = net.inbox(NodeId(3)).recv(ctx).unwrap();
            ctx.sleep(net.recv_pickup_cost(NodeId(3), m.payload.len()));
            *l2.lock() = ctx.now().since(m.sent_at);
        });
        sim.run().assert_clean();
        let d = *lat.lock();
        d
    }

    #[test]
    fn all_testbeds_build_and_deliver() {
        for tb in [
            Testbed::SunEthernet,
            Testbed::SunAtmLanTcp,
            Testbed::NynetTcp,
            Testbed::SunAtmLanApi,
            Testbed::NynetApi,
        ] {
            let d = one_way_latency(tb, 4096);
            assert!(d > Dur::ZERO, "{}: zero latency", tb.id());
        }
    }

    #[test]
    fn atm_lan_beats_ethernet_for_bulk() {
        let eth = one_way_latency(Testbed::SunEthernet, 100_000);
        let atm = one_way_latency(Testbed::SunAtmLanTcp, 100_000);
        assert!(atm < eth, "ATM {atm} !< Ethernet {eth}");
    }

    #[test]
    fn hsm_beats_nsm_on_atm_lan() {
        let nsm = one_way_latency(Testbed::SunAtmLanTcp, 100_000);
        let hsm = one_way_latency(Testbed::SunAtmLanApi, 100_000);
        assert!(hsm < nsm, "HSM {hsm} !< NSM {nsm}");
    }

    #[test]
    fn wan_adds_propagation_over_lan() {
        let lan = one_way_latency(Testbed::SunAtmLanTcp, 1000);
        let wan = one_way_latency(Testbed::NynetTcp, 1000);
        assert!(wan.saturating_sub(lan) >= Dur::from_millis(1));
    }
}

#[cfg(test)]
mod id_tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_stable() {
        let ids: Vec<&str> = [
            Testbed::SunEthernet,
            Testbed::SunAtmLanTcp,
            Testbed::NynetTcp,
            Testbed::SunAtmLanApi,
            Testbed::NynetApi,
        ]
        .iter()
        .map(|t| t.id())
        .collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "testbed ids must be unique");
        assert_eq!(Testbed::SunEthernet.id(), "ethernet");
    }

    #[test]
    fn descriptions_name_their_parts() {
        assert!(Testbed::SunEthernet
            .build(2)
            .description()
            .contains("Ethernet"));
        assert!(Testbed::SunAtmLanTcp
            .build(2)
            .description()
            .contains("TCP/IP"));
        assert!(Testbed::SunAtmLanApi
            .build(2)
            .description()
            .contains("ATM API"));
        assert!(Testbed::NynetTcp.build(2).description().contains("NYNET"));
    }

    #[test]
    fn chaos_topologies_build_with_extras_and_buffers() {
        use crate::fabric::{Fabric, NodeId};
        for topo in ChaosTopology::all() {
            let (fabric, net) = topo.build_chaos(16, 4, Some(256));
            assert_eq!(net.nodes(), 20, "{}", topo.id());
            assert_eq!(fabric.nodes(), 20);
            // The handles the fault harness needs are live: access links
            // exist for every host, and the multi-switch arms expose
            // trunks to flap.
            let _ = fabric.uplink(NodeId(0));
            let _ = fabric.downlink(NodeId(19));
            match topo {
                ChaosTopology::Lan => assert!(fabric.trunk_links().is_empty()),
                _ => assert!(!fabric.trunk_links().is_empty(), "{}", topo.id()),
            }
            assert_eq!(fabric.overflow_drop_count(), 0);
            assert_eq!(fabric.flap_loss_count(), 0);
        }
    }

    #[test]
    fn hosts_match_testbed_hardware() {
        use crate::fabric::NodeId;
        // Ethernet testbed runs on ELCs, ATM testbeds on IPXs (Section 2).
        assert!(Testbed::SunEthernet
            .build(2)
            .host(NodeId(0))
            .name
            .contains("ELC"));
        for tb in [
            Testbed::SunAtmLanTcp,
            Testbed::NynetTcp,
            Testbed::SunAtmLanApi,
        ] {
            assert!(
                tb.build(2).host(NodeId(0)).name.contains("IPX"),
                "{}",
                tb.id()
            );
        }
    }
}
