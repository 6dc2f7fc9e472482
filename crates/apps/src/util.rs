//! Small helpers shared by the distributed application drivers.

use ncs_net::HostParams;
use ncs_sim::{Ctx, SpanKind};

/// Charges `cycles` of computation to a plain green thread (the p4 drivers,
/// which have no NCS context) and records a compute span.
pub fn charge_compute(ctx: &Ctx, host: &HostParams, actor: &str, label: &'static str, cycles: u64) {
    let t0 = ctx.now();
    host.compute(ctx, cycles);
    let t1 = ctx.now();
    ctx.sim().with_spans(|tr| {
        tr.span(actor, SpanKind::Compute, label, t0, t1);
    });
}

/// A TCP testbed of `n` fast hosts on an ideal 20 µs fabric: the unit
/// tests' network.
#[cfg(test)]
pub(crate) fn fast_net(n: usize) -> std::sync::Arc<dyn ncs_net::Network> {
    use ncs_net::{IdealFabric, TcpNet, TcpParams};
    use std::sync::Arc;
    let fabric = Arc::new(IdealFabric::new(n, ncs_sim::Dur::from_micros(20)));
    let hosts = (0..n).map(|_| HostParams::test_fast()).collect();
    Arc::new(TcpNet::new(fabric, hosts, TcpParams::ip_over_atm()))
}
