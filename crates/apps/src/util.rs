//! Small helpers shared by the distributed application drivers.

use ncs_net::HostParams;
use ncs_sim::{Ctx, Sim, SpanKind};

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

/// Records a communication span on `actor` covering `f`'s execution.
pub fn comm_span<R>(sim: &Sim, actor: &str, label: &'static str, f: impl FnOnce() -> R) -> R {
    let t0 = sim.now();
    let r = f();
    let t1 = sim.now();
    sim.with_spans(|tr| {
        tr.span(actor, SpanKind::Comm, label, t0, t1);
    });
    r
}
