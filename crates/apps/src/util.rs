//! Small helpers shared by the distributed application drivers.

use ncs_net::HostParams;
use ncs_sim::sync::Mutex;
use ncs_sim::{Ctx, SpanKind};
use std::any::Any;

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

/// A key and the value built for it, of any types: see [`INPUTS`].
pub(crate) type InputSlot = Mutex<Option<Box<dyn Any + Send>>>;

/// The last input set and reference a driver built, keyed by its config
/// minus `nodes`: the runs of one app share them. A new key, or another
/// app's key type, replaces the set, so it holds one app's inputs at most.
pub(crate) static INPUTS: InputSlot = Mutex::new(None);

/// The value `slot` holds for `key`, or `make(&key)`'s, which replaces it.
pub(crate) fn cached<K, V>(slot: &InputSlot, key: K, make: impl FnOnce(&K) -> V) -> V
where
    K: PartialEq + Send + 'static,
    V: Clone + Send + 'static,
{
    let mut slot = slot.lock();
    let hit = slot.as_ref().and_then(|b| b.downcast_ref::<(K, V)>());
    if let Some((_, v)) = hit.filter(|(k, _)| *k == key) {
        return v.clone();
    }
    *slot = None; // the old set goes before the new one is built
    let v = make(&key);
    *slot = Some(Box::new((key, v.clone())));
    v
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_hit_returns_the_same_arc_and_a_new_key_or_app_replaces_it() {
        let slot: InputSlot = Mutex::new(None);
        let one = || Arc::new(1u8);
        let a = cached(&slot, 1u64, |_| one());
        assert!(Arc::ptr_eq(&a, &cached(&slot, 1u64, |_| unreachable!())));
        cached(&slot, 2u64, |_| one()); // a new key replaces key 1
        let b = cached(&slot, 1u64, |_| one());
        assert!(!Arc::ptr_eq(&a, &b));
        cached(&slot, "fft", |_| 0.5f64); // so does another app's key type
        assert!(!Arc::ptr_eq(&b, &cached(&slot, 1u64, |_| one())));
    }
}
