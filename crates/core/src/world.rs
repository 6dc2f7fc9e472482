//! Launching a whole NCS computation (the paper's Figure 10 generic model,
//! once per process).

use ncs_net::Network;
use ncs_sim::Sim;
use std::sync::Arc;

use crate::env::{NcsConfig, NcsProc, TermBarrier};

/// Spawns `n` NCS processes on `nets` (tier 0 first). For each process, the
/// `setup` closure runs on the process main thread and creates its user
/// threads (`NCS_t_create`); then the process starts (`NCS_start`) and runs
/// to completion. Returns the process handles.
///
/// ```
/// use ncs_core::{NcsWorld, NcsConfig};
/// use ncs_net::Testbed;
/// use ncs_sim::Sim;
/// use bytes::Bytes;
///
/// let sim = Sim::new();
/// let net = Testbed::SunAtmLanTcp.build(2);
/// NcsWorld::launch(&sim, vec![net], 2, NcsConfig::default(), |id, proc_| {
///     proc_.t_create("worker", 5, move |ncs| {
///         if ncs.proc().id() == 0 {
///             ncs.send(ncs_core::ThreadAddr::new(1, 0), 7, Bytes::from_static(b"hi"));
///         } else {
///             let m = ncs.recv(None, None, None);
///             assert_eq!(m.tag, 7);
///         }
///     });
///     let _ = id;
/// });
/// sim.run().assert_clean();
/// ```
pub struct NcsWorld {
    procs: Vec<NcsProc>,
}

impl NcsWorld {
    /// Builds and schedules the computation; run the simulation to execute.
    pub fn launch(
        sim: &Sim,
        nets: Vec<Arc<dyn Network>>,
        n: usize,
        config: NcsConfig,
        setup: impl Fn(usize, &NcsProc) + Send + Sync + 'static,
    ) -> NcsWorld {
        assert!(n >= 1);
        let setup = Arc::new(setup);
        // `NCS_end` is collective: a locally-finished process lingers at
        // this barrier (still re-ACKing duplicate frames) until every peer
        // is quiescent, so a lost final acknowledgment never leaves a peer
        // retransmitting at a torn-down receiver.
        let term = TermBarrier::new(n);
        let mut procs = Vec::with_capacity(n);
        for id in 0..n {
            let proc_ = NcsProc::init(sim, id, n, nets.clone(), config.clone(), &term);
            procs.push(proc_.clone());
            let setup = Arc::clone(&setup);
            sim.spawn(format!("proc{id}-main"), move |ctx| {
                setup(id, &proc_);
                proc_.start(ctx);
            });
        }
        NcsWorld { procs }
    }

    /// Handles of the launched processes.
    pub fn procs(&self) -> &[NcsProc] {
        &self.procs
    }
}
