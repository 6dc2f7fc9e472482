//! Topology partitioning and cross-shard link classification for sharded
//! runs, plus a deterministic large-population workload driver.
//!
//! # Partitioning rule
//!
//! A sharded NCS deployment models `hosts` hosts spread over a **fixed**
//! number of sites (`groups`), each site hanging off a local switch, sites
//! joined by wide-area trunks — the same shape as the [`crate::wan`]
//! fat-tree and WAN-ring fabrics. The partition assigns *whole sites* to
//! shards (`groups` must be divisible by the shard count), which yields
//! the property everything else rests on:
//!
//! > a message between hosts on different shards necessarily crosses a
//! > trunk, so its latency is at least the trunk's one-way propagation
//! > delay — no matter how many shards the sites are dealt onto.
//!
//! That minimum is the **lookahead** [`ShardPlan::lookahead`]: the
//! conservative time-window width [`ShardedSim`] synchronizes on. Because
//! the *topology* (hosts, sites, link specs) is independent of the shard
//! count, every latency in the model — and therefore every virtual
//! timestamp — is partition-independent, which is half of the determinism
//! guarantee. The other half (partition-independent tie-breaks) comes from
//! the keyed stamps of [`ShardedSim::post`].
//!
//! # Workload
//!
//! [`GossipMesh`] is the shard-scale driver used by `xp_scale`'s
//! 1k/10k/100k-host sweeps and the `shard_determinism` suite: every host
//! gossips each round with a same-site neighbour (`h+1`) and a far host one
//! site over (`h + hosts/groups`), advancing its round when both inbound
//! messages arrive, folding every delivery into a per-host FNV digest.
//! Rounds therefore spread in a data-dependent wavefront — hosts near site
//! boundaries see trunk latencies and lag their neighbours — so the event
//! pattern genuinely mixes intra- and cross-shard traffic at every window.

use std::sync::Arc;

use ncs_sim::shard::ShardedRunOutcome;
use ncs_sim::sync::Mutex;
use ncs_sim::{fnv1a, fnv1a_fold, Dur, EngineKind, ShardedSim, Sim, SimTime, FNV_OFFSET};

use crate::link::LinkSpec;

/// Physical shape of a sharded deployment: `hosts` hosts spread evenly
/// over `groups` switch sites, local links inside a site, trunks between
/// sites. Latencies derive from [`LinkSpec`]s exactly as in the
/// [`crate::wan`] fabrics.
#[derive(Clone, Debug)]
pub struct ShardNetParams {
    /// Total host count; must be a multiple of `groups`.
    pub hosts: usize,
    /// Number of switch sites. Fixed per topology — partitioning assigns
    /// sites to shards, it never moves hosts between sites.
    pub groups: usize,
    /// Host ↔ local-switch link (both directions).
    pub local: LinkSpec,
    /// Site ↔ site trunk. Its propagation delay is the lookahead bound.
    pub trunk: LinkSpec,
    /// Per-switch forwarding latency.
    pub switch_latency: Dur,
    /// Per-endpoint software cost (send-side trap + receive-side delivery),
    /// charged once on each side of a transfer.
    pub host_overhead: Dur,
}

impl ShardNetParams {
    /// WAN-scale preset: FORE TAXI host links inside each of 8 sites,
    /// DS-3 trunks with 2 ms propagation between sites (the NYNET
    /// wide-area numbers used by [`crate::wan::WanRingParams::ds3_ring`]).
    /// Lookahead = 2 ms: wide windows, cheap synchronization.
    pub fn wan_campus(hosts: usize) -> ShardNetParams {
        ShardNetParams {
            hosts,
            groups: 8,
            local: LinkSpec::taxi_140(),
            trunk: LinkSpec::ds3(Dur::from_millis(2)),
            switch_latency: Dur::from_micros(20),
            host_overhead: Dur::from_micros(10),
        }
    }

    /// Metro/campus preset: OC-3c trunks at 20 µs propagation (the
    /// [`crate::wan::FatTreeParams::campus`] numbers). Lookahead = 20 µs:
    /// tight windows, many barriers — the adversarial setting for the
    /// determinism suite.
    pub fn metro_campus(hosts: usize) -> ShardNetParams {
        ShardNetParams {
            hosts,
            groups: 8,
            local: LinkSpec::taxi_140(),
            trunk: LinkSpec::oc3(Dur::from_micros(20)),
            switch_latency: Dur::from_micros(20),
            host_overhead: Dur::from_micros(10),
        }
    }
}

/// Classification of the inter-site links under a given partition — how
/// many site pairs stay inside one shard vs cross shards, and the minimum
/// latency of any crossing transfer (the lookahead witness).
#[derive(Clone, Copy, Debug)]
pub struct ShardCut {
    /// Ordered site pairs `(a, b), a != b` whose endpoints share a shard.
    pub intra_shard_group_pairs: usize,
    /// Ordered site pairs landing on different shards.
    pub cross_shard_group_pairs: usize,
    /// Minimum one-way latency of a zero-byte transfer between hosts on
    /// different shards. Always at least the trunk propagation delay.
    pub min_cross_latency: Dur,
}

/// A partition of a [`ShardNetParams`] topology onto `shards` shards:
/// contiguous blocks of whole sites. Pure functions of (topology, shard
/// count) — no state; latency queries are partition-independent.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// The physical topology.
    pub params: ShardNetParams,
    /// Number of shards the sites are dealt onto.
    pub shards: usize,
}

impl ShardPlan {
    /// Builds the partition. `hosts` must divide evenly into `groups`, and
    /// `shards` must divide `groups` (whole-site assignment is what makes
    /// cross-shard traffic always cross a trunk).
    pub fn new(params: ShardNetParams, shards: usize) -> ShardPlan {
        assert!(params.hosts >= params.groups && params.hosts.is_multiple_of(params.groups));
        assert!(shards >= 1 && params.groups.is_multiple_of(shards),
            "shard count {shards} must divide the site count {}", params.groups);
        ShardPlan { params, shards }
    }

    /// Hosts per site.
    pub fn group_size(&self) -> usize {
        self.params.hosts / self.params.groups
    }

    /// The site `host` hangs off.
    pub fn group_of(&self, host: usize) -> usize {
        host / self.group_size()
    }

    /// The shard owning `host` (= the shard owning its site).
    pub fn shard_of(&self, host: usize) -> usize {
        self.group_of(host) / (self.params.groups / self.shards)
    }

    /// One-way transfer latency `src → dst` for a `bytes`-byte message:
    /// software overhead on both ends, serialization on the bottleneck
    /// links, propagation, switch hops. Same site: up the local link,
    /// through the site switch, down. Different sites: additionally over
    /// the trunk and through the far switch.
    pub fn one_way(&self, src: usize, dst: usize, bytes: usize) -> Dur {
        let p = &self.params;
        let base = p.host_overhead + p.local.tx_time(bytes) + p.local.propagation
            + p.switch_latency + p.local.propagation + p.host_overhead;
        if self.group_of(src) == self.group_of(dst) {
            base
        } else {
            base + p.trunk.tx_time(bytes) + p.trunk.propagation + p.switch_latency
        }
    }

    /// The conservative lookahead bound: the minimum latency any
    /// cross-shard event can have. Whole-site partitioning means every
    /// cross-shard message crosses a trunk, so the trunk propagation delay
    /// is a sound (and partition-independent) lower bound.
    pub fn lookahead(&self) -> Dur {
        self.params.trunk.propagation
    }

    /// Classifies all ordered site pairs under this partition and computes
    /// the minimum cross-shard transfer latency. Sanity-checked against
    /// [`ShardPlan::lookahead`] by the determinism suite.
    pub fn classify(&self) -> ShardCut {
        let g = self.params.groups;
        let gs = self.group_size();
        let mut intra = 0;
        let mut cross = 0;
        let mut min_cross: Option<Dur> = None;
        for a in 0..g {
            for b in 0..g {
                if a == b {
                    continue;
                }
                // Representative hosts of sites a and b.
                let (ha, hb) = (a * gs, b * gs);
                if self.shard_of(ha) == self.shard_of(hb) {
                    intra += 1;
                } else {
                    cross += 1;
                    let lat = self.one_way(ha, hb, 0);
                    min_cross = Some(min_cross.map_or(lat, |m| m.min(lat)));
                }
            }
        }
        ShardCut {
            intra_shard_group_pairs: intra,
            cross_shard_group_pairs: cross,
            min_cross_latency: min_cross.unwrap_or(self.params.trunk.propagation),
        }
    }
}

/// Configuration of a [`GossipMesh`] run.
#[derive(Clone, Copy, Debug)]
pub struct GossipConfig {
    /// Rounds each host participates in.
    pub rounds: u32,
    /// Message payload size (serialized on local + trunk links).
    pub msg_bytes: usize,
    /// Per-delivery CPU work iterations (models protocol processing cost;
    /// pure wall-clock knob, no virtual-time effect).
    pub work: u32,
    /// Workload seed, mixed into every payload word.
    pub seed: u64,
}

/// Per-host gossip state. Messages from one sender arrive in round order
/// (per-pair latency is constant), so plain counters track progress.
struct HostState {
    /// Rounds received from the near (h-1) sender.
    near_recvd: u32,
    /// Rounds received from the far (h - group_size) sender.
    far_recvd: u32,
    /// Completed rounds.
    round: u32,
    /// FNV digest over deliveries, in this host's execution order.
    digest: u64,
    delivered: u64,
}

struct MeshState {
    plan: ShardPlan,
    cfg: GossipConfig,
    sharded: ShardedSim,
    hosts: Vec<Mutex<HostState>>,
}

/// The shard-scale gossip workload: see the module docs. Construction
/// posts every host's round-0 sends; [`GossipMesh::run`] drives the
/// sharded simulation to completion.
pub struct GossipMesh {
    state: Arc<MeshState>,
}

impl GossipMesh {
    /// Builds the mesh on a fresh [`ShardedSim`] whose window width is the
    /// plan's lookahead, on the process-default green-thread engine.
    pub fn new(params: ShardNetParams, shards: usize, cfg: GossipConfig) -> GossipMesh {
        GossipMesh::with_engine(params, shards, cfg, ncs_sim::default_engine())
    }

    /// Like [`GossipMesh::new`] with an explicit engine for every shard.
    pub fn with_engine(
        params: ShardNetParams,
        shards: usize,
        cfg: GossipConfig,
        engine: EngineKind,
    ) -> GossipMesh {
        let plan = ShardPlan::new(params, shards);
        let sharded = ShardedSim::with_engine(shards, plan.lookahead(), engine);
        let hosts = (0..plan.params.hosts)
            .map(|_| {
                Mutex::new(HostState {
                    near_recvd: 0,
                    far_recvd: 0,
                    round: 0,
                    digest: FNV_OFFSET,
                    delivered: 0,
                })
            })
            .collect();
        let mesh = GossipMesh {
            state: Arc::new(MeshState {
                plan,
                cfg,
                sharded,
                hosts,
            }),
        };
        if cfg.rounds > 0 {
            for h in 0..mesh.state.plan.params.hosts {
                Self::send_round(&mesh.state, h, 0, SimTime::ZERO);
            }
        }
        mesh
    }

    /// Posts host `h`'s two round-`round` messages at send time `now`.
    fn send_round(state: &Arc<MeshState>, h: usize, round: u32, now: SimTime) {
        let n = state.plan.params.hosts;
        let stride = state.plan.group_size();
        let src_shard = state.plan.shard_of(h);
        for (k, dst) in [(0u64, (h + 1) % n), (1u64, (h + stride) % n)] {
            let at = now + state.plan.one_way(h, dst, state.cfg.msg_bytes);
            // Stamp = pure function of (round, direction, source host):
            // globally unique, identical under every partition.
            let stamp = (u64::from(round) * 2 + k) * n as u64 + h as u64;
            let weak = Arc::downgrade(state);
            state.sharded.post(src_shard, state.plan.shard_of(dst), at, stamp, move |sim| {
                if let Some(state) = weak.upgrade() {
                    Self::deliver(&state, dst, h, round, k, sim);
                }
            });
        }
    }

    /// Runs on `dst`'s shard at arrival time: folds the delivery into the
    /// host digest, burns the configured CPU work, and advances the round
    /// wavefront (sending the next round once both inputs are in).
    fn deliver(state: &Arc<MeshState>, dst: usize, src: usize, round: u32, k: u64, sim: &Sim) {
        let now = sim.now();
        let payload = fnv1a_fold(fnv1a_fold(fnv1a_fold(state.cfg.seed, src as u64), u64::from(round)), k);
        let mut to_send: Option<u32> = None;
        {
            let mut st = state.hosts[dst].lock();
            st.delivered += 1;
            st.digest = fnv1a_fold(fnv1a_fold(fnv1a_fold(st.digest, now.as_ps()), src as u64), payload);
            if k == 0 {
                st.near_recvd += 1;
            } else {
                st.far_recvd += 1;
            }
            if st.near_recvd > st.round && st.far_recvd > st.round {
                st.round += 1;
                if st.round < state.cfg.rounds {
                    to_send = Some(st.round);
                }
            }
        }
        // Protocol-processing CPU cost: wall-clock only, outside the lock.
        let mut w = payload;
        for _ in 0..state.cfg.work {
            w = fnv1a_fold(w, now.as_ps());
        }
        std::hint::black_box(w);
        if let Some(r) = to_send {
            Self::send_round(state, dst, r, now);
        }
    }

    /// The partition in use.
    pub fn plan(&self) -> &ShardPlan {
        &self.state.plan
    }

    /// The underlying sharded simulation.
    pub fn sharded(&self) -> &ShardedSim {
        &self.state.sharded
    }

    /// Runs the workload to completion.
    pub fn run(&self) -> ShardedRunOutcome {
        self.state.sharded.run()
    }

    /// Total messages delivered across hosts.
    pub fn delivered(&self) -> u64 {
        self.state.hosts.iter().map(|h| h.lock().delivered).sum()
    }

    /// Per-host delivery digests, in host order.
    pub fn host_digests(&self) -> Vec<u64> {
        self.state.hosts.iter().map(|h| h.lock().digest).collect()
    }

    /// One digest over all hosts' digests and delivery counts — the
    /// "equal delivery digests" half of the determinism guarantee.
    pub fn delivery_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.state.hosts.len() * 16);
        for h in &self.state.hosts {
            let st = h.lock();
            bytes.extend_from_slice(&st.digest.to_le_bytes());
            bytes.extend_from_slice(&st.delivered.to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// Asserts every host completed every round and every message landed.
    #[track_caller]
    pub fn assert_complete(&self) {
        let expected = self.state.cfg.rounds;
        for (h, cell) in self.state.hosts.iter().enumerate() {
            let st = cell.lock();
            assert_eq!(st.round, expected, "host {h} stalled at round {}", st.round);
        }
        let msgs = 2 * self.state.plan.params.hosts as u64 * u64::from(expected);
        assert_eq!(self.delivered(), msgs, "delivery count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_site_partitioning_pins_the_lookahead() {
        let plan = ShardPlan::new(ShardNetParams::wan_campus(256), 4);
        assert_eq!(plan.group_size(), 32);
        assert_eq!(plan.shard_of(0), 0);
        assert_eq!(plan.shard_of(255), 3);
        // Hosts on different shards are always on different sites.
        for h in 0..256 {
            for other in [(h + 1) % 256, (h + 32) % 256] {
                if plan.shard_of(h) != plan.shard_of(other) {
                    assert_ne!(plan.group_of(h), plan.group_of(other));
                    assert!(plan.one_way(h, other, 0) >= plan.lookahead());
                }
            }
        }
        let cut = plan.classify();
        assert_eq!(cut.intra_shard_group_pairs + cut.cross_shard_group_pairs, 8 * 7);
        assert!(cut.min_cross_latency >= plan.lookahead());
    }

    #[test]
    fn gossip_mesh_digest_is_shard_count_invariant() {
        let digests: Vec<(u64, u64)> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let mesh = GossipMesh::new(
                    ShardNetParams::metro_campus(64),
                    shards,
                    GossipConfig {
                        rounds: 6,
                        msg_bytes: 256,
                        work: 0,
                        seed: 7,
                    },
                );
                let out = mesh.run();
                out.assert_clean();
                mesh.assert_complete();
                (mesh.delivery_digest(), out.merged_trace_hash)
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }
}
