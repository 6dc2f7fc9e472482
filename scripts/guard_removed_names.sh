#!/usr/bin/env bash
# Fails if a doc, test, example or script names an API or binary that an
# earlier change deleted: the per-cell event fork, the two modes only their
# own tests selected, `spans_to_csv` and the twenty per-experiment binaries
# (now one `xp`), the channel's unused name / peak-depth / clock accessors
# and the per-process inbox forwarder threads, the public API the
# `dead-surface` lint found unused (MTS semaphores/events/barriers, AAL3/4
# and CRC-10, the procgroup-file parser and smaller items), the MTS
# intrusive lists, the second CPU re-acquisition path and the thread API
# only tests called, the accessors `TcpNet` and `AtmApiNet` lost when they
# became one `Stack`, the registry counters that repeated an
# `ErrorStats` field, and the second owners of decisions the MPS engine
# now makes once: the retransmission timer's epoch, the queued frame's
# `prewrapped` flag, the standalone process start (`NcsProc::init` lost
# its world-less form and `init_collective` its name), the scattered
# delivery-failure raises and the MTS config's analysis flag; the Ethernet
# collision-backoff knob only tests turned on; the `ncs-analysis`
# binary with its modes and explore flags (exploration is `xp explore`);
# and the configuration fields and environment variables that only ever
# took one value, now constants beside the code that reads them: the
# per-topology access link and switch latency (written as the `access:`
# and `switch_latency:` fields of a `*Params` literal, so the new
# `ACCESS` / `SWITCH_LATENCY` constants do not match), NYNET's separate
# WAN propagation, the sharded model's host overhead, the Ethernet
# parameter struct, p4's reaction threshold and cap, the SBA-200's SAR
# and DMA costs, and the green-thread stack-size and engine variables;
# the sharded simulator with its merge, its kernel seams (keyed
# scheduling, the next-event peek, the bare time-horizon run), its
# synthetic gossip workload and topology partitioning, the trace
# runner's caller-supplied-simulator form, the word-fold digest step only
# its digests and one test used, and the chaos sweep's harness column;
# the second deadlock detector: the general-digraph wait graph with its
# Tarjan pass, the MTS thread report and cycle accessor, and the offline
# classifier `ncs_analysis::check_outcome` (written qualified: the frozen
# benchmark keeps a private fn of that name).
# CI and scripts/check.sh both run this one copy.
set -euo pipefail
cd "$(dirname "$0")/.."

# Retired command lines, checked in the scripts and CI too. Each pattern is
# written so that it does not match its own text here.
cli='--bin (table[123]|fig_|xp_|report)|-p ncs-analysis[ ]--|ncs-analysis (lint|smoke|explore|all)|--repla[y]|--walk[s]|--max-schedule[s]'

if grep -rnE 'CellEventMode|transfer_train|enqueue_train|TrainTiming|TxTrain|CountTrain|schedule_count_train|SchedPolicy|GlobalFifo|new_sharded|SimChannel::bounded|SimChannel::(now|name)|peak_depth|spawn_forwarders|spans_to_csv|MtsSemaphore|MtsEvent|MtsBarrier|aal34|crc10|parse_procgroup|ProcgroupSpec|ProcgroupEntry|ProcgroupError|clear_schedule_policy|tagged_blob|pvm_ethernet|merged_workload_events|next_u32|\.shuffle\(|thread_id\(\)|frames_carried|ds3_ring|CAUSAL_STAGES|REQUEST_STAGES|RealNcs::connect\(|LinkArena|ListHead|ListIter|external_block|charge_switch|blocked_time|MtsStats|exit_waiters|sleep_gen|spawn_daemon|sleep_until|total_sent|JsonDoc|mesh_json|print_mesh|crate::json|TcpNet::(segments|fabric)|AtmApiNet::(fabric|params)|retx\.spurious|retx\.backpressure|rto\.partition_failfast|reasm\.reclaimed|RetxTimer|timer_epoch|prewrapped|init_collective|init_inner|raise_delivery_failed|signal_quiescent|fail_send\(|MtsConfig\.analysis|with_backoff|max_backoff_slots|jitter_seed|SLOT_TIME|\.occupy\(|\baccess:|\bswitch_latency:|wan_propagation|host_overhead|EthernetParams|reaction_threshold|reaction_cap|sar_per_cell|dma_setup|default_stack_bytes|NCS_GREEN_STACK_KIB|NCS_GREEN_ENGINE|ShardedSim|ShardedRunOutcome|merge_streams|schedule_keyed|KEYED_SEQ_BIT|next_event_time|run_until\(|GossipMesh|GossipConfig|ShardPlan|ShardCut|ShardNetParams|run_workload_on|sharded_harness|fnv1a_fold|WaitGraph|TarjanState|MtsThreadReport|thread_report|deadlock_cycles|ncs_analysis::check_outcome' crates src tests examples DESIGN.md README.md EXPERIMENTS.md \
    || grep -rnE -e "$cli" crates src tests examples DESIGN.md README.md EXPERIMENTS.md scripts .github .claude/skills; then
    echo "removed API or binary named above" >&2
    exit 1
fi
echo "guard: removed names stay removed"
