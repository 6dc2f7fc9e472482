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
# benchmark keeps a private fn of that name); the ATM circuit layer no
# runtime used (the VCI table, the circuit handle's traffic class, its
# error type and first user VCI, the circuit API itself — written as a
# whole word, so the `AtmApiNet` transport and its `AtmApiParams` still
# pass — and its example) and the transport's write-only tracer counters
# (message and segment counts, written as quoted literals); the
# application run-form wrappers that repeated the staged drivers' run,
# check and timing (each written as a whole word, so the staged
# `setup_*_with` forms, `fft_ncs_setup_with` and the benchmark's `fft_p4`
# still pass) with their three per-application result structs, p4's
# write-only damaged-delivery tracer count, the tracer's counter iterator
# only its own test called, and the NCS process's retransmission accessor
# that repeated an `ErrorStats` field (the field itself still passes);
# and the second JPEG entropy stage: the canonical Huffman coder's module
# path and error type, its codec variant and config builder, the codec's
# coder-taking compress form (a whole word, so the benchmark's
# `reference_pipeline_with` still passes, as does the RLE stage's
# `entropy::encode_block`) and the X5 ablation's experiment name and
# command line; the §3.1 group operations only their own tests called
# (the binomial-tree broadcast, the reduction and its operator enum, the
# all-to-all as a whole word, the reserved tag base, and the module path
# written either way) with p4's procgroup broadcast (its `(ctx` call form,
# so the filters' `broadcast`, `NcsCtx::bcast` and the barriers of
# `NcsCtx`, `MpiFilter`, `RealNcs` and the `TermBarrier` still pass) and
# its barrier message types; the tracer's span ids with the open/close
# pair that alone set a parent link; and what the `pub fn` census found
# without a caller: the links' busy-time integral, utilization and chunk
# count, the `clear`s, one-timeline reader, thread-side channel send, sink
# accessors and summary minimum of the metrics layer, the clock's float,
# nanosecond, saturating, checked and `max` helpers, the engine query and
# context wake, the real-TCP rank and try-receive, the NCS process's MTS
# and thread-name accessors, the NCS context's any-source receive, probe,
# yield, timed receive and `NCS_test`, a message's causal-id getter, and
# p4's process count (qualified where a live item shares the name:
# `Sim::thread_name`, `SimChannel::try_recv`, std's `recv_timeout`); and
# the name-matching `dead-surface` lint rule with its helpers, its
# cross-file entry point and the census's fn-cutting record and test
# (rustc and the `pub` census decide dead code now), with what rustc
# found once `pub` was narrowed to its users: the host's unread process
# switch cost, the link's write-only byte count and the decision log's
# length pair; the timer wheel's tick-shift constructor, overflow
# migration, bucket load and bitmap scan (the event queue is one binary
# heap) and `xp scale`'s boxed-heap micro baseline; and the second
# representation of a closed causal timeline (a kept one stays in the
# buffer it was marked in): the decoded timeline copy, the arena's
# chunk-size constructor and its byte count (each a whole word).
# CI and scripts/check.sh both run this one copy.
set -euo pipefail
cd "$(dirname "$0")/.."

# Retired command lines, checked in the scripts and CI too. Each pattern is
# written so that it does not match its own text here.
cli='--bin (table[123]|fig_|xp_|report)|--example atm_ap[i]|-p ncs-analysis[ ]--|ncs-analysis (lint|smoke|explore|all)|--repla[y]|--walk[s]|--max-schedule[s]|-- entrop[y]\b'

if grep -rnE 'CellEventMode|transfer_train|enqueue_train|TrainTiming|TxTrain|CountTrain|schedule_count_train|SchedPolicy|GlobalFifo|new_sharded|SimChannel::bounded|SimChannel::(now|name)|peak_depth|spawn_forwarders|spans_to_csv|MtsSemaphore|MtsEvent|MtsBarrier|aal34|crc10|parse_procgroup|ProcgroupSpec|ProcgroupEntry|ProcgroupError|clear_schedule_policy|tagged_blob|pvm_ethernet|merged_workload_events|next_u32|\.shuffle\(|thread_id\(\)|frames_carried|ds3_ring|CAUSAL_STAGES|REQUEST_STAGES|RealNcs::connect\(|LinkArena|ListHead|ListIter|external_block|charge_switch|blocked_time|MtsStats|exit_waiters|sleep_gen|spawn_daemon|sleep_until|total_sent|JsonDoc|mesh_json|print_mesh|crate::json|TcpNet::(segments|fabric)|AtmApiNet::(fabric|params)|retx\.spurious|retx\.backpressure|rto\.partition_failfast|reasm\.reclaimed|RetxTimer|timer_epoch|prewrapped|init_collective|init_inner|raise_delivery_failed|signal_quiescent|fail_send\(|MtsConfig\.analysis|with_backoff|max_backoff_slots|jitter_seed|SLOT_TIME|\.occupy\(|\baccess:|\bswitch_latency:|wan_propagation|host_overhead|EthernetParams|reaction_threshold|reaction_cap|sar_per_cell|dma_setup|default_stack_bytes|NCS_GREEN_STACK_KIB|NCS_GREEN_ENGINE|ShardedSim|ShardedRunOutcome|merge_streams|schedule_keyed|KEYED_SEQ_BIT|next_event_time|run_until\(|GossipMesh|GossipConfig|ShardPlan|ShardCut|ShardNetParams|run_workload_on|sharded_harness|fnv1a_fold|WaitGraph|TarjanState|MtsThreadReport|thread_report|deadlock_cycles|ncs_analysis::check_outcome|VcTable|TrafficClass|AtmApiError|FIRST_USER_VCI|\bAtmApi\b|"(tcp\.msgs|tcp\.segments|atm\.msgs)"|\bmatmul_p4\b|\bmatmul_ncs\b|matmul_ncs_configured|\bmatmul_ncs_async\b|\bsetup_matmul_ncs\b|\bjpeg_p4\b|\bjpeg_ncs\b|\bsetup_jpeg_ncs\b|\bfft_ncs\b|fft_ncs_with|MatmulRun|JpegRun|FftRun|"p4\.damaged_dropped"|tr\.counters\(\)|\.retransmits\(\)|NcsProc::retransmits|huffman::|HuffError|EntropyKind::Huffman|with_huffman|\bcompress_with\b|xp_entropy|tree_bcast|reduce_f64|\ball_to_all\b|ReduceOp|GROUP_TAG_BASE|ncs_core::group|crate::group|TYPE_BARRIER_(ARRIVE|GO)|broadcast\(ctx|SpanId|open_span|close_span|busy_integral_ps|from_secs_f64|\brecv_any\b|UserThread|(Tracer|MetricsRegistry)::clear|MetricsRegistry::timeline\b|Dur::(as_nanos|saturating_sub|checked_add)|SimTime::max|Sim::engine\b|\bCtx::wake\b|RealNcs::(id\b|try_recv)|NcsProc::(mts\b|thread_name)|P4Proc::num_procs|InvariantSink::(violations|len|is_empty)|AnalysisConfig::sink|DurSummary::min|SimChannel::send|(EthernetFabric|LinkState)::utilization|NcsCtx::(probe|yield_now|recv_timeout|test\b)|ncs\.(recv_timeout|test)\(|NCS_test|chunks_carried|\.causal\(\)|dead_surface\(|\bitem_name\(|\blint_sources\b|\bPubFn\b|every_pub_fn_has_a_caller|process_switch|bytes_carried|DecisionLog::(len|is_empty)|with_tick_shift|migrate_window|load_bucket|next_occupied|micro_heap_ns|\bTimelineBuf\b|\bwith_chunk_instants\b|\barena_bytes\b' crates src tests examples DESIGN.md README.md EXPERIMENTS.md \
    || grep -rnE -e "$cli" crates src tests examples DESIGN.md README.md EXPERIMENTS.md scripts .github .claude/skills; then
    echo "removed API or binary named above" >&2
    exit 1
fi
echo "guard: removed names stay removed"
