// Canonical metric names for the built-in instrumentation.
//
// Naming convention (see docs/OBSERVABILITY.md): `<subsystem>.<what>[_unit]`.
// Counters count events or accumulated quantities, gauges hold last-written
// values, histograms record distributions (durations in nanoseconds unless
// the name says otherwise). Every name listed in `kBuiltinMetrics` is
// pre-registered by `default_registry()` so a metrics dump always exposes
// the full schema, including subsystems that did not run.
#pragma once

#include <cstddef>

namespace mlsim::obs::names {

// -- gpu_sim (single-device engine, src/core/gpu_sim.cpp) --------------------
inline constexpr const char* kGpuSimInstructions = "gpu_sim.instructions";
inline constexpr const char* kGpuSimBatches = "gpu_sim.batches";
// Simulated-time (cost model) phase totals, integer nanoseconds.
inline constexpr const char* kGpuSimInputConstructNs = "gpu_sim.input_construct_ns";
inline constexpr const char* kGpuSimInferenceNs = "gpu_sim.inference_ns";
inline constexpr const char* kGpuSimCopyNs = "gpu_sim.copy_ns";
inline constexpr const char* kGpuSimPipelineStallNs = "gpu_sim.pipeline_stall_ns";
inline constexpr const char* kGpuSimContextOccupancy = "gpu_sim.context_occupancy";

// -- parallel_sim (sub-trace engine, src/core/parallel_sim.cpp) --------------
inline constexpr const char* kParSimPartitionsDone = "parallel_sim.partitions_done";
inline constexpr const char* kParSimWarmupInstructions =
    "parallel_sim.warmup_instructions";
inline constexpr const char* kParSimCorrectedInstructions =
    "parallel_sim.corrected_instructions";
inline constexpr const char* kParSimInstructions = "parallel_sim.instructions";
inline constexpr const char* kParSimBatchOccupancy =
    "parallel_sim.gpu_batch_occupancy";
inline constexpr const char* kParSimPartitionNs = "parallel_sim.partition_ns";
// Fault tolerance (docs/RESILIENCE.md).
inline constexpr const char* kParSimDeviceKills = "parallel_sim.device_kills";
inline constexpr const char* kParSimRetries = "parallel_sim.partition_retries";
inline constexpr const char* kParSimAnomalies =
    "parallel_sim.anomalous_predictions";
inline constexpr const char* kParSimDegradedPartitions =
    "parallel_sim.degraded_partitions";
inline constexpr const char* kParSimLostDevices = "parallel_sim.lost_devices";
inline constexpr const char* kParSimCheckpointWrites =
    "parallel_sim.checkpoint_writes";
inline constexpr const char* kParSimAttemptsPerPartition =
    "parallel_sim.attempts_per_partition";

// -- streaming (src/core/streaming.cpp) --------------------------------------
inline constexpr const char* kStreamChunks = "streaming.chunks";
inline constexpr const char* kStreamInstructions = "streaming.instructions";
inline constexpr const char* kStreamRowsResident = "streaming.rows_resident";
inline constexpr const char* kStreamFillNs = "streaming.chunk_fill_ns";
inline constexpr const char* kStreamPredictNs = "streaming.chunk_predict_ns";

// -- trainer (src/core/simnet_trainer.cpp) -----------------------------------
inline constexpr const char* kTrainEpochs = "trainer.epochs";
inline constexpr const char* kTrainSteps = "trainer.steps";
inline constexpr const char* kTrainLastLoss = "trainer.last_epoch_loss";
inline constexpr const char* kTrainStepNs = "trainer.step_ns";
inline constexpr const char* kTrainEpochNs = "trainer.epoch_ns";

// -- service (src/service/service.cpp; docs/SERVICE.md) ----------------------
inline constexpr const char* kSvcAccepted = "service.requests_accepted";
inline constexpr const char* kSvcRejectedQueueFull =
    "service.rejected_queue_full";
inline constexpr const char* kSvcRejectedOverload = "service.rejected_overload";
inline constexpr const char* kSvcRejectedShedding = "service.rejected_shedding";
inline constexpr const char* kSvcCompleted = "service.requests_completed";
inline constexpr const char* kSvcFailed = "service.requests_failed";
inline constexpr const char* kSvcDeadlineExceeded = "service.deadline_exceeded";
inline constexpr const char* kSvcCancelled = "service.requests_cancelled";
inline constexpr const char* kSvcDegraded = "service.degraded_requests";
inline constexpr const char* kSvcHangsDetected = "service.hangs_detected";
inline constexpr const char* kSvcHangRequeues = "service.hang_requeues";
inline constexpr const char* kSvcQueueDepth = "service.queue_depth";
inline constexpr const char* kSvcInflight = "service.inflight";
// 0 = closed, 1 = open, 2 = half-open (see service/circuit_breaker.h).
inline constexpr const char* kSvcBreakerState = "service.breaker_state";
inline constexpr const char* kSvcBreakerTrips = "service.breaker_trips";
inline constexpr const char* kSvcBreakerProbes = "service.breaker_probes";
inline constexpr const char* kSvcRequestNs = "service.request_ns";
// Per-tenant admission quota rejections (docs/SERVICE.md).
inline constexpr const char* kSvcRejectedQuota = "service.rejected_quota";

// -- batcher (continuous-batching scheduler, src/service/batcher.cpp;
//    docs/BATCHING.md) --------------------------------------------------------
inline constexpr const char* kBatchItems = "batcher.items";
inline constexpr const char* kBatchDroppedCancelled = "batcher.dropped_cancelled";
inline constexpr const char* kBatchQueueDepth = "batcher.queue_depth";
inline constexpr const char* kBatchSize = "batcher.batch_size";
// Flush triggers: the batch hit max_batch / max_wait_us expired / drain at
// shutdown / every open channel had an item queued.
inline constexpr const char* kBatchFlushSize = "batcher.flush_size";
inline constexpr const char* kBatchFlushDeadline = "batcher.flush_deadline";
inline constexpr const char* kBatchFlushShutdown = "batcher.flush_shutdown";
inline constexpr const char* kBatchFlushAllWaiting = "batcher.flush_all_waiting";

// -- net (RPC framing over TCP, src/net/; docs/DISTRIBUTED.md) ---------------
inline constexpr const char* kNetBytesSent = "net.bytes_sent";
inline constexpr const char* kNetBytesReceived = "net.bytes_received";
inline constexpr const char* kNetFramesSent = "net.frames_sent";
inline constexpr const char* kNetFramesReceived = "net.frames_received";
inline constexpr const char* kNetFrameRecvNs = "net.frame_recv_ns";

// -- dist (coordinator/worker cluster, src/dist/; docs/DISTRIBUTED.md) -------
inline constexpr const char* kDistWorkersJoined = "dist.workers_joined";
inline constexpr const char* kDistShardsDispatched = "dist.shards_dispatched";
inline constexpr const char* kDistShardsCompleted = "dist.shards_completed";
inline constexpr const char* kDistReassignments = "dist.reassignments";
inline constexpr const char* kDistDuplicatesDropped = "dist.duplicates_dropped";
inline constexpr const char* kDistHeartbeats = "dist.heartbeats";
inline constexpr const char* kDistWorkersLost = "dist.workers_lost";
// Assign-send to Result-receipt wall time of each completed shard attempt.
inline constexpr const char* kDistShardLatencyUs = "dist.shard_latency_us";
// Completed shards per worker connection, recorded when a run finishes.
inline constexpr const char* kDistShardsPerWorker = "dist.shards_per_worker";
// Planned departures: workers that sent Goodbye instead of going silent.
inline constexpr const char* kDistWorkersDeparted = "dist.workers_departed";
// v4 Rejoin handshakes accepted: a worker re-attached to this (possibly
// restarted) coordinator with a matching session token.
inline constexpr const char* kDistWorkersRejoined = "dist.workers_rejoined";

// -- crash-safe coordination (run journal + graceful drain, src/dist/;
//    docs/RESILIENCE.md "Crash-safe coordination") ---------------------------
// Records appended+fsynced to the run journal, and their total envelope
// bytes.
inline constexpr const char* kDistJournalRecords = "dist.journal.records";
inline constexpr const char* kDistJournalBytes = "dist.journal.bytes";
// Completed shard outcomes rebuilt by `--resume` journal replay.
inline constexpr const char* kDistJournalReplayedResults =
    "dist.journal.replayed_results";
// Corrupt/truncated tail bytes dropped by a lenient replay.
inline constexpr const char* kDistJournalDroppedBytes =
    "dist.journal.dropped_bytes";
// SIGTERM/SIGINT drains begun, and shards still unfinished when the drain
// deadline closed the run.
inline constexpr const char* kDistDrainRequests = "dist.drain.requests";
inline constexpr const char* kDistDrainShardsAbandoned =
    "dist.drain.shards_abandoned";

// -- elastic cluster (work stealing, speculative straggler dispatch, and
//    the shard-result cache, src/dist/; docs/DISTRIBUTED.md) -----------------
// Assigned shards rebalanced away from a slow worker onto an idle one.
inline constexpr const char* kClusterStealShards = "cluster.steal.shards";
// Straggling shards duplicated onto an idle worker, and the duplicates
// whose Result arrived before the original owner's.
inline constexpr const char* kClusterSpeculativeDispatched =
    "cluster.speculative.dispatched";
inline constexpr const char* kClusterSpeculativeWins =
    "cluster.speculative.wins";
// Content-addressed shard-result cache keyed by (run fingerprint, shard
// descriptor): hit/miss/LRU-eviction counts and current occupancy.
inline constexpr const char* kClusterCacheHits = "cluster.cache.hits";
inline constexpr const char* kClusterCacheMisses = "cluster.cache.misses";
inline constexpr const char* kClusterCacheEvictions =
    "cluster.cache.evictions";
inline constexpr const char* kClusterCacheEntries = "cluster.cache.entries";

// -- cluster rollups (coordinator-side aggregation of worker heartbeat
//    deltas, src/dist/coordinator.cpp; docs/OBSERVABILITY.md) ----------------
inline constexpr const char* kClusterWorkerInstructions =
    "cluster.worker.instructions";
inline constexpr const char* kClusterWorkerPartitionsDone =
    "cluster.worker.partitions_done";
inline constexpr const char* kClusterWorkerRetries =
    "cluster.worker.partition_retries";
inline constexpr const char* kClusterWorkerAnomalies =
    "cluster.worker.anomalous_predictions";
inline constexpr const char* kClusterWorkerDegraded =
    "cluster.worker.degraded_partitions";
// Mean fraction of wall time live workers spent inside run_partition since
// their previous heartbeat (docs/DISTRIBUTED.md); per-worker ratios are in
// the coordinator's cluster_json.
inline constexpr const char* kClusterWorkerBusyRatio =
    "cluster.worker.busy_ratio";

// -- sweep (design-space-exploration engine, src/sweep/; docs/SWEEPS.md) ----
// Sweeps started (one per lattice), and their per-point progress counters.
inline constexpr const char* kSweepRequests = "sweep.requests";
inline constexpr const char* kSweepPointsTotal = "sweep.points_total";
inline constexpr const char* kSweepPointsCompleted = "sweep.points_completed";
// Wall time per completed sweep point (trace acquisition + simulation).
inline constexpr const char* kSweepPointNs = "sweep.point_ns";
// Sweeps currently executing, and the Pareto-frontier size of the most
// recently completed sweep.
inline constexpr const char* kSweepActive = "sweep.active";
inline constexpr const char* kSweepParetoSize = "sweep.pareto_size";

// -- telemetry (HTTP endpoint, src/obs/telemetry_http.cpp) -------------------
inline constexpr const char* kTelemetryHttpRequests = "telemetry.http_requests";
inline constexpr const char* kTelemetryHttpErrors = "telemetry.http_errors";

enum class MetricKind { kCounter, kGauge, kHistogram };

struct BuiltinMetric {
  const char* name;
  MetricKind kind;
};

/// Every built-in metric, pre-registered by `obs::default_registry()`.
inline constexpr BuiltinMetric kBuiltinMetrics[] = {
    {kGpuSimInstructions, MetricKind::kCounter},
    {kGpuSimBatches, MetricKind::kCounter},
    {kGpuSimInputConstructNs, MetricKind::kCounter},
    {kGpuSimInferenceNs, MetricKind::kCounter},
    {kGpuSimCopyNs, MetricKind::kCounter},
    {kGpuSimPipelineStallNs, MetricKind::kCounter},
    {kGpuSimContextOccupancy, MetricKind::kGauge},
    {kParSimPartitionsDone, MetricKind::kCounter},
    {kParSimWarmupInstructions, MetricKind::kCounter},
    {kParSimCorrectedInstructions, MetricKind::kCounter},
    {kParSimInstructions, MetricKind::kCounter},
    {kParSimBatchOccupancy, MetricKind::kGauge},
    {kParSimPartitionNs, MetricKind::kHistogram},
    {kParSimDeviceKills, MetricKind::kCounter},
    {kParSimRetries, MetricKind::kCounter},
    {kParSimAnomalies, MetricKind::kCounter},
    {kParSimDegradedPartitions, MetricKind::kCounter},
    {kParSimLostDevices, MetricKind::kGauge},
    {kParSimCheckpointWrites, MetricKind::kCounter},
    {kParSimAttemptsPerPartition, MetricKind::kHistogram},
    {kStreamChunks, MetricKind::kCounter},
    {kStreamInstructions, MetricKind::kCounter},
    {kStreamRowsResident, MetricKind::kGauge},
    {kStreamFillNs, MetricKind::kHistogram},
    {kStreamPredictNs, MetricKind::kHistogram},
    {kTrainEpochs, MetricKind::kCounter},
    {kTrainSteps, MetricKind::kCounter},
    {kTrainLastLoss, MetricKind::kGauge},
    {kTrainStepNs, MetricKind::kHistogram},
    {kTrainEpochNs, MetricKind::kHistogram},
    {kSvcAccepted, MetricKind::kCounter},
    {kSvcRejectedQueueFull, MetricKind::kCounter},
    {kSvcRejectedOverload, MetricKind::kCounter},
    {kSvcRejectedShedding, MetricKind::kCounter},
    {kSvcCompleted, MetricKind::kCounter},
    {kSvcFailed, MetricKind::kCounter},
    {kSvcDeadlineExceeded, MetricKind::kCounter},
    {kSvcCancelled, MetricKind::kCounter},
    {kSvcDegraded, MetricKind::kCounter},
    {kSvcHangsDetected, MetricKind::kCounter},
    {kSvcHangRequeues, MetricKind::kCounter},
    {kSvcQueueDepth, MetricKind::kGauge},
    {kSvcInflight, MetricKind::kGauge},
    {kSvcBreakerState, MetricKind::kGauge},
    {kSvcBreakerTrips, MetricKind::kCounter},
    {kSvcBreakerProbes, MetricKind::kCounter},
    {kSvcRequestNs, MetricKind::kHistogram},
    {kSvcRejectedQuota, MetricKind::kCounter},
    {kBatchItems, MetricKind::kCounter},
    {kBatchDroppedCancelled, MetricKind::kCounter},
    {kBatchQueueDepth, MetricKind::kGauge},
    {kBatchSize, MetricKind::kHistogram},
    {kBatchFlushSize, MetricKind::kCounter},
    {kBatchFlushDeadline, MetricKind::kCounter},
    {kBatchFlushShutdown, MetricKind::kCounter},
    {kBatchFlushAllWaiting, MetricKind::kCounter},
    {kNetBytesSent, MetricKind::kCounter},
    {kNetBytesReceived, MetricKind::kCounter},
    {kNetFramesSent, MetricKind::kCounter},
    {kNetFramesReceived, MetricKind::kCounter},
    {kNetFrameRecvNs, MetricKind::kHistogram},
    {kDistWorkersJoined, MetricKind::kCounter},
    {kDistShardsDispatched, MetricKind::kCounter},
    {kDistShardsCompleted, MetricKind::kCounter},
    {kDistReassignments, MetricKind::kCounter},
    {kDistDuplicatesDropped, MetricKind::kCounter},
    {kDistHeartbeats, MetricKind::kCounter},
    {kDistWorkersLost, MetricKind::kCounter},
    {kDistShardLatencyUs, MetricKind::kHistogram},
    {kDistShardsPerWorker, MetricKind::kHistogram},
    {kDistWorkersDeparted, MetricKind::kCounter},
    {kDistWorkersRejoined, MetricKind::kCounter},
    {kDistJournalRecords, MetricKind::kCounter},
    {kDistJournalBytes, MetricKind::kCounter},
    {kDistJournalReplayedResults, MetricKind::kCounter},
    {kDistJournalDroppedBytes, MetricKind::kCounter},
    {kDistDrainRequests, MetricKind::kCounter},
    {kDistDrainShardsAbandoned, MetricKind::kCounter},
    {kClusterStealShards, MetricKind::kCounter},
    {kClusterSpeculativeDispatched, MetricKind::kCounter},
    {kClusterSpeculativeWins, MetricKind::kCounter},
    {kClusterCacheHits, MetricKind::kCounter},
    {kClusterCacheMisses, MetricKind::kCounter},
    {kClusterCacheEvictions, MetricKind::kCounter},
    {kClusterCacheEntries, MetricKind::kGauge},
    {kClusterWorkerInstructions, MetricKind::kCounter},
    {kClusterWorkerPartitionsDone, MetricKind::kCounter},
    {kClusterWorkerRetries, MetricKind::kCounter},
    {kClusterWorkerAnomalies, MetricKind::kCounter},
    {kClusterWorkerDegraded, MetricKind::kCounter},
    {kClusterWorkerBusyRatio, MetricKind::kGauge},
    {kSweepRequests, MetricKind::kCounter},
    {kSweepPointsTotal, MetricKind::kCounter},
    {kSweepPointsCompleted, MetricKind::kCounter},
    {kSweepPointNs, MetricKind::kHistogram},
    {kSweepActive, MetricKind::kGauge},
    {kSweepParetoSize, MetricKind::kGauge},
    {kTelemetryHttpRequests, MetricKind::kCounter},
    {kTelemetryHttpErrors, MetricKind::kCounter},
};

inline constexpr std::size_t kNumBuiltinMetrics =
    sizeof(kBuiltinMetrics) / sizeof(kBuiltinMetrics[0]);

}  // namespace mlsim::obs::names
