// GPU device specifications and the analytic cost model.
//
// No GPU is needed: the predictors run on the host, and the device layer
// only *accounts* time with a calibrated analytic model. The model has three
// parts:
//   - host<->device transfers: latency + bytes/bandwidth (throughput-
//     oriented link, so per-byte cost falls with transfer size — the
//     property the paper's pipelined batching exploits);
//   - kernel launches: fixed overhead + bytes/device-bandwidth +
//     flops/compute-throughput;
//   - inference engines: LibTorch vs TensorRT overheads, fp16 and 2:4
//     sparsity throughput multipliers (Tensor Core model).
// Constants are calibrated against the per-step microsecond measurements the
// paper reports for DGX-A100 (Figs. 2, 11-15), so figure shapes — who wins,
// crossover batch sizes, scaling slopes — are reproduced faithfully.
#pragma once

#include <cstddef>
#include <string>

namespace mlsim::device {

/// Inference engine flavours of §IV-B.
enum class Engine {
  kLibTorch,       // baseline PyTorch C++ inference
  kTensorRT,       // fused/tuned kernels
  kTensorRTHalf,   // + fp16 Tensor Core
  kTensorRTSparse, // + 2:4 structured sparsity
};

struct GpuSpec {
  std::string name;
  double fp32_tflops = 19.5;      // peak FP32
  double fp16_tflops = 78.0;      // dense fp16 Tensor Core (usable fraction applied)
  double dev_bw_gbps = 1555.0;    // HBM bandwidth
  double h2d_lat_us = 0.40;       // per-transfer latency
  double h2d_bw_gbps = 6.0;       // effective small/medium transfer bandwidth
  double launch_us = 0.28;        // kernel launch + driver overhead
  double compute_eff = 0.10;      // achieved fraction of peak for tiny kernels
  double inference_eff = 1.00;    // fused-GEMM engines run near peak
  double libtorch_overhead_us = 0.84;  // per-inference framework overhead
  double trt_overhead_us = 0.17;       // fused-engine overhead
  double sparse_speedup = 1.8;    // 2:4 Tensor Core matmul speedup
  std::size_t memory_bytes = 40ull << 30;

  static GpuSpec a100();
  static GpuSpec v100();

  /// Host-to-device transfer time (microseconds).
  double h2d_time_us(std::size_t bytes) const;

  /// Generic kernel: data movement + compute, overlapped (max), plus launch.
  double kernel_time_us(std::size_t bytes_moved, std::size_t flops) const;

  /// Inference time for a batch with the given per-batch FLOP count.
  /// `sparse_fraction` is the fraction of FLOPs eligible for 2:4 speedup.
  double inference_time_us(Engine engine, std::size_t flops,
                           double sparse_fraction = 0.85) const;
};

/// Inter-node gather cost for the final Clock reduction across P partitions
/// (the only communication in the parallel scheme, §V-A).
double allreduce_time_us(std::size_t num_gpus, std::size_t bytes_per_gpu);

}  // namespace mlsim::device
