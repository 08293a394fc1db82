#include "device/gpu_spec.h"

#include <algorithm>
#include <cmath>

namespace mlsim::device {

GpuSpec GpuSpec::a100() {
  GpuSpec s;
  s.name = "A100-40GB";
  return s;  // defaults are the calibrated A100 numbers
}

GpuSpec GpuSpec::v100() {
  GpuSpec s;
  s.name = "V100-16GB";
  s.fp32_tflops = 15.7;
  s.fp16_tflops = 62.0;  // dense-equivalent Tensor Core model
  s.dev_bw_gbps = 900.0;
  s.h2d_lat_us = 0.55;
  s.h2d_bw_gbps = 8.0;
  s.launch_us = 0.33;
  s.compute_eff = 0.09;
  s.inference_eff = 0.90;
  s.libtorch_overhead_us = 1.00;
  s.trt_overhead_us = 0.21;
  s.sparse_speedup = 1.0;  // no sparse Tensor Cores pre-Ampere
  s.memory_bytes = 16ull << 30;
  return s;
}

double GpuSpec::h2d_time_us(std::size_t bytes) const {
  return h2d_lat_us + static_cast<double>(bytes) / (h2d_bw_gbps * 1e3);
}

double GpuSpec::kernel_time_us(std::size_t bytes_moved,
                               std::size_t flops) const {
  const double mem_us = static_cast<double>(bytes_moved) / (dev_bw_gbps * 1e3);
  const double tflops = fp32_tflops * compute_eff;
  const double compute_us = static_cast<double>(flops) / (tflops * 1e6);
  return launch_us + std::max(mem_us, compute_us);
}

double GpuSpec::inference_time_us(Engine engine, std::size_t flops,
                                  double sparse_fraction) const {
  double overhead = trt_overhead_us;
  double tflops = fp32_tflops;
  double fl = static_cast<double>(flops);
  switch (engine) {
    case Engine::kLibTorch:
      overhead = libtorch_overhead_us;
      break;
    case Engine::kTensorRT:
      break;
    case Engine::kTensorRTHalf:
      tflops = fp16_tflops * 0.35;  // achievable fp16 fraction for small GEMMs
      break;
    case Engine::kTensorRTSparse:
      tflops = fp16_tflops * 0.35;
      fl = fl * (1.0 - sparse_fraction) + fl * sparse_fraction / sparse_speedup;
      break;
  }
  const double compute_us = fl / (tflops * inference_eff * 1e6);
  return overhead + compute_us;
}

double allreduce_time_us(std::size_t num_gpus, std::size_t bytes_per_gpu) {
  if (num_gpus <= 1) return 0.0;
  // Latency-dominated small gather: alpha * log2(P) + data term.
  const double alpha_us = 6.0;
  const double beta_us_per_kb = 0.08;
  return alpha_us * std::log2(static_cast<double>(num_gpus)) +
         beta_us_per_kb * static_cast<double>(bytes_per_gpu) / 1024.0 *
             static_cast<double>(num_gpus);
}

}  // namespace mlsim::device
