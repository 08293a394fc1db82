// Tests for the simulated device layer: transfer/kernel/inference cost
// models, stream semantics and events.
#include <gtest/gtest.h>

#include "common/check.h"
#include "core/cost_model.h"
#include "device/device.h"
#include "device/gpu_spec.h"

namespace mlsim::device {
namespace {

// --------------------------------------------------------------- gpu spec --

TEST(GpuSpec, TransferTimeSublinear) {
  const GpuSpec a100 = GpuSpec::a100();
  const double one = a100.h2d_time_us(200);
  const double ten = a100.h2d_time_us(2000);
  EXPECT_LT(ten, 10 * one);  // latency amortises: the pipelining lever
  EXPECT_GT(ten, one);
}

TEST(GpuSpec, TransferCalibration) {
  // Calibration anchor (paper Fig. 11): one full 112-row window ~ 4 µs.
  const GpuSpec a100 = GpuSpec::a100();
  const double full_window = a100.h2d_time_us(112 * 50 * 4);
  EXPECT_GT(full_window, 2.0);
  EXPECT_LT(full_window, 6.0);
  // A single instruction row is latency-bound (~0.45 µs, Fig. 15).
  const double row = a100.h2d_time_us(200);
  EXPECT_GT(row, 0.3);
  EXPECT_LT(row, 0.7);
}

TEST(GpuSpec, InferenceEngineOrdering) {
  // Paper Fig. 13: LibTorch > TensorRT > +half > +2:4.
  const GpuSpec a100 = GpuSpec::a100();
  const std::size_t flops = 3'190'000;  // paper's per-inference workload
  const double libtorch = a100.inference_time_us(Engine::kLibTorch, flops);
  const double trt = a100.inference_time_us(Engine::kTensorRT, flops);
  const double half = a100.inference_time_us(Engine::kTensorRTHalf, flops);
  const double sparse = a100.inference_time_us(Engine::kTensorRTSparse, flops);
  EXPECT_GT(libtorch, trt);
  EXPECT_GT(trt, half);
  EXPECT_GT(half, sparse);
  // Roughly the paper's magnitudes (1.0 / 0.34 / 0.26 / 0.22 µs).
  EXPECT_NEAR(libtorch, 1.0, 0.5);
  EXPECT_NEAR(trt, 0.34, 0.2);
  EXPECT_NEAR(sparse, 0.22, 0.12);
}

TEST(GpuSpec, V100SlowerNoSparse) {
  const GpuSpec v100 = GpuSpec::v100();
  const GpuSpec a100 = GpuSpec::a100();
  const std::size_t flops = 3'190'000;
  EXPECT_GT(v100.inference_time_us(Engine::kTensorRT, flops),
            a100.inference_time_us(Engine::kTensorRT, flops));
  // No sparse Tensor Cores on V100: 2:4 gives no speedup over half.
  EXPECT_DOUBLE_EQ(v100.inference_time_us(Engine::kTensorRTSparse, flops),
                   v100.inference_time_us(Engine::kTensorRTHalf, flops));
}

TEST(GpuSpec, BatchedInferenceAmortizesOverhead) {
  const GpuSpec a100 = GpuSpec::a100();
  const std::size_t flops = 500'000;
  const double single = a100.inference_time_us(Engine::kTensorRT, flops);
  const double batch64 = a100.inference_time_us(Engine::kTensorRT, flops * 64);
  EXPECT_LT(batch64, 64 * single);
}

TEST(AllReduce, GrowsSlowlyWithGpus) {
  EXPECT_EQ(allreduce_time_us(1, 1024), 0.0);
  const double g2 = allreduce_time_us(2, 1024);
  const double g256 = allreduce_time_us(256, 1024);
  EXPECT_GT(g2, 0.0);
  EXPECT_LT(g256, g2 * 64);  // logarithmic latency term
}

// ----------------------------------------------------------------- device --

TEST(Device, CopyAdvancesStreamByModeledTransferTime) {
  Device dev;
  const double t = dev.copy_h2d(3 * sizeof(int), 0);
  EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(t, dev.spec().h2d_time_us(3 * sizeof(int)));
  EXPECT_DOUBLE_EQ(dev.record(0), t);
}

TEST(Device, LaunchAdvancesStreamByModeledKernelTime) {
  Device dev;
  const double t = dev.launch(0, 64, 0);
  EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(t, dev.spec().kernel_time_us(64, 0));
  EXPECT_DOUBLE_EQ(dev.record(0), t);
}

TEST(Device, StreamsAdvanceIndependently) {
  Device dev;
  const StreamId s1 = dev.create_stream();
  dev.advance(0, 10.0);
  dev.advance(s1, 3.0);
  EXPECT_DOUBLE_EQ(dev.record(0), 10.0);
  EXPECT_GT(dev.record(s1), 2.9);
  EXPECT_DOUBLE_EQ(dev.synchronize(), 10.0);
}

TEST(Device, WaitImplementsEvents) {
  Device dev;
  const StreamId s1 = dev.create_stream();
  dev.advance(0, 8.0);
  const double ev = dev.record(0);
  dev.wait(s1, ev);
  EXPECT_GE(dev.record(s1), 8.0);
  // Waiting on an earlier event is a no-op.
  dev.wait(s1, 1.0);
  EXPECT_GE(dev.record(s1), 8.0);
}

TEST(Device, ResetTimeClearsCursors) {
  Device dev;
  dev.advance(0, 5.0);
  dev.reset_time();
  EXPECT_DOUBLE_EQ(dev.synchronize(), 0.0);
}

TEST(Device, InvalidStreamRejected) {
  Device dev;
  EXPECT_THROW(dev.advance(7, 1.0), mlsim::CheckError);
}

TEST(Device, CopyComputeOverlapShortensTotal) {
  // Double buffering: with two streams, total < serial sum.
  Device serial;
  serial.copy_h2d(100000, 0);
  serial.advance(0, 5.0);
  const double serial_total = serial.synchronize();

  Device pipelined;
  const StreamId copy = pipelined.create_stream();
  pipelined.copy_h2d(100000, copy);
  pipelined.advance(0, 5.0);  // compute overlaps the copy
  const double pipe_total = pipelined.synchronize();
  EXPECT_LT(pipe_total, serial_total);
}

// ------------------------------------------------------------- cost model --

TEST(CostModel, StepCalibrationShapes) {
  mlsim::core::CostModel cm;
  const std::size_t rows = 112;
  // Fig. 11: CPU construction ~1.84 µs vs GPU construction ~0.33 µs.
  EXPECT_NEAR(cm.cpu_construct_us(rows), 1.84, 0.6);
  EXPECT_NEAR(cm.gpu_construct_us(rows), 0.33, 0.15);
  // Fig. 12: sliding window cheaper than the gather kernel at N = 10.
  EXPECT_LT(cm.swiq_construct_us(10), cm.gpu_construct_us(rows));
  // Custom conv construction cheapest (~0.1 µs at N=10, Fig. 16 narrative).
  EXPECT_LT(cm.custom_conv_construct_us(10), cm.swiq_construct_us(10));
}

TEST(CostModel, SlidingWindowMonotoneInN) {
  mlsim::core::CostModel cm;
  double prev = 1e9;
  for (std::size_t n = 1; n <= 20; ++n) {
    const double t = cm.swiq_construct_us(n);
    EXPECT_LE(t, prev);
    prev = t;
  }
}

TEST(CostModel, CustomConvSkipsPaddingFlops) {
  mlsim::core::CostModel cm;
  const std::size_t flops = 3'000'000;
  const double full = cm.inference_us(Engine::kTensorRT, flops, 1, true, 1.0);
  const double third = cm.inference_us(Engine::kTensorRT, flops, 1, true, 0.32);
  EXPECT_LT(third, full);
  const double dense = cm.inference_us(Engine::kTensorRT, flops, 1, false, 0.32);
  EXPECT_LT(third, dense);
}

TEST(CostModel, BatchedRowCopyAmortizes) {
  mlsim::core::CostModel cm;
  EXPECT_LT(cm.h2d_batched_row_us(10), cm.h2d_batched_row_us(1));
  EXPECT_LT(cm.h2d_batched_row_us(1), cm.h2d_full_window_us(112));
}

}  // namespace
}  // namespace mlsim::device
