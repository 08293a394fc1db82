// Fig. 13 — inference time per optimisation step: LibTorch -> TensorRT ->
// +half precision -> +2:4 sparsity. Paper (A100, 3.19 MFLOP inference):
// 1.0 -> 0.34 -> 0.26 -> 0.22 us/instruction.
//
// The accuracy side of fp16 + 2:4 is exercised for real: a trained model is
// quantised/pruned and its end-to-end CPI error compared (paper reports
// "negligible accuracy loss").
#include "bench_util.h"
#include "core/simnet_trainer.h"
#include "tensor/quant.h"

using namespace mlsim;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 2000);
  bench::banner("Fig. 13: inference optimisation ladder");

  const device::GpuSpec a100 = device::GpuSpec::a100();
  const std::size_t flops = core::simnet3c2f_flops(112);

  Table t({"engine", "us/inference (model)", "paper us"});
  using device::Engine;
  t.add_row({std::string("LibTorch"),
             a100.inference_time_us(Engine::kLibTorch, flops), 1.00});
  t.add_row({std::string("TensorRT"),
             a100.inference_time_us(Engine::kTensorRT, flops), 0.34});
  t.add_row({std::string("TensorRT + fp16"),
             a100.inference_time_us(Engine::kTensorRTHalf, flops), 0.26});
  t.add_row({std::string("TensorRT + fp16 + 2:4"),
             a100.inference_time_us(Engine::kTensorRTSparse, flops), 0.22});
  bench::emit(t, "fig13_inference_opts");

  // Real numeric effect of fp16 + 2:4 on a trained model. The 2:4 recipe
  // requires sparse fine-tuning (projected training) to hold accuracy —
  // the compressed bundle is cached after the first run.
  core::SimNetBundle fp32 = bench::trained_bundle();
  core::SimNetBundle compressed = cached_artifact<core::SimNetBundle>(
      "simnet_w33_n30000_24sparse.bundle", [&] {
    std::printf("[2:4 fine-tuning (projected training, 1 epoch)...]\n");
    core::SimNetBundle b = bench::trained_bundle();
    std::vector<trace::EncodedTrace> traces;
    for (const auto& abbr : trace::train_benchmarks()) {
      traces.push_back(core::labeled_trace(abbr, 30000));
    }
    std::vector<const trace::EncodedTrace*> ptrs;
    for (const auto& tr : traces) ptrs.push_back(&tr);
    core::finetune_2to4(b, ptrs);
    tensor::quantize_model_half(b.model);
    return b;
  });

  const auto test = core::labeled_trace("xz", std::max<std::size_t>(args.instructions, 2000));
  const float loss32 = core::evaluate_loss(fp32, test, args.instructions);
  const float lossc = core::evaluate_loss(compressed, test, args.instructions);
  std::printf("accuracy cost of fp16 + 2:4 after sparse fine-tuning (real "
              "arithmetic, unseen benchmark): prediction loss %.4f -> %.4f "
              "(paper: negligible)\n",
              static_cast<double>(loss32), static_cast<double>(lossc));
  std::printf("conv1 weight sparsity after 2:4: %.1f%%\n",
              tensor::sparsity(compressed.model.conv1().weight()) * 100.0);
  return 0;
}
