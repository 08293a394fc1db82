// The benchmark's four workloads (see perfbench/README.md for why each one
// exists and which layers it stresses).
#pragma once

#include <memory>

#include "common.h"

namespace perfbench {

std::unique_ptr<Workload> make_cnn_sim(const Args& a);
std::unique_ptr<Workload> make_sweep_cold(const Args& a);
std::unique_ptr<Workload> make_serve_batched(const Args& a);
std::unique_ptr<Workload> make_dist_local(const Args& a);

}  // namespace perfbench
