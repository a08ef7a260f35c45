// Benchmark workloads: the generated scene, farm configuration and client
// scripts for one (workload, seed). The seed only perturbs inputs inside a
// narrow band (the cradle release angle, the tenants' shot ranges and
// submit order), so runs with different seeds do comparable work. The
// program under test only ever sees the generated scene and scripts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/par/render_farm.h"

namespace nowbench {

struct WorkloadSpec {
  const char* name;
  /// Ranks that compute at the same time in a timed run: the render workers
  /// plus the master or shards that do real per-frame work. On a machine
  /// with fewer cores the run measures scheduler contention, not the farm.
  int busy_ranks;
  /// Writes frames and a journal to disk (the only workload that does).
  bool durable;
};

const std::vector<WorkloadSpec>& workload_specs();
/// Null when `name` names no workload.
const WorkloadSpec* find_workload(const std::string& name);

struct WorkloadInputs {
  now::AnimatedScene scene;
  now::FarmConfig config;
  double release_angle_degrees = 0.0;
  /// Frames one run must deliver: every scene frame, or in service mode the
  /// sum of the scripted shots' frame counts.
  int frames_expected = 0;
};

/// Builds the inputs. `output_dir` is used by the durable workload only
/// (frames and journal go there); the directory is not created here.
WorkloadInputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                           const std::string& output_dir);

}  // namespace nowbench
