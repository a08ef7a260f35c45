// Bounding-volume-hierarchy accelerator over world objects.
//
// The paper's tracer uses uniform spatial subdivision (Glassner 1984); this
// BVH is the modern baseline it is benchmarked against (bench_accel). Both
// accelerators must produce identical hits — tested against brute force.
#pragma once

#include <vector>

#include "src/trace/accelerator.h"

namespace now {

class BvhAccelerator final : public Accelerator {
 public:
  explicit BvhAccelerator(const World& world, int leaf_size = 2);

  bool closest_hit(const Ray& ray, double t_min, double t_max, Hit* hit,
                   CellTrail* trail = nullptr) const override;
  bool any_hit(const Ray& ray, double t_min, double t_max, Hit* hit,
               CellTrail* trail = nullptr) const override;
  const char* name() const override { return "bvh"; }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int depth() const;

 private:
  struct Node {
    Aabb box;
    int left = -1;   // internal: child indices
    int right = -1;
    int first = 0;   // leaf: range into order_
    int count = 0;
  };

  int build(std::vector<int>& objs, int begin, int end, int leaf_size);
  bool closest_in_node(int node, const Ray& ray, double t_min,
                       double& nearest, Hit* hit) const;
  bool any_in_node(int node, const Ray& ray, double t_min, double t_max,
                   Hit* hit) const;
  int node_depth(int node) const;

  const World& world_;
  std::vector<Node> nodes_;
  std::vector<int> order_;      // bounded object indices, BVH order
  std::vector<int> unbounded_;  // planes etc., always tested
};

}  // namespace now
