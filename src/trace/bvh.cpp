#include "src/trace/bvh.h"

#include <algorithm>

namespace now {

BvhAccelerator::BvhAccelerator(const World& world, int leaf_size)
    : world_(world) {
  std::vector<int> objs;
  for (int i = 0; i < world.object_count(); ++i) {
    if (world.object(i).primitive->is_bounded()) {
      objs.push_back(i);
    } else {
      unbounded_.push_back(i);
    }
  }
  if (!objs.empty()) {
    nodes_.reserve(2 * objs.size());
    build(objs, 0, static_cast<int>(objs.size()), std::max(1, leaf_size));
    order_ = objs;
  }
}

int BvhAccelerator::build(std::vector<int>& objs, int begin, int end,
                          int leaf_size) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  Aabb box;
  for (int i = begin; i < end; ++i) {
    box.absorb(world_.object(objs[i]).primitive->bounds());
  }
  nodes_[node_index].box = box.padded(1e-9);

  if (end - begin <= leaf_size) {
    nodes_[node_index].first = begin;
    nodes_[node_index].count = end - begin;
    return node_index;
  }
  Aabb centroids;
  for (int i = begin; i < end; ++i) {
    centroids.absorb(world_.object(objs[i]).primitive->bounds().center());
  }
  const Vec3 ext = centroids.extent();
  int axis = 0;
  if (ext.y > ext.x) axis = 1;
  if (ext.z > ext[axis]) axis = 2;
  const int mid = (begin + end) / 2;
  std::nth_element(
      objs.begin() + begin, objs.begin() + mid, objs.begin() + end,
      [&](int a, int b) {
        return world_.object(a).primitive->bounds().center()[axis] <
               world_.object(b).primitive->bounds().center()[axis];
      });
  const int left = build(objs, begin, mid, leaf_size);
  const int right = build(objs, mid, end, leaf_size);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

bool BvhAccelerator::closest_hit(const Ray& ray, double t_min, double t_max,
                                 Hit* hit, CellTrail* trail) const {
  if (trail != nullptr) trail->reset(nullptr);
  double nearest = t_max;
  bool found = false;
  for (const int i : unbounded_) {
    Hit h;
    if (world_.object(i).primitive->intersect(ray, t_min, nearest, &h)) {
      nearest = h.t;
      h.object_id = world_.object(i).object_id;
      *hit = h;
      found = true;
    }
  }
  if (!nodes_.empty() && closest_in_node(0, ray, t_min, nearest, hit)) {
    found = true;
  }
  return found;
}

bool BvhAccelerator::closest_in_node(int node_index, const Ray& ray,
                                     double t_min, double& nearest,
                                     Hit* hit) const {
  const Node& node = nodes_[node_index];
  if (!node.box.intersect(ray, t_min, nearest, nullptr, nullptr)) return false;
  if (node.left < 0) {
    bool found = false;
    for (int i = 0; i < node.count; ++i) {
      const int obj = order_[node.first + i];
      Hit h;
      if (world_.object(obj).primitive->intersect(ray, t_min, nearest, &h)) {
        nearest = h.t;
        h.object_id = world_.object(obj).object_id;
        *hit = h;
        found = true;
      }
    }
    return found;
  }
  const bool l = closest_in_node(node.left, ray, t_min, nearest, hit);
  const bool r = closest_in_node(node.right, ray, t_min, nearest, hit);
  return l || r;
}

bool BvhAccelerator::any_hit(const Ray& ray, double t_min, double t_max,
                             Hit* hit, CellTrail* trail) const {
  if (trail != nullptr) trail->reset(nullptr);
  for (const int i : unbounded_) {
    Hit h;
    if (world_.object(i).primitive->intersect(ray, t_min, t_max, &h)) {
      if (hit != nullptr) {
        h.object_id = world_.object(i).object_id;
        *hit = h;
      }
      return true;
    }
  }
  return !nodes_.empty() && any_in_node(0, ray, t_min, t_max, hit);
}

bool BvhAccelerator::any_in_node(int node_index, const Ray& ray, double t_min,
                                 double t_max, Hit* hit) const {
  const Node& node = nodes_[node_index];
  if (!node.box.intersect(ray, t_min, t_max, nullptr, nullptr)) return false;
  if (node.left < 0) {
    for (int i = 0; i < node.count; ++i) {
      const int obj = order_[node.first + i];
      Hit h;
      if (world_.object(obj).primitive->intersect(ray, t_min, t_max, &h)) {
        if (hit != nullptr) {
          h.object_id = world_.object(obj).object_id;
          *hit = h;
        }
        return true;
      }
    }
    return false;
  }
  return any_in_node(node.left, ray, t_min, t_max, hit) ||
         any_in_node(node.right, ray, t_min, t_max, hit);
}

int BvhAccelerator::node_depth(int node) const {
  if (node < 0) return 0;
  if (nodes_[node].left < 0) return 1;
  return 1 + std::max(node_depth(nodes_[node].left),
                      node_depth(nodes_[node].right));
}

int BvhAccelerator::depth() const {
  return nodes_.empty() ? 0 : node_depth(0);
}

}  // namespace now
