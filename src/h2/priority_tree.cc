#include "h2/priority_tree.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace h2r::h2 {

PriorityTree::PriorityTree() { nodes_[kConnectionStreamId] = Node{}; }

void PriorityTree::clear() {
  while (nodes_.size() > 1) keep_spare(nodes_.extract(std::prev(nodes_.end())));
  Node& root = nodes_.begin()->second;
  root.children.clear();
  root.weight = kDefaultWeight;
  root.parent = 0;
  root.vtime = 0;
  root.self_vtime = 0;
}

PriorityTree::Node& PriorityTree::add_node(std::uint32_t id) {
  if (spare_.empty()) return nodes_.try_emplace(id).first->second;
  NodeTable::node_type handle = std::move(spare_.back());
  spare_.pop_back();
  handle.key() = id;
  Node& n = handle.mapped();
  std::vector<std::uint32_t> children = std::move(n.children);
  children.clear();
  n = Node{};
  n.children = std::move(children);
  return nodes_.insert(std::move(handle)).position->second;
}

void PriorityTree::keep_spare(NodeTable::node_type handle) {
  if (spare_.size() >= kSpareNodes) return;
  if (spare_.capacity() == 0) spare_.reserve(kSpareNodes);
  spare_.push_back(std::move(handle));
}

PriorityTree::Node& PriorityTree::node(std::uint32_t id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::logic_error("PriorityTree: unknown node");
  return it->second;
}

const PriorityTree::Node& PriorityTree::node(std::uint32_t id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::logic_error("PriorityTree: unknown node");
  return it->second;
}

void PriorityTree::ensure_exists(std::uint32_t id) {
  if (nodes_.count(id)) return;
  // Phantom node: referenced before being declared. Default priority.
  add_node(id);
  nodes_[kConnectionStreamId].children.push_back(id);
}

void PriorityTree::detach(std::uint32_t id) {
  auto& siblings = node(node(id).parent).children;
  siblings.erase(std::remove(siblings.begin(), siblings.end(), id),
                 siblings.end());
}

void PriorityTree::attach(std::uint32_t id, std::uint32_t parent,
                          bool exclusive) {
  Node& p = node(parent);
  if (exclusive) {
    // §5.3.1: the new stream adopts all of the parent's current children.
    Node& self = node(id);
    for (std::uint32_t child : p.children) {
      node(child).parent = id;
      self.children.push_back(child);
    }
    p.children.clear();
  }
  p.children.push_back(id);
  node(id).parent = parent;
}

bool PriorityTree::contains(std::uint32_t stream_id) const {
  return nodes_.count(stream_id) != 0;
}

std::uint32_t PriorityTree::parent_of(std::uint32_t stream_id) const {
  return node(stream_id).parent;
}

int PriorityTree::weight_of(std::uint32_t stream_id) const {
  return node(stream_id).weight;
}

std::vector<std::uint32_t> PriorityTree::children_of(
    std::uint32_t stream_id) const {
  return node(stream_id).children;
}

bool PriorityTree::is_ancestor(std::uint32_t ancestor,
                               std::uint32_t stream_id) const {
  std::uint32_t cur = stream_id;
  while (cur != kConnectionStreamId) {
    cur = node(cur).parent;
    if (cur == ancestor) return true;
  }
  return ancestor == kConnectionStreamId;
}

Status PriorityTree::declare(std::uint32_t stream_id, const PriorityInfo& info) {
  if (info.dependency == stream_id) {
    return ProtocolViolationError("stream depends on itself");
  }
  if (contains(stream_id)) return reprioritize(stream_id, info);
  ensure_exists(info.dependency);
  add_node(stream_id).weight = info.weight();
  attach(stream_id, info.dependency, info.exclusive);
  return OkStatus();
}

Status PriorityTree::declare_default(std::uint32_t stream_id) {
  if (contains(stream_id)) return OkStatus();  // phantom already made
  add_node(stream_id);
  nodes_[kConnectionStreamId].children.push_back(stream_id);
  return OkStatus();
}

Status PriorityTree::reprioritize(std::uint32_t stream_id,
                                  const PriorityInfo& info) {
  if (info.dependency == stream_id) {
    return ProtocolViolationError("stream depends on itself");
  }
  if (!contains(stream_id)) {
    // PRIORITY for an undeclared stream creates it (§5.1: PRIORITY is legal
    // in idle state).
    return declare(stream_id, info);
  }
  ensure_exists(info.dependency);

  // §5.3.3: if the new parent currently sits inside our subtree, first move
  // it (with its own subtree) up to our current parent, keeping its weight.
  if (is_ancestor(stream_id, info.dependency)) {
    const std::uint32_t our_parent = node(stream_id).parent;
    detach(info.dependency);
    attach(info.dependency, our_parent, /*exclusive=*/false);
  }

  detach(stream_id);
  node(stream_id).weight = info.weight();
  attach(stream_id, info.dependency, info.exclusive);
  return OkStatus();
}

void PriorityTree::remove(std::uint32_t stream_id) {
  if (stream_id == kConnectionStreamId || !contains(stream_id)) return;
  detach(stream_id);
  NodeTable::node_type handle = nodes_.extract(stream_id);
  const Node& removed = handle.mapped();

  // §5.3.4: children become dependents of our parent; their weights are
  // scaled in proportion to ours.
  int child_weight_sum = 0;
  for (std::uint32_t child : removed.children) {
    child_weight_sum += node(child).weight;
  }
  Node& parent = node(removed.parent);
  for (std::uint32_t child : removed.children) {
    Node& c = node(child);
    c.parent = removed.parent;
    if (child_weight_sum > 0) {
      c.weight = std::max(1, c.weight * removed.weight / child_weight_sum);
    }
    parent.children.push_back(child);
  }
  keep_spare(std::move(handle));
}

bool PriorityTree::subtree_wants(
    std::uint32_t id,
    const std::function<bool(std::uint32_t)>& wants_data) const {
  if (id != kConnectionStreamId && wants_data(id)) return true;
  for (std::uint32_t child : node(id).children) {
    if (subtree_wants(child, wants_data)) return true;
  }
  return false;
}

std::uint32_t PriorityTree::next_stream(
    const std::function<bool(std::uint32_t)>& wants_data) const {
  std::uint32_t cur = kConnectionStreamId;
  for (;;) {
    if (cur != kConnectionStreamId && wants_data(cur)) return cur;
    // Choose the eager child subtree with the least weighted service so
    // siblings converge to bandwidth shares proportional to their weights.
    const Node& n = node(cur);
    std::uint32_t best = 0;
    double best_vtime = std::numeric_limits<double>::infinity();
    for (std::uint32_t child : n.children) {
      if (!subtree_wants(child, wants_data)) continue;
      const double vt = node(child).vtime;
      if (vt < best_vtime) {
        best_vtime = vt;
        best = child;
      }
    }
    if (best == 0) return 0;  // nothing eligible below cur
    cur = best;
  }
}

std::uint32_t PriorityTree::next_stream_fair(
    const std::function<bool(std::uint32_t)>& wants_data) const {
  // Generalized processor sharing: every eager stream owns a bandwidth
  // share derived from the tree (a node's own stream competes with its
  // eager child subtrees, weight-proportionally, for the parent share), and
  // the stream with the smallest served/share quotient goes next, ties to
  // the earliest stream id. First-byte order therefore follows *arrival*,
  // while completion order follows the dependency tree.
  FairPick pick{.best = 0,
                .best_key = std::numeric_limits<double>::infinity()};
  fair_visit(kConnectionStreamId, 1.0, wants_data, pick);
  return pick.best;
}

void PriorityTree::fair_visit(
    std::uint32_t id, double share,
    const std::function<bool(std::uint32_t)>& wants_data,
    FairPick& pick) const {
  const Node& n = node(id);
  const bool self_eager = id != kConnectionStreamId && wants_data(id);
  double total = self_eager ? static_cast<double>(n.weight) : 0.0;
  // This level's eager children sit at eager_[level, end); deeper levels
  // push above them and pop back before the loop below reads on.
  const std::size_t level = eager_.size();
  for (std::uint32_t child : n.children) {
    if (!subtree_wants(child, wants_data)) continue;
    eager_.push_back(child);
    total += static_cast<double>(node(child).weight);
  }
  const std::size_t end = eager_.size();
  if (total > 0) {
    if (self_eager) {
      const double s = share * static_cast<double>(n.weight) / total;
      const double key = n.self_vtime * static_cast<double>(n.weight) / s;
      if (key < pick.best_key ||
          (key == pick.best_key && pick.best != 0 && id < pick.best)) {
        pick.best = id;
        pick.best_key = key;
      }
    }
    for (std::size_t i = level; i < end; ++i) {
      const std::uint32_t child = eager_[i];
      fair_visit(child, share * static_cast<double>(node(child).weight) / total,
                 wants_data, pick);
    }
  }
  eager_.resize(level);
}

void PriorityTree::account(std::uint32_t stream_id, std::size_t octets) {
  if (!contains(stream_id) || stream_id == kConnectionStreamId) return;
  node(stream_id).self_vtime +=
      static_cast<double>(octets) / static_cast<double>(node(stream_id).weight);
  // Charge every node on the root path: a child's traffic is also its
  // parent's traffic from the scheduler's point of view.
  std::uint32_t cur = stream_id;
  while (cur != kConnectionStreamId) {
    Node& n = node(cur);
    n.vtime += static_cast<double>(octets) / static_cast<double>(n.weight);
    cur = n.parent;
  }
}

}  // namespace h2r::h2
