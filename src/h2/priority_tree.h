// Stream priority dependency tree (RFC 7540 §5.3).
//
// Implements the full §5.3 semantics the paper's Algorithm 1 probes:
//   * dependency insertion, exclusive insertion (Fig 1 of the paper),
//   * reprioritization including the descendant-parent move rule (§5.3.3),
//   * self-dependency detection (§5.3.1: stream error PROTOCOL_ERROR),
//   * weight redistribution when a stream closes (§5.3.4),
//   * a weighted-fair scheduler: a stream receives transmission resources
//     only when no ancestor wants to send; siblings share in proportion to
//     their weights.
//
// Unknown parents create "phantom" idle nodes (the nghttp2 strategy), so
// PRIORITY frames may arrive in any order relative to HEADERS.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "h2/constants.h"
#include "h2/frame.h"
#include "util/status.h"

namespace h2r::h2 {

class PriorityTree {
 public:
  PriorityTree();

  /// Back to just the root (what the constructor builds), keeping the
  /// root's child storage.
  void clear();

  /// Inserts (or re-declares) @p stream_id with the given priority triple.
  /// Errors with PROTOCOL_ERROR on self-dependency.
  Status declare(std::uint32_t stream_id, const PriorityInfo& info);

  /// Inserts with default priority: child of the root, weight 16 (§5.3.5).
  Status declare_default(std::uint32_t stream_id);

  /// Applies a PRIORITY frame to an existing or phantom stream (§5.3.3).
  Status reprioritize(std::uint32_t stream_id, const PriorityInfo& info);

  /// Removes a closed stream, re-parenting children with proportionally
  /// redistributed weights (§5.3.4).
  void remove(std::uint32_t stream_id);

  [[nodiscard]] bool contains(std::uint32_t stream_id) const;
  [[nodiscard]] std::uint32_t parent_of(std::uint32_t stream_id) const;
  [[nodiscard]] int weight_of(std::uint32_t stream_id) const;
  /// Children in insertion order (most informative order for tests).
  [[nodiscard]] std::vector<std::uint32_t> children_of(std::uint32_t stream_id) const;
  /// True when @p ancestor lies on the root path of @p stream_id.
  [[nodiscard]] bool is_ancestor(std::uint32_t ancestor,
                                 std::uint32_t stream_id) const;
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size() - 1; }

  /// Chooses the stream to serve next.
  ///
  /// @param wants_data predicate: does this stream have queued octets *and*
  ///        an open flow-control path?
  /// @returns 0 when nothing is eligible.
  ///
  /// Resource rule: descend from the root; at each level pick, among the
  /// children whose subtree contains an eager stream, the one with the
  /// smallest weighted virtual time; stop at the first eager node. Call
  /// `account` afterwards to charge the transmission.
  [[nodiscard]] std::uint32_t next_stream(
      const std::function<bool(std::uint32_t)>& wants_data) const;

  /// Non-gated variant: a node with pending data *competes* with its eager
  /// children instead of preempting them, so every stream progresses
  /// concurrently while ancestors still receive the larger share. This
  /// models the wild servers that honour priority in stream *completion*
  /// order but not in first-byte order (§V-E1's "last DATA frame" rule).
  [[nodiscard]] std::uint32_t next_stream_fair(
      const std::function<bool(std::uint32_t)>& wants_data) const;

  /// Charges @p octets of service to @p stream_id for weighted fairness.
  void account(std::uint32_t stream_id, std::size_t octets);

 private:
  struct Node {
    std::uint32_t parent = 0;
    int weight = kDefaultWeight;
    std::vector<std::uint32_t> children;  // insertion order
    double vtime = 0;       // weighted service of the whole subtree
    double self_vtime = 0;  // weighted service of this node's own stream
  };

  Node& node(std::uint32_t id);
  [[nodiscard]] const Node& node(std::uint32_t id) const;
  void ensure_exists(std::uint32_t id);
  void detach(std::uint32_t id);
  void attach(std::uint32_t id, std::uint32_t parent, bool exclusive);
  [[nodiscard]] bool subtree_wants(
      std::uint32_t id,
      const std::function<bool(std::uint32_t)>& wants_data) const;

  std::map<std::uint32_t, Node> nodes_;  // includes the root, id 0
};

}  // namespace h2r::h2
