#ifndef QENS_SIM_NETWORK_H_
#define QENS_SIM_NETWORK_H_

/// \file network.h
/// Message accounting for the simulated edge network: every leader <->
/// participant exchange is recorded so experiments can report communication
/// volume and simulated transfer time (the paper's O(1)-communication claim
/// for the selection protocol is checked against these counters).
///
/// Only aggregate counters are kept (total messages/bytes/seconds and
/// per-tag bytes), each updated in O(1) per Send, so memory stays bounded
/// however many queries a network carries.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "qens/sim/cost_model.h"

namespace qens::sim {

/// Records traffic and accumulates simulated transfer time.
class Network {
 public:
  explicit Network(CostModel cost_model) : cost_model_(cost_model) {}

  /// Account one message from node `from` to node `to` and return its
  /// simulated transfer seconds. Only the counters below record it.
  double Send(size_t from, size_t to, size_t bytes, std::string tag);

  size_t total_messages() const { return total_messages_; }
  size_t total_bytes() const { return total_bytes_; }
  double total_transfer_seconds() const { return total_seconds_; }

  /// Sum of bytes for messages with the given tag. O(log #tags): served
  /// from a running per-tag counter.
  size_t BytesWithTag(const std::string& tag) const;

  /// Running byte totals keyed by tag (deterministic iteration order).
  const std::map<std::string, size_t>& bytes_by_tag() const {
    return bytes_by_tag_;
  }

  /// Forget all recorded traffic (zero every counter).
  void Reset();

  const CostModel& cost_model() const { return cost_model_; }

 private:
  CostModel cost_model_;
  std::map<std::string, size_t> bytes_by_tag_;
  size_t total_messages_ = 0;
  size_t total_bytes_ = 0;
  double total_seconds_ = 0.0;
};

}  // namespace qens::sim

#endif  // QENS_SIM_NETWORK_H_
