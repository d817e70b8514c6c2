#include "qens/sim/network.h"

namespace qens::sim {

double Network::Send(size_t /*from*/, size_t /*to*/, size_t bytes,
                     std::string tag) {
  bytes_by_tag_[tag] += bytes;
  ++total_messages_;
  total_bytes_ += bytes;
  const double seconds = cost_model_.TransferSeconds(bytes);
  total_seconds_ += seconds;
  return seconds;
}

size_t Network::BytesWithTag(const std::string& tag) const {
  const auto it = bytes_by_tag_.find(tag);
  return it == bytes_by_tag_.end() ? 0 : it->second;
}

void Network::Reset() {
  bytes_by_tag_.clear();
  total_messages_ = 0;
  total_bytes_ = 0;
  total_seconds_ = 0.0;
}

}  // namespace qens::sim
