#include "src/profiling/profile.h"

namespace fbdetect {

void ProfileAggregate::AddSample(const std::vector<NodeId>& stack) {
  const uint64_t index = total_samples_++;
  // A DAG walk visits each node at most once, but be defensive about
  // duplicates from hand-built stacks.
  for (size_t i = 0; i < stack.size(); ++i) {
    bool duplicate = false;
    for (size_t j = 0; j < i; ++j) {
      if (stack[j] == stack[i]) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      containing_samples_[stack[i]].push_back(index);
    }
  }
}

uint64_t ProfileAggregate::CountOf(NodeId id) const {
  const auto it = containing_samples_.find(id);
  return it == containing_samples_.end() ? 0 : it->second.size();
}

double ProfileAggregate::Gcpu(NodeId id) const {
  if (total_samples_ == 0) {
    return 0.0;
  }
  return static_cast<double>(CountOf(id)) / static_cast<double>(total_samples_);
}

double ProfileAggregate::SampleOverlap(NodeId a, NodeId b) const {
  const auto it_a = containing_samples_.find(a);
  const auto it_b = containing_samples_.find(b);
  if (it_a == containing_samples_.end() || it_b == containing_samples_.end()) {
    return 0.0;
  }
  const std::vector<uint64_t>& sa = it_a->second;
  const std::vector<uint64_t>& sb = it_b->second;
  size_t shared = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < sa.size() && j < sb.size()) {
    if (sa[i] == sb[j]) {
      ++shared;
      ++i;
      ++j;
    } else if (sa[i] < sb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t either = sa.size() + sb.size() - shared;
  return either == 0 ? 0.0 : static_cast<double>(shared) / static_cast<double>(either);
}

void ProfileAggregate::Merge(const ProfileAggregate& other) {
  const uint64_t offset = total_samples_;
  for (const auto& [id, samples] : other.containing_samples_) {
    std::vector<uint64_t>& mine = containing_samples_[id];
    mine.reserve(mine.size() + samples.size());
    for (uint64_t s : samples) {
      mine.push_back(s + offset);
    }
  }
  total_samples_ += other.total_samples_;
}

}  // namespace fbdetect
