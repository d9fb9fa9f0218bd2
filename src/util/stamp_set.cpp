#include "util/stamp_set.hpp"

#include <algorithm>
#include <deque>

namespace powder {

void StampSet::reset(std::size_t n) {
  if (marks_.size() < n) marks_.resize(n, 0);
  if (++epoch_ == 0) {
    // 2^32 resets: old stamps could alias the new epoch.
    std::fill(marks_.begin(), marks_.end(), 0u);
    epoch_ = 1;
  }
}

namespace {

struct Slot {
  StampSet set;
  std::vector<std::uint32_t> stack;
};

/// Per-thread lease stack. A deque keeps leased slots in place while
/// nested leases append new ones.
struct Leases {
  std::deque<Slot> slots;
  std::size_t depth = 0;
};

thread_local Leases t_leases;

}  // namespace

ScratchSet::ScratchSet(std::size_t n) {
  Leases& l = t_leases;
  if (l.depth == l.slots.size()) l.slots.emplace_back();
  Slot& slot = l.slots[l.depth++];
  slot.set.reset(n);
  slot.stack.clear();
  set_ = &slot.set;
  stack_ = &slot.stack;
}

ScratchSet::~ScratchSet() { --t_leases.depth; }

}  // namespace powder
