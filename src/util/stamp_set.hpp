#pragma once
// Epoch-stamped index sets leased per thread: O(1)-clear "visited" marks
// for graph walks over every netlist slot.
//
// A walk that allocates (or re-zeroes) a num_slots-sized flag vector per
// call pays O(num_slots) before it visits anything; on the hot queries
// (cycle guard, TFO, MFFC, candidate pools) that clear dominates the walk
// itself. A StampSet keeps one uint32 stamp per index and reads
// "stamp == epoch" as membership, so emptying it is one increment.
//
// ScratchSet leases a StampSet from a per-thread stack: concurrent walks on
// different threads never share one, a walk may call another walk that
// leases its own, and the storage stays with the thread so steady-state
// walks never allocate. Leases must be scoped (released in reverse order).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace powder {

class StampSet {
 public:
  /// Empties the set and makes indices [0, n) addressable.
  void reset(std::size_t n);

  bool contains(std::size_t i) const { return marks_[i] == epoch_; }
  /// Inserts `i`; false when it was already present.
  bool insert(std::size_t i) {
    if (marks_[i] == epoch_) return false;
    marks_[i] = epoch_;
    return true;
  }

 private:
  std::vector<std::uint32_t> marks_;
  std::uint32_t epoch_ = 0;
};

/// A StampSet (plus an index work stack) leased from the calling thread,
/// empty over [0, n) on construction.
class ScratchSet {
 public:
  explicit ScratchSet(std::size_t n);
  ~ScratchSet();
  ScratchSet(const ScratchSet&) = delete;
  ScratchSet& operator=(const ScratchSet&) = delete;

  const StampSet& set() const { return *set_; }
  bool contains(std::size_t i) const { return set_->contains(i); }
  bool insert(std::size_t i) { return set_->insert(i); }

  /// An empty work stack owned by this lease (its capacity is reused).
  std::vector<std::uint32_t>& stack() { return *stack_; }

 private:
  StampSet* set_;
  std::vector<std::uint32_t>* stack_;
};

}  // namespace powder
