#ifndef PPA_TOPOLOGY_TASK_SET_H_
#define PPA_TOPOLOGY_TASK_SET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "topology/types.h"

namespace ppa {

/// A dense set of task ids over a topology with a fixed task count.
/// Used for failure sets and replication plans; cheap to copy and
/// comparable (needed for plan deduplication in the DP planner).
///
/// Stored as 64-bit words (task `i` is bit `i % 64` of word `i / 64`); bits
/// past the universe are always zero, so set algebra works a word at a time.
class TaskSet {
 public:
  TaskSet() = default;
  /// An empty set over `num_tasks` tasks.
  explicit TaskSet(int num_tasks)
      : words_(WordCount(num_tasks), 0), universe_(num_tasks), count_(0) {}

  /// The full set over `num_tasks` tasks.
  static TaskSet All(int num_tasks) { return TaskSet(num_tasks).Complement(); }

  /// Number of tasks in the underlying universe (the topology task count).
  [[nodiscard]] int universe_size() const { return universe_; }
  /// Number of elements in the set.
  [[nodiscard]] int size() const { return count_; }
  /// True iff the set has no elements.
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// True iff `id` is in the set.
  [[nodiscard]] bool Contains(TaskId id) const {
    PPA_CHECK(id >= 0 && id < universe_);
    return (words_[Word(id)] & Bit(id)) != 0;
  }

  /// Adds `id`; returns true if it was newly inserted.
  bool Add(TaskId id) {
    PPA_CHECK(id >= 0 && id < universe_);
    uint64_t& w = words_[Word(id)];
    if ((w & Bit(id)) != 0) {
      return false;
    }
    w |= Bit(id);
    ++count_;
    return true;
  }

  /// Removes `id`; returns true if it was present.
  bool Remove(TaskId id) {
    PPA_CHECK(id >= 0 && id < universe_);
    uint64_t& w = words_[Word(id)];
    if ((w & Bit(id)) == 0) {
      return false;
    }
    w &= ~Bit(id);
    --count_;
    return true;
  }

  /// Inserts every element of `other` (same universe required).
  void UnionWith(const TaskSet& other) {
    PPA_CHECK(other.universe_ == universe_);
    for (size_t i = 0; i < words_.size(); ++i) {
      count_ += std::popcount(other.words_[i] & ~words_[i]);
      words_[i] |= other.words_[i];
    }
  }

  /// Number of elements of `other` missing from this set.
  [[nodiscard]] int CountMissing(const TaskSet& other) const {
    PPA_CHECK(other.universe_ == universe_);
    int missing = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      missing += std::popcount(other.words_[i] & ~words_[i]);
    }
    return missing;
  }

  /// True if every element of this set is in `other`.
  [[nodiscard]] bool IsSubsetOf(const TaskSet& other) const {
    PPA_CHECK(other.universe_ == universe_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~other.words_[i]) != 0) {
        return false;
      }
    }
    return true;
  }

  /// The set of tasks NOT in this set.
  [[nodiscard]] TaskSet Complement() const {
    TaskSet s(*this);
    for (uint64_t& w : s.words_) {
      w = ~w;
    }
    if (universe_ % 64 != 0) {
      s.words_.back() &= Bit(universe_) - 1;  // Keep the tail bits zero.
    }
    s.count_ = universe_ - count_;
    return s;
  }

  /// Elements in ascending order.
  [[nodiscard]] std::vector<TaskId> ToVector() const {
    std::vector<TaskId> v;
    v.reserve(static_cast<size_t>(count_));
    for (size_t i = 0; i < words_.size(); ++i) {
      for (uint64_t w = words_[i]; w != 0; w &= w - 1) {
        v.push_back(static_cast<TaskId>(i * 64 + std::countr_zero(w)));
      }
    }
    return v;
  }

  friend bool operator==(const TaskSet& a, const TaskSet& b) {
    return a.universe_ == b.universe_ && a.words_ == b.words_;
  }
  /// Lexicographic order of the membership sequences (task 0 first, absent
  /// before present, a proper prefix first) — exactly std::vector<bool>'s
  /// order, which fixes the DP planner's and MC-tree enumeration's
  /// iteration order and hence their tie-breaking.
  friend bool operator<(const TaskSet& a, const TaskSet& b) {
    const size_t common = std::min(a.words_.size(), b.words_.size());
    for (size_t i = 0; i < common; ++i) {
      const uint64_t diff = a.words_[i] ^ b.words_[i];
      if (diff != 0) {
        // The first differing task is in `b` only iff a < b. A difference
        // past the shorter universe is a tail bit of the longer set, which
        // agrees with "a proper prefix sorts first".
        return (b.words_[i] & (diff & -diff)) != 0;
      }
    }
    return a.universe_ < b.universe_;
  }

 private:
  static size_t WordCount(int num_tasks) {
    return (static_cast<size_t>(num_tasks) + 63) / 64;
  }
  static size_t Word(TaskId id) { return static_cast<size_t>(id) / 64; }
  static uint64_t Bit(TaskId id) { return uint64_t{1} << (id % 64); }

  std::vector<uint64_t> words_;
  int universe_ = 0;
  int count_ = 0;
};

}  // namespace ppa

#endif  // PPA_TOPOLOGY_TASK_SET_H_
