#include "engine/router.h"

#include <algorithm>

#include "common/hash.h"

namespace ppa {
namespace {

/// Index into a consumer set of size `n` (> 1) for `key` on an edge into
/// `to_op`.
size_t ConsumerIndex(const std::string& key, OperatorId to_op, size_t n) {
  // Salt the hash with the consuming operator so different groupings
  // partition the key space independently (as separate hash functions in a
  // real engine would); all edges into the same operator share the salt,
  // which keeps multi-stream joins co-partitioned.
  const uint64_t h = Mix64(
      Fnv1a64(key) ^ (static_cast<uint64_t>(to_op) * 0x9e3779b97f4a7c15ULL));
  return static_cast<size_t>(h % n);
}

/// The memo segment of `batch` for an edge into `to_op` with `n` (> 1)
/// consumers, built on first use: `n + 1` group offsets followed by the
/// tuple positions grouped by consumer index. `index` is scratch space.
const uint32_t* Groups(const BatchOutput& batch, OperatorId to_op, size_t n,
                       std::vector<uint32_t>* index) {
  // The memo is a run of segments, one per edge routed so far:
  // [to_op, n, offsets[0..n], positions[0..size)], offsets[n] == size.
  RouteMemo& memo = batch.route_memo;
  const size_t size = batch.tuples.size();
  size_t at = 0;
  while (at < memo.size()) {
    const uint32_t* seg = memo.data() + at;
    const size_t seg_n = seg[1];
    if (seg[0] == static_cast<uint32_t>(to_op) && seg_n == n) {
      if (seg[2 + n] == size) {
        return seg + 2;
      }
      // The batch changed since it was memoized: start over.
      memo.Clear();
      break;
    }
    at += 3 + seg_n + seg[2 + seg_n];
  }
  // Counting sort of the positions by consumer index.
  index->resize(size);
  const size_t begin = memo.size();
  memo.Resize(begin + 3 + n + size);
  uint32_t* seg = memo.data() + begin;
  seg[0] = static_cast<uint32_t>(to_op);
  seg[1] = static_cast<uint32_t>(n);
  uint32_t* offsets = seg + 2;
  uint32_t* positions = offsets + n + 1;
  for (size_t i = 0; i < size; ++i) {
    (*index)[i] = static_cast<uint32_t>(
        ConsumerIndex(batch.tuples[i].key, to_op, n));
    ++offsets[(*index)[i] + 1];
  }
  for (size_t c = 0; c < n; ++c) {
    offsets[c + 1] += offsets[c];
  }
  // Place with offsets[c] as group c's cursor. Each cursor stops at its
  // group's end, the next group's start, so shifting the array up one
  // slot restores the starts.
  for (size_t i = 0; i < size; ++i) {
    positions[offsets[(*index)[i]]++] = static_cast<uint32_t>(i);
  }
  for (size_t c = n; c > 0; --c) {
    offsets[c] = offsets[c - 1];
  }
  offsets[0] = 0;
  return offsets;
}

}  // namespace

const std::vector<TaskId> Router::kEmpty;

Router::Router(const Topology* topology) : topology_(topology) {
  consumers_.resize(static_cast<size_t>(topology->num_tasks()) *
                    static_cast<size_t>(topology->num_operators()));
  for (const Substream& s : topology->substreams()) {
    consumers_[static_cast<size_t>(s.from) *
                   static_cast<size_t>(topology->num_operators()) +
               static_cast<size_t>(s.to_op)]
        .push_back(s.to);
  }
  for (auto& list : consumers_) {
    std::sort(list.begin(), list.end());
  }
}

const std::vector<TaskId>& Router::Consumers(TaskId producer,
                                             OperatorId to_op) const {
  if (producer < 0 || producer >= topology_->num_tasks() || to_op < 0 ||
      to_op >= topology_->num_operators()) {
    return kEmpty;
  }
  return consumers_[static_cast<size_t>(producer) *
                        static_cast<size_t>(topology_->num_operators()) +
                    static_cast<size_t>(to_op)];
}

TaskId Router::Route(TaskId producer, OperatorId to_op,
                     const Tuple& tuple) const {
  const std::vector<TaskId>& consumers = Consumers(producer, to_op);
  if (consumers.empty()) {
    return kInvalidTaskId;
  }
  if (consumers.size() == 1) {
    return consumers[0];
  }
  return consumers[ConsumerIndex(tuple.key, to_op, consumers.size())];
}

size_t Router::RouteBatchTo(TaskId producer, OperatorId to_op,
                            const BatchOutput& batch, TaskId consumer,
                            std::vector<Tuple>* out) const {
  const std::vector<TaskId>& consumers = Consumers(producer, to_op);
  if (consumers.size() <= 1) {
    // One-to-one and merge edges: the whole batch or nothing, no hashing.
    if (consumers.empty() || consumers[0] != consumer) {
      return 0;
    }
    if (out != nullptr) {
      out->insert(out->end(), batch.tuples.begin(), batch.tuples.end());
    }
    return batch.tuples.size();
  }
  const auto it = std::lower_bound(consumers.begin(), consumers.end(),
                                   consumer);
  if (it == consumers.end() || *it != consumer || batch.tuples.empty()) {
    return 0;
  }
  const size_t c = static_cast<size_t>(it - consumers.begin());
  const uint32_t* offsets =
      Groups(batch, to_op, consumers.size(), &index_scratch_);
  const uint32_t* positions = offsets + consumers.size() + 1;
  const size_t routed = offsets[c + 1] - offsets[c];
  if (out != nullptr) {
    for (uint32_t k = offsets[c]; k < offsets[c + 1]; ++k) {
      out->push_back(batch.tuples[positions[k]]);
    }
  }
  return routed;
}

}  // namespace ppa
