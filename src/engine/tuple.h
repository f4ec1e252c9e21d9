#ifndef PPA_ENGINE_TUPLE_H_
#define PPA_ENGINE_TUPLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "topology/types.h"

namespace ppa {

/// A data item (Sec. II-A): a string key plus an opaque 64-bit value
/// payload. The engine adds provenance fields used for batching, routing,
/// replay, and duplicate elimination.
struct Tuple {
  std::string key;
  int64_t value = 0;

  /// Index of the batch this tuple belongs to.
  int64_t batch = 0;
  /// Per-producer monotonically increasing sequence number; consumers use
  /// it to skip duplicates replayed after a recovery or replica takeover
  /// (Sec. V-B).
  uint64_t seq = 0;
  /// Task that produced the tuple (kInvalidTaskId for raw source input).
  TaskId producer = kInvalidTaskId;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.key == b.key && a.value == b.value && a.batch == b.batch &&
           a.seq == b.seq && a.producer == b.producer;
  }
};

/// The Router's memo of how one buffered batch splits over the consumers
/// of each multi-consumer edge it was routed along (Router::RouteBatchTo):
/// a run of 32-bit words in one heap block, whose first two words hold the
/// block's capacity and the words in use. It is derived data: never
/// serialized, compared or checkpointed. It owns its block, so it and the
/// BatchOutput holding it are move-only.
class RouteMemo {
 public:
  /// True once the block exists (possibly with no words in use).
  bool allocated() const { return block_ != nullptr; }
  /// Words in use.
  size_t size() const { return block_ == nullptr ? 0 : block_[kSize]; }
  /// The words in use; requires allocated(). Resize() invalidates it.
  uint32_t* data() { return block_.get() + kHeader; }
  /// Sets the words in use to `n`, zeroing the added ones. Past its
  /// capacity the block is replaced, with one allocation, by one of
  /// exactly `n` words. (Doubling instead left the heap of a long q1-topk
  /// perfbench run 40-50 MB larger between drills.)
  void Resize(size_t n) {
    const size_t used = size();
    if (block_ == nullptr || n > block_[kCapacity]) {
      auto grown = std::make_unique_for_overwrite<uint32_t[]>(kHeader + n);
      grown[kCapacity] = static_cast<uint32_t>(n);
      if (used > 0) {
        std::copy_n(data(), used, grown.get() + kHeader);
      }
      block_ = std::move(grown);
    }
    if (n > used) {
      std::fill(data() + used, data() + n, 0u);
    }
    block_[kSize] = static_cast<uint32_t>(n);
  }
  /// Forgets the words and keeps the block (recycling).
  void Clear() {
    if (block_ != nullptr) {
      block_[kSize] = 0;
    }
  }

 private:
  static constexpr size_t kCapacity = 0;
  static constexpr size_t kSize = 1;
  static constexpr size_t kHeader = 2;
  std::unique_ptr<uint32_t[]> block_;
};

/// The output of one task for one batch, retained in the task's output
/// buffer until trimmed by the checkpoint protocol. Carries the batch's
/// latency lineage: the sim-time the batch's data entered the topology
/// at a source and the number of task hops it crossed to get here, so a
/// sink can attribute end-to-end latency without re-walking the DAG.
struct BatchOutput {
  int64_t batch = 0;
  std::vector<Tuple> tuples;
  /// Source-ingest sim-time of this batch's lineage: the nominal tick
  /// time at the sources for stable in-tick processing, which replayed
  /// or recovered batches keep, so late deliveries show their true age.
  TimePoint ingest_at = TimePoint::Zero();
  /// Task hops from the source (sources emit with hops == 1).
  int32_t hops = 0;
  /// Filled lazily by Router::RouteBatchTo through a const reference. That
  /// is safe only because a job's tasks, router and buffers all run on one
  /// strand: no two threads ever route the same buffered batch.
  mutable RouteMemo route_memo;
};

}  // namespace ppa

#endif  // PPA_ENGINE_TUPLE_H_
