#include "inputs.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"

namespace perfbench {
namespace {

/// Per-(task, batch) volume: `per_batch` jittered by up to +-10%, so the
/// seed moves state sizes (and with them the modelled recovery times)
/// the way real source rates do, while the mean rate stays `per_batch`.
int64_t Volume(int64_t per_batch, ppa::Rng* rng) {
  const double jitter = 0.9 + 0.2 * rng->NextDouble();
  return std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(per_batch) * jitter));
}

ppa::Rng BatchRng(uint64_t seed, int task, int64_t batch) {
  return ppa::Rng(ppa::Mix64(seed ^ ppa::Mix64(
                                        static_cast<uint64_t>(batch) * 1315423911u +
                                        static_cast<uint64_t>(task) * 2654435761u)));
}

std::vector<std::string> KeyTable(const std::string& prefix, int n) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys.push_back(prefix + std::to_string(i));
  }
  return keys;
}

}  // namespace

int64_t SourceInputs::TuplesThrough(int64_t last_batch) const {
  int64_t n = 0;
  for (const auto& task : batches) {
    for (int64_t b = 0; b <= last_batch && b < static_cast<int64_t>(task.size());
         ++b) {
      n += static_cast<int64_t>(task[static_cast<size_t>(b)].size());
    }
  }
  return n;
}

SourceInputs MakeUniformInputs(int tasks, int64_t batches, int64_t per_batch,
                               int key_space, uint64_t seed) {
  SourceInputs in;
  in.keys = KeyTable("k", key_space);
  in.batches.resize(static_cast<size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    auto& task = in.batches[static_cast<size_t>(t)];
    task.resize(static_cast<size_t>(batches));
    for (int64_t b = 0; b < batches; ++b) {
      ppa::Rng rng = BatchRng(seed, t, b);
      auto& batch = task[static_cast<size_t>(b)];
      batch.resize(static_cast<size_t>(Volume(per_batch, &rng)));
      for (SourceInputs::Item& item : batch) {
        item.key = static_cast<uint32_t>(
            rng.NextUint64(static_cast<uint64_t>(key_space)));
        item.value = static_cast<int32_t>(rng.NextUint64(1000));
      }
    }
  }
  return in;
}

SourceInputs MakeZipfInputs(int tasks, int64_t batches, int64_t per_batch,
                            int population, double zipf_s, uint64_t seed) {
  SourceInputs in;
  in.keys = KeyTable("url", population);
  const ppa::ZipfGenerator zipf(static_cast<size_t>(population), zipf_s);
  in.batches.resize(static_cast<size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    auto& task = in.batches[static_cast<size_t>(t)];
    task.resize(static_cast<size_t>(batches));
    for (int64_t b = 0; b < batches; ++b) {
      ppa::Rng rng = BatchRng(seed, t, b);
      auto& batch = task[static_cast<size_t>(b)];
      batch.resize(static_cast<size_t>(Volume(per_batch, &rng)));
      for (SourceInputs::Item& item : batch) {
        item.key = static_cast<uint32_t>(zipf.Sample(&rng));
        item.value = 1;
      }
    }
  }
  return in;
}

std::vector<ppa::Tuple> ReplaySource::NextBatch(int64_t batch_index,
                                                int task_index) {
  PPA_CHECK(task_index >= 0 && task_index < inputs_->num_tasks() &&
            batch_index >= 0 && batch_index < inputs_->num_batches())
      << "replay source asked for batch " << batch_index << " of task "
      << task_index << " outside the generated inputs";
  const auto& items = inputs_->batches[static_cast<size_t>(task_index)]
                                      [static_cast<size_t>(batch_index)];
  std::vector<ppa::Tuple> out(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    out[i].key = inputs_->keys[items[i].key];
    out[i].value = items[i].value;
  }
  return out;
}

}  // namespace perfbench
