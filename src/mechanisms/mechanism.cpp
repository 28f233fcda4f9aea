#include "mechanisms/mechanism.h"

#include <algorithm>
#include <cstdint>

#include "util/thread_pool.h"

namespace mobipriv::mech {

model::Dataset Mechanism::Apply(const model::Dataset& input,
                                util::Rng& rng) const {
  return ApplyToStore(input, rng).ToDataset();
}

model::EventStore PerTraceMechanism::ApplyToStore(
    const model::DatasetView& input, util::Rng& rng) const {
  const auto& traces = input.traces();
  const std::size_t n = traces.size();
  // One master draw whatever the worker count: the caller's rng advances
  // identically in serial and parallel runs, and every trace derives its
  // own independent stream from (master, user, trace index), so output is
  // byte-identical at any parallelism level.
  const std::uint64_t master = rng.NextU64();

  // ---- Pass 1: transform. ----
  // Traces are split into fixed-size blocks (independent of the worker
  // count, so the layout below is deterministic). Each block appends its
  // traces' output to ONE reused column buffer and records per-trace
  // sizes — zero per-trace allocations, amortized-O(1) appends.
  constexpr std::size_t kBlockTraces = 64;
  const std::size_t blocks = (n + kBlockTraces - 1) / kBlockTraces;
  struct Block {
    model::TraceBuffer buffer;
    std::vector<std::uint32_t> sizes;
  };
  std::vector<Block> results(blocks);
  util::ParallelForEach(blocks, [&](std::size_t b) {
    Block& block = results[b];
    const std::size_t lo = b * kBlockTraces;
    const std::size_t hi = std::min(n, lo + kBlockTraces);
    block.sizes.reserve(hi - lo);
    for (std::size_t t = lo; t < hi; ++t) {
      util::Rng trace_rng(util::DeriveStreamSeed(
          master, static_cast<std::uint64_t>(traces[t].user()),
          static_cast<std::uint64_t>(t)));
      const std::size_t before = block.buffer.size();
      ApplyToTraceColumns(traces[t], block.buffer, trace_rng);
      block.sizes.push_back(
          static_cast<std::uint32_t>(block.buffer.size() - before));
    }
  });

  // ---- Pass 2: lay out and fill. ----
  // Prefix-sum block sizes into final column offsets, then copy every
  // block's buffer into its pre-sized slot in parallel (pure memcpy of
  // column slices; order-independent because slots are disjoint).
  std::vector<std::size_t> block_offset(blocks + 1, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    block_offset[b + 1] = block_offset[b] + results[b].buffer.size();
  }
  const std::size_t total = block_offset[blocks];

  std::vector<double> lat(total);
  std::vector<double> lng(total);
  std::vector<util::Timestamp> time(total);
  util::ParallelForEach(blocks, [&](std::size_t b) {
    const model::TraceBuffer& buffer = results[b].buffer;
    const std::size_t at = block_offset[b];
    std::copy(buffer.lat().begin(), buffer.lat().end(), lat.begin() + at);
    std::copy(buffer.lng().begin(), buffer.lng().end(), lng.begin() + at);
    std::copy(buffer.time().begin(), buffer.time().end(), time.begin() + at);
  });

  // Trace table in input order, skipping suppressed (empty) outputs.
  std::vector<model::EventStore::TraceRange> table;
  table.reserve(n);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::size_t at = block_offset[b];
    const std::size_t lo = b * kBlockTraces;
    for (std::size_t k = 0; k < results[b].sizes.size(); ++k) {
      const std::size_t len = results[b].sizes[k];
      if (len > 0) {
        table.push_back(model::EventStore::TraceRange{
            traces[lo + k].user(), at, at + len});
      }
      at += len;
    }
  }

  // Names carried through in id order — a straight copy of the input's
  // table, no hash-map re-interning of event data.
  std::vector<std::string> names;
  names.reserve(input.UserCount());
  for (model::UserId id = 0;
       id < static_cast<model::UserId>(input.UserCount()); ++id) {
    names.push_back(input.UserName(id));
  }
  return model::EventStore::FromColumns(std::move(names), std::move(table),
                                        std::move(lat), std::move(lng),
                                        std::move(time));
}

}  // namespace mobipriv::mech
