// The shard body (core::ApplyStageToShard) is the one per-shard publish of
// both streamed placements, in-process and in mobipriv_worker. Store-level
// differential oracle: the body run over every shard of a shard directory,
// its results interleaved by plan.origin with empty (suppressed) ranges
// dropped, must equal PerTraceMechanism::ApplyToStore over the bound view
// with the same master draw — trace for trace, bit for bit, global user
// included. Every per-trace registry mechanism runs, plus a test kernel
// that suppresses some traces and draws from its rng, over SaveShards
// directories of 1, 3 and 8 shards and an origin-less MergeShardManifests
// directory, at 1 and 4 threads.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "core/shard_stage.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 40;
    config.days = 2;
    config.seed = 13;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

/// Suppresses every trace whose (global user + length) is divisible by 3
/// and jitters the others with its trace rng, so both the suppression
/// ranges and the per-trace stream seeding are under test.
class SuppressSome final : public mech::PerTraceMechanism {
 public:
  [[nodiscard]] std::string Name() const override {
    return "test_suppress_some";
  }

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& rng) const override {
    if ((trace.user() + trace.size()) % 3 == 0) return;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      geo::LatLng p = trace.position(i);
      p.lat += rng.Uniform(-1e-4, 1e-4);
      out.Append(p, trace.time(i));
    }
  }
};

const bool kRegistered = [] {
  mech::RegisterMechanism("test_suppress_some", [](const util::Spec&) {
    return std::make_unique<SuppressSome>();
  });
  return true;
}();

/// Every registered base whose default instance is per-trace.
std::vector<std::unique_ptr<mech::Mechanism>> PerTraceStages() {
  std::vector<std::unique_ptr<mech::Mechanism>> stages;
  for (const std::string& base : mech::RegisteredMechanismBases()) {
    std::unique_ptr<mech::Mechanism> stage = mech::CreateMechanism(base);
    if (dynamic_cast<const mech::PerTraceMechanism*>(stage.get())) {
      stages.push_back(std::move(stage));
    }
  }
  return stages;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

/// The body over every shard, interleaved into canonical order with
/// suppressed traces dropped, against ApplyToStore over the bound view.
void ExpectBodyMatchesApplyToStore(const std::string& dir) {
  const std::optional<core::ShardStreamPlan> plan =
      core::ProbeShardStream(dir);
  ASSERT_TRUE(plan.has_value()) << dir;
  const core::BoundSource bound =
      core::BoundSource::Bind(core::DatasetSourceSpec::ShardDir(dir));
  std::vector<model::MappedColumnar> shards(plan->shard_count);
  for (std::size_t s = 0; s < plan->shard_count; ++s) {
    shards[s] = model::MapColumnar(model::ShardDataPath(dir, s));
  }

  const std::vector<std::unique_ptr<mech::Mechanism>> stages =
      PerTraceStages();
  ASSERT_GE(stages.size(), 6u);  // the five library kernels + the test's
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const util::ScopedParallelism scope(threads);
    for (const auto& stage : stages) {
      const std::string context = stage->Name() + " in " + dir +
                                  " @threads=" + std::to_string(threads);
      util::Rng rng(17);
      const model::EventStore whole = stage->ApplyToStore(bound.view(), rng);
      const std::uint64_t master = util::Rng(17).NextU64();

      // Side one: the shard body per shard, slotted by canonical position.
      std::vector<model::EventStore> results(plan->shard_count);
      std::vector<model::TraceView> slots(plan->total_traces);
      std::vector<model::UserId> slot_user(plan->total_traces);
      for (std::size_t s = 0; s < plan->shard_count; ++s) {
        std::size_t progress_calls = 0;
        results[s] = core::ApplyStageToShard(
            static_cast<const mech::PerTraceMechanism&>(*stage), master,
            *plan, s, shards[s], [&] { ++progress_calls; });
        const model::EventStore& result = results[s];
        ASSERT_EQ(result.TraceCount(), shards[s].TraceCount()) << context;
        EXPECT_EQ(progress_calls, shards[s].TraceCount() / 64) << context;
        for (std::size_t i = 0; i < result.TraceCount(); ++i) {
          // Shard-local ids over the shard's own name table.
          const model::UserId global =
              plan->local_to_global[s][result.TraceUser(i)];
          ASSERT_EQ(result.UserName(result.TraceUser(i)),
                    plan->global_names[global])
              << context;
          slots[plan->origin[s][i]] = result.View(i);
          slot_user[plan->origin[s][i]] = global;
        }
      }

      // Side two: the whole-view store, already without empty ranges.
      std::size_t t = 0;
      for (std::size_t c = 0; c < slots.size(); ++c) {
        const model::TraceView& mine = slots[c];
        if (mine.empty()) continue;
        ASSERT_LT(t, whole.TraceCount()) << context;
        const model::TraceView theirs = whole.View(t);
        ASSERT_EQ(slot_user[c], whole.TraceUser(t)) << context << " @" << c;
        ASSERT_EQ(mine.size(), theirs.size()) << context << " @" << c;
        for (std::size_t i = 0; i < mine.size(); ++i) {
          ASSERT_EQ(Bits(mine.lat(i)), Bits(theirs.lat(i)))
              << context << " @" << c << " fix " << i;
          ASSERT_EQ(Bits(mine.lng(i)), Bits(theirs.lng(i)))
              << context << " @" << c << " fix " << i;
          ASSERT_EQ(mine.time(i), theirs.time(i))
              << context << " @" << c << " fix " << i;
        }
        ++t;
      }
      EXPECT_EQ(t, whole.TraceCount()) << context;
    }
  }
}

TEST(ShardStage, BodyMatchesApplyToStoreOnSaveShardsDirs) {
  // The 1-shard directory then takes at least one progress call.
  ASSERT_GE(World().TraceCount(), 64u);
  for (const std::size_t k : {1u, 3u, 8u}) {
    const ScratchDir dir("mobipriv_shard_stage_" + std::to_string(k));
    model::ShardedDataset::Partition(World(), k).SaveShards(
        dir.path.string());
    ExpectBodyMatchesApplyToStore(dir.path.string());
  }
}

TEST(ShardStage, BodyMatchesApplyToStoreOnAnOriginlessDir) {
  // Independently written shards stitched by MergeShardManifests record no
  // origin: the canonical order is shard-major.
  const ScratchDir dir("mobipriv_shard_stage_originless");
  constexpr std::size_t kShards = 3;
  const auto partition = model::ShardedDataset::Partition(World(), kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    model::WriteColumnar(model::EventStore::FromDataset(partition.shard(s)),
                         model::ShardDataPath(dir.path.string(), s));
  }
  model::MergeShardManifests(dir.path.string(), kShards);
  ASSERT_FALSE(model::ReadShardManifest(dir.path.string()).has_origin());
  ExpectBodyMatchesApplyToStore(dir.path.string());
}

TEST(ShardStage, TraceCountDisagreeingWithThePlanThrows) {
  const ScratchDir dir("mobipriv_shard_stage_mismatch");
  model::ShardedDataset::Partition(World(), 2).SaveShards(dir.path.string());
  std::optional<core::ShardStreamPlan> plan =
      core::ProbeShardStream(dir.path.string());
  ASSERT_TRUE(plan.has_value());
  plan->origin[0].pop_back();
  const model::MappedColumnar mapped =
      model::MapColumnar(model::ShardDataPath(dir.path.string(), 0));
  const auto stage = mech::CreateMechanism("gaussian");
  EXPECT_THROW(
      (void)core::ApplyStageToShard(
          static_cast<const mech::PerTraceMechanism&>(*stage), 1, *plan, 0,
          mapped),
      model::IoError);
}

}  // namespace
}  // namespace mobipriv
