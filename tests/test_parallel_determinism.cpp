// The parallel batch engine's core contract: output is byte-identical
// whatever the worker count. Every stochastic stage derives per-trace RNG
// streams from one master draw, so a serial run (parallelism 1) and a
// multi-threaded run (parallelism 8) of the same seed must produce exactly
// the same datasets, reports and attack results.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "attacks/poi_extraction.h"
#include "attacks/reident.h"
#include "core/anonymizer.h"
#include "core/engine.h"
#include "core/scenario.h"
#include "mechanisms/geo_indistinguishability.h"
#include "model/columnar_file.h"
#include "model/geolife.h"
#include "model/io.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"
#include "util/thread_pool.h"

namespace mobipriv {
namespace {

constexpr std::uint64_t kSeed = 20150629;

model::Dataset TestWorldDataset() {
  synth::PopulationConfig config;
  config.agents = 12;
  config.days = 2;
  config.seed = 77;
  return synth::SyntheticWorld(config).dataset();
}

/// Exact (bitwise) dataset equality: same users, same traces in the same
/// order, same events with identical coordinates and timestamps.
void ExpectDatasetsIdentical(const model::Dataset& a, const model::Dataset& b) {
  ASSERT_EQ(a.UserCount(), b.UserCount());
  for (model::UserId id = 0; id < a.UserCount(); ++id) {
    EXPECT_EQ(a.UserName(id), b.UserName(id));
  }
  ASSERT_EQ(a.TraceCount(), b.TraceCount());
  for (std::size_t t = 0; t < a.TraceCount(); ++t) {
    const model::Trace& ta = a.traces()[t];
    const model::Trace& tb = b.traces()[t];
    ASSERT_EQ(ta.user(), tb.user()) << "trace " << t;
    ASSERT_EQ(ta.size(), tb.size()) << "trace " << t;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].time, tb[i].time) << "trace " << t << " event " << i;
      // Bitwise: any divergence between serial and parallel execution
      // (different RNG stream, different accumulation order) must surface.
      EXPECT_EQ(ta[i].position.lat, tb[i].position.lat)
          << "trace " << t << " event " << i;
      EXPECT_EQ(ta[i].position.lng, tb[i].position.lng)
          << "trace " << t << " event " << i;
    }
  }
}

TEST(ParallelDeterminism, AnonymizerPipelineIsWorkerCountInvariant) {
  const model::Dataset input = TestWorldDataset();
  const core::Anonymizer anonymizer;

  core::PipelineReport serial_report;
  util::Rng serial_rng(kSeed);
  model::Dataset serial;
  {
    const util::ScopedParallelism one(1);
    serial = anonymizer.ApplyToStoreWithReport(input, serial_rng, serial_report)
                 .ToDataset();
  }

  core::PipelineReport parallel_report;
  util::Rng parallel_rng(kSeed);
  model::Dataset parallel;
  {
    const util::ScopedParallelism eight(8);
    parallel =
        anonymizer.ApplyToStoreWithReport(input, parallel_rng, parallel_report)
            .ToDataset();
  }

  ExpectDatasetsIdentical(serial, parallel);
  // The caller's RNG must advance identically too (later pipeline stages
  // depend on it).
  EXPECT_EQ(serial_rng.NextU64(), parallel_rng.NextU64());
  EXPECT_EQ(serial_report.ToString(), parallel_report.ToString());
  EXPECT_EQ(serial_report.mixzone.encounters, parallel_report.mixzone.encounters);
  EXPECT_EQ(serial_report.mixzone.swaps_applied,
            parallel_report.mixzone.swaps_applied);
}

TEST(ParallelDeterminism, StochasticPerTraceMechanismIsWorkerCountInvariant) {
  const model::Dataset input = TestWorldDataset();
  const mech::GeoIndistinguishability mechanism;  // draws noise per event

  util::Rng serial_rng(kSeed);
  model::Dataset serial;
  {
    const util::ScopedParallelism one(1);
    serial = mechanism.Apply(input, serial_rng);
  }
  util::Rng parallel_rng(kSeed);
  model::Dataset parallel;
  {
    const util::ScopedParallelism eight(8);
    parallel = mechanism.Apply(input, parallel_rng);
  }
  ExpectDatasetsIdentical(serial, parallel);
  EXPECT_EQ(serial_rng.NextU64(), parallel_rng.NextU64());
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreIdentical) {
  const model::Dataset input = TestWorldDataset();
  const core::Anonymizer anonymizer;
  const util::ScopedParallelism eight(8);
  util::Rng rng_a(kSeed);
  util::Rng rng_b(kSeed);
  ExpectDatasetsIdentical(anonymizer.Apply(input, rng_a),
                          anonymizer.Apply(input, rng_b));
}

TEST(ParallelDeterminism, AttackResultsAreWorkerCountInvariant) {
  const model::Dataset input = TestWorldDataset();
  const geo::LocalProjection projection = attacks::DatasetProjection(input);
  const attacks::ReidentificationAttack attack;
  const attacks::PoiExtractor extractor;

  std::vector<attacks::LinkResult> serial_links, parallel_links;
  std::vector<attacks::ExtractedPoi> serial_pois, parallel_pois;
  {
    const util::ScopedParallelism one(1);
    const auto profiles = attack.BuildProfiles(input, projection);
    serial_links = attack.Attack(profiles, input, projection);
    serial_pois = extractor.Extract(input, projection);
  }
  {
    const util::ScopedParallelism eight(8);
    const auto profiles = attack.BuildProfiles(input, projection);
    parallel_links = attack.Attack(profiles, input, projection);
    parallel_pois = extractor.Extract(input, projection);
  }

  ASSERT_EQ(serial_links.size(), parallel_links.size());
  for (std::size_t i = 0; i < serial_links.size(); ++i) {
    EXPECT_EQ(serial_links[i].true_user, parallel_links[i].true_user);
    EXPECT_EQ(serial_links[i].predicted_user, parallel_links[i].predicted_user);
    EXPECT_EQ(serial_links[i].linkable, parallel_links[i].linkable);
    EXPECT_EQ(serial_links[i].distance, parallel_links[i].distance);
  }
  ASSERT_EQ(serial_pois.size(), parallel_pois.size());
  for (std::size_t i = 0; i < serial_pois.size(); ++i) {
    EXPECT_EQ(serial_pois[i].user, parallel_pois[i].user);
    EXPECT_EQ(serial_pois[i].centroid.x, parallel_pois[i].centroid.x);
    EXPECT_EQ(serial_pois[i].centroid.y, parallel_pois[i].centroid.y);
    EXPECT_EQ(serial_pois[i].visits, parallel_pois[i].visits);
    EXPECT_EQ(serial_pois[i].total_dwell_s, parallel_pois[i].total_dwell_s);
  }
}

// ---- Ingestion determinism -------------------------------------------------
// Same bytes in -> byte-identical Dataset out, whatever the worker count,
// chunk count or shard count. The CSV fixture deliberately interleaves
// users, mixes line terminators and varies the trailing newline.

/// A CSV whose rows interleave users and whose size forces multi-chunk
/// parses even at tiny chunk bounds.
std::string FixtureCsv(bool crlf, bool trailing_newline) {
  std::ostringstream os;
  os << "user,lat,lng,timestamp" << (crlf ? "\r\n" : "\n");
  const char* eol = crlf ? "\r\n" : "\n";
  for (int i = 0; i < 500; ++i) {
    const int user = i % 7;
    os << "u" << user << "," << (45.0 + 0.001 * (i % 100)) << ","
       << (4.0 + 0.0007 * (i % 130)) << "," << (1000000 + i * 13) << eol;
    if (i % 41 == 0) os << eol;  // occasional blank line
  }
  std::string text = os.str();
  if (!trailing_newline) {
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
  }
  return text;
}

TEST(IngestionDeterminism, CsvIsWorkerAndChunkCountInvariant) {
  for (const bool crlf : {false, true}) {
    for (const bool trailing : {true, false}) {
      const std::string text = FixtureCsv(crlf, trailing);
      model::Dataset reference;
      {
        const util::ScopedParallelism one(1);
        reference = model::ReadCsvText(text);
      }
      ASSERT_GT(reference.EventCount(), 0u);
      {
        const util::ScopedParallelism four(4);
        ExpectDatasetsIdentical(reference, model::ReadCsvText(text));
        // Tiny chunk bounds force many chunks (and chunk boundaries that
        // would split rows, which must slide to the newline).
        for (const std::size_t max_chunks : {1u, 3u, 8u, 64u}) {
          ExpectDatasetsIdentical(
              reference,
              model::ReadCsvTextChunked(text, max_chunks, /*min=*/64));
        }
      }
      // The streaming single-pass reader must agree with the chunked one.
      std::istringstream in(text);
      ExpectDatasetsIdentical(reference, model::ReadCsvStreaming(in));
    }
  }
}

TEST(IngestionDeterminism, ShardCountNeverChangesTheDataset) {
  const std::string text = FixtureCsv(false, true);
  const model::Dataset dataset = model::ReadCsvText(text);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mobipriv_shard_count_" + std::to_string(::getpid()));
  for (const std::size_t shards : {1u, 3u, 8u}) {
    for (const std::size_t threads : {1u, 4u}) {
      const util::ScopedParallelism scope(threads);
      std::filesystem::remove_all(dir);
      model::ShardedDataset::Partition(dataset, shards)
          .SaveShards(dir.string());
      ExpectDatasetsIdentical(
          dataset, core::BoundSource::Bind(
                       core::DatasetSourceSpec::ShardDir(dir.string()))
                       .view()
                       .Materialize());
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(IngestionDeterminism, MalformedRowReportsSameRowAtAnyChunking) {
  // Break one row deep in the fixture; every chunking must throw the same
  // row-numbered error the serial reader produces.
  std::string text = FixtureCsv(false, true);
  const std::string needle = "u3,";
  const std::size_t hit = text.rfind(needle);
  ASSERT_NE(hit, std::string::npos);
  text.replace(hit, needle.size(), "u3;");  // now a 3-field row
  std::string serial_error;
  try {
    std::istringstream in(text);
    (void)model::ReadCsvStreaming(in);
    FAIL() << "expected IoError";
  } catch (const model::IoError& e) {
    serial_error = e.what();
  }
  EXPECT_NE(serial_error.find("row "), std::string::npos);
  for (const std::size_t max_chunks : {1u, 5u, 32u}) {
    try {
      (void)model::ReadCsvTextChunked(text, max_chunks, /*min=*/64);
      FAIL() << "expected IoError at max_chunks=" << max_chunks;
    } catch (const model::IoError& e) {
      EXPECT_EQ(serial_error, e.what()) << "max_chunks=" << max_chunks;
    }
  }
}

TEST(IngestionDeterminism, RowSplitAcrossChunkBoundaryCases) {
  // Adversarial small inputs parsed at 1-byte chunk granularity: every
  // possible boundary is exercised, including CRLF pairs and a final row
  // with no terminator.
  const std::string cases[] = {
      "a,45.0,4.0,1\nb,45.0,4.0,2\n",
      "a,45.0,4.0,1\r\nb,45.0,4.0,2\r\n",
      "a,45.0,4.0,1\nb,45.0,4.0,2",
      "user,lat,lng,timestamp\na,45.0,4.0,1\n\na,45.0,4.0,2\n",
      "\n\nuser,lat,lng,timestamp\r\na,45.0,4.0,1\r\n",
  };
  for (const std::string& text : cases) {
    std::istringstream in(text);
    const model::Dataset reference = model::ReadCsvStreaming(in);
    for (const std::size_t max_chunks : {1u, 2u, 1000u}) {
      ExpectDatasetsIdentical(
          reference, model::ReadCsvTextChunked(text, max_chunks, /*min=*/1));
    }
  }
}

TEST(IngestionDeterminism, GeolifeLoadIsWorkerCountInvariant) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("mobipriv_determinism_geolife_" + std::to_string(::getpid()));
  fs::remove_all(root);
  const char* header =
      "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
      "0,2,255,My Track,0,0,2,8421376\n0\n";
  for (int user = 0; user < 5; ++user) {
    for (int file = 0; file < 3; ++file) {
      const fs::path dir =
          root / ("00" + std::to_string(user)) / "Trajectory";
      fs::create_directories(dir);
      std::ofstream out(dir / ("2009042" + std::to_string(file) + ".plt"));
      out << header;
      for (int row = 0; row < 40; ++row) {
        out << (39.9 + 0.001 * row) << "," << (116.3 + 0.002 * row)
            << ",0,492,39925.44,2009-04-2" << file << ",10:34:"
            << (10 + row) % 60 << "\n";
      }
    }
  }
  model::Dataset serial;
  {
    const util::ScopedParallelism one(1);
    serial = model::LoadGeolife(root.string());
  }
  ASSERT_EQ(serial.TraceCount(), 15u);
  {
    const util::ScopedParallelism four(4);
    ExpectDatasetsIdentical(serial, model::LoadGeolife(root.string()));
  }
  fs::remove_all(root);
}

TEST(ParallelDeterminism, ParallelForCoversEveryIndexOnce) {
  const util::ScopedParallelism eight(8);
  std::vector<std::atomic<int>> hits(10000);
  util::ParallelForEach(hits.size(),
                        [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelDeterminism, ParallelForPropagatesExceptions) {
  const util::ScopedParallelism eight(8);
  EXPECT_THROW(
      util::ParallelForEach(1000,
                            [](std::size_t i) {
                              if (i == 517) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
}

// ---- Nested fan-out: ParallelFor called on a pool worker -------------------
// A scenario DAG node runs on a pool worker, and its kernels' ParallelFor
// calls must still spread over idle workers. Only calls made inside a
// chunk body stay inline.

constexpr auto kFanOutBound = std::chrono::seconds(10);
/// How long a test waits for its pool tasks. A task still running then is
/// deadlocked; the test aborts, because the pool's destructor would join
/// the stuck worker and hang the binary at exit.
constexpr auto kTaskBound = std::chrono::seconds(60);

/// Runs `task` on a pool worker and returns its result.
template <typename Result>
Result RunOnPoolWorker(std::function<Result()> task) {
  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> future = promise->get_future();
  util::ThreadPool::Global().Submit([promise, task = std::move(task)] {
    try {
      promise->set_value(task());
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  if (future.wait_for(kTaskBound) != std::future_status::ready) {
    ADD_FAILURE() << "pool task still running after " << kTaskBound.count()
                  << " s";
    std::abort();
  }
  return future.get();
}

TEST(NestedParallelism, PoolWorkerParallelForFansOut) {
  const util::ScopedParallelism four(4);
  // Each chunk records its thread and then waits, at most kFanOutBound,
  // until a second thread has entered a chunk of the same call. When the
  // worker ran the call inline, the first chunk gives up after the bound
  // and the rest see the flag and do not wait again.
  const std::size_t distinct = RunOnPoolWorker<std::size_t>([] {
    std::mutex mutex;
    std::condition_variable entered;
    std::set<std::thread::id> threads;
    bool gave_up = false;
    util::ParallelForEach(64, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
      entered.notify_all();
      if (!entered.wait_for(lock, kFanOutBound, [&] {
            return threads.size() >= 2 || gave_up;
          })) {
        gave_up = true;
      }
    });
    return threads.size();
  });
  EXPECT_GE(distinct, 2u) << "every chunk ran on the submitting worker";
}

TEST(NestedParallelism, SaturatedPoolKeepsChunkCallsInlineAndFinishes) {
  const util::ScopedParallelism four(4);
  constexpr std::size_t kOuter = 32;
  constexpr std::size_t kInner = 16;
  const std::size_t tasks = 4 * util::ThreadPool::Global().WorkerCount();

  struct Task {
    std::vector<std::atomic<int>> hits =
        std::vector<std::atomic<int>>(kOuter * kInner);
    std::atomic<bool> inner_left_thread{false};
  };
  std::vector<std::shared_ptr<Task>> states;
  std::vector<std::future<void>> done;
  for (std::size_t t = 0; t < tasks; ++t) {
    auto state = std::make_shared<Task>();
    auto promise = std::make_shared<std::promise<void>>();
    done.push_back(promise->get_future());
    states.push_back(state);
    util::ThreadPool::Global().Submit([state, promise] {
      util::ParallelForEach(kOuter, [&](std::size_t outer) {
        const std::thread::id chunk_thread = std::this_thread::get_id();
        util::ParallelForEach(kInner, [&](std::size_t inner) {
          if (std::this_thread::get_id() != chunk_thread) {
            state->inner_left_thread.store(true);
          }
          state->hits[outer * kInner + inner].fetch_add(1);
        });
      });
      promise->set_value();
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + kTaskBound;
  for (std::size_t t = 0; t < tasks; ++t) {
    if (done[t].wait_until(deadline) != std::future_status::ready) {
      ADD_FAILURE() << "task " << t << " of " << tasks << " never finished";
      std::abort();
    }
  }
  for (std::size_t t = 0; t < tasks; ++t) {
    EXPECT_FALSE(states[t]->inner_left_thread.load()) << "task " << t;
    for (std::size_t i = 0; i < kOuter * kInner; ++i) {
      ASSERT_EQ(states[t]->hits[i].load(), 1) << "task " << t << " index "
                                              << i;
    }
  }
}

TEST(NestedParallelism, ChunkExceptionOnPoolWorkerReachesOnlyItsCall) {
  const util::ScopedParallelism four(4);
  // A second pool task runs its own calls while the first one throws:
  // the exception must not leak into it.
  auto bystander = std::async(std::launch::async, [] {
    return RunOnPoolWorker<long>([] {
      long sum = 0;
      for (int round = 0; round < 20; ++round) {
        std::vector<long> values(2000);
        util::ParallelForEach(values.size(), [&](std::size_t i) {
          values[i] = static_cast<long>(i);
        });
        for (const long v : values) sum += v;
      }
      return sum;
    });
  });
  const std::string outcome = RunOnPoolWorker<std::string>([] {
    std::string caught;
    try {
      util::ParallelForEach(1000, [](std::size_t i) {
        if (i == 517) throw std::runtime_error("boom");
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    // The same worker's next call still covers every index once.
    std::vector<std::atomic<int>> hits(1000);
    util::ParallelForEach(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (hits[i].load() != 1) return "index " + std::to_string(i);
    }
    return caught;
  });
  EXPECT_EQ(outcome, "boom");
  EXPECT_EQ(bystander.get(), 20L * (1999L * 2000L / 2));
}

// ---- Byte identity of the grids whose nodes now fan out --------------------

/// A dense little city: enough encounters for mix zones to form.
const model::Dataset& GridWorld() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 60;
    config.days = 1;
    config.seed = 6;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

/// The report CSV followed by every terminal store's `.mpc` bytes.
std::string GridBytes(core::ScenarioSpec spec, std::size_t threads) {
  spec.threads = threads;
  core::ScenarioEngine engine(std::move(spec));
  std::vector<model::EventStore> terminals;
  const core::Report report = engine.Run(&terminals);
  EXPECT_TRUE(report.AllOk()) << "threads=" << threads;
  std::string bytes = report.ToCsv();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("mobipriv_grid_bytes_" + std::to_string(::getpid()) + ".mpc");
  for (const model::EventStore& terminal : terminals) {
    EXPECT_GT(terminal.EventCount(), 0u);
    model::WriteColumnar(terminal, path.string());
    std::ifstream in(path, std::ios::binary);
    bytes.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::filesystem::remove(path);
  return bytes;
}

void ExpectGridThreadInvariant(const core::ScenarioSpec& spec) {
  const std::string serial = GridBytes(spec, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_TRUE(GridBytes(spec, threads) == serial) << "threads=" << threads;
  }
}

TEST(GridDeterminism, PublishGridIsThreadCountInvariant) {
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(GridWorld());
  spec.mechanisms = {"ours[speed+mix,eps=100m,r=150m,w=600s]"};
  spec.evaluators = {"poi_attack", "certification", "spatial_distortion"};
  spec.seeds = {4};
  ExpectGridThreadInvariant(spec);
}

TEST(GridDeterminism, SharedPrefixChainGridIsThreadCountInvariant) {
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(GridWorld());
  spec.mechanisms = {"geo_ind[eps=0.05]|downsampling[dt=120]|mixzone[r=100m]",
                     "geo_ind[eps=0.05]|downsampling[dt=120]|cloaking"};
  spec.evaluators = {"spatial_distortion", "coverage"};
  spec.seeds = {4};
  ExpectGridThreadInvariant(spec);
}

}  // namespace
}  // namespace mobipriv
