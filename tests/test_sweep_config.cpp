// The sweep-config file format (`anonymize_csv --sweep`; docs/FORMAT.md,
// "Sweep config files"): field parsing, pinned line-numbered error
// messages, Describe() round-trip of the synth source, and an end-to-end
// scenario run straight from a config text.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/engine.h"
#include "model/io.h"
#include "util/spec.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

std::string ErrorOf(std::string_view text) {
  try {
    (void)core::ParseSweepConfig(text, "cfg");
  } catch (const util::SpecError& e) {
    return e.what();
  }
  return "<accepted>";
}

TEST(SweepConfig, ParsesEveryField) {
  const core::ScenarioSpec spec = core::ParseSweepConfig(
      "# a comment line\n"
      "source = synth:agents=12,days=2,seed=9\n"
      "\n"
      "mechanisms = geo_ind[eps=0.05]|downsampling[dt=120], cloaking\n"
      "mechanism = gaussian   # singular alias appends\n"
      "evaluators = spatial_distortion, certification\n"
      "evaluator = uncertainty\n"
      "seeds = 3, 5\n"
      "threads = 2\n"
      "workers = 4\n"
      "cache_dir = /tmp/sweep-cache\n"
      "cache_max_bytes = 1048576\n"
      "node_timeout_ms = 250.5\n",
      "cfg");

  EXPECT_EQ(spec.source.kind, core::DatasetSourceSpec::Kind::kSynthetic);
  EXPECT_EQ(spec.source.agents, 12u);
  EXPECT_EQ(spec.source.days, 2u);
  EXPECT_EQ(spec.source.world_seed, 9u);
  // The chain entry survives intact: list commas split at top level only.
  ASSERT_EQ(spec.mechanisms.size(), 3u);
  EXPECT_EQ(spec.mechanisms[0], "geo_ind[eps=0.05]|downsampling[dt=120]");
  EXPECT_EQ(spec.mechanisms[1], "cloaking");
  EXPECT_EQ(spec.mechanisms[2], "gaussian");
  ASSERT_EQ(spec.evaluators.size(), 3u);
  EXPECT_EQ(spec.evaluators[2], "uncertainty");
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{3, 5}));
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.workers, 4u);
  EXPECT_EQ(spec.mechanism_cache_dir, "/tmp/sweep-cache");
  EXPECT_EQ(spec.mechanism_cache_max_bytes, 1048576u);
  EXPECT_DOUBLE_EQ(spec.node_timeout_ms, 250.5);
}

TEST(SweepConfig, BracketCommasStayInsideOneListEntry) {
  const core::ScenarioSpec spec = core::ParseSweepConfig(
      "mechanisms = wait4me[k=4,delta=500m], cloaking\n"
      "evaluators = kdelta[delta=500m,grid=60]\n",
      "cfg");
  ASSERT_EQ(spec.mechanisms.size(), 2u);
  EXPECT_EQ(spec.mechanisms[0], "wait4me[k=4,delta=500m]");
  ASSERT_EQ(spec.evaluators.size(), 1u);
  EXPECT_EQ(spec.evaluators[0], "kdelta[delta=500m,grid=60]");
}

TEST(SweepConfig, SeedsDefaultToOneWhenUnset) {
  const core::ScenarioSpec spec = core::ParseSweepConfig(
      "mechanisms = identity\nevaluators = coverage\n", "cfg");
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1}));
}

TEST(SweepConfig, RejectsAGridWithNoEvaluators) {
  // The engine runs evaluator-less specs for callers that keep the
  // outputs; a sweep keeps nothing, so its config must score something.
  // (ErrorOf catches util::SpecError only.)
  EXPECT_EQ(ErrorOf("mechanisms = identity\n"),
            "sweep config cfg: scenario has no evaluators");
}

TEST(SweepConfig, PinnedLineNumberedErrors) {
  EXPECT_EQ(ErrorOf("mechanisms = identity\nnot a key value line\n"),
            "sweep config cfg, line 2: expected key = value, got \"not a "
            "key value line\"");
  EXPECT_EQ(ErrorOf("= identity\n"), "sweep config cfg, line 1: empty key");
  EXPECT_EQ(ErrorOf("\n\nmechanisms =\n"),
            "sweep config cfg, line 3: empty value for key \"mechanisms\"");
  EXPECT_EQ(ErrorOf("mechanisms = identity,,cloaking\n"),
            "sweep config cfg, line 1: empty list entry");
  EXPECT_EQ(ErrorOf("seeds = 3, -1\n"),
            "sweep config cfg, line 1: seeds entry = \"-1\" is not a "
            "non-negative integer");
  EXPECT_EQ(ErrorOf("threads = many\n"),
            "sweep config cfg, line 1: threads = \"many\" is not a "
            "non-negative integer");
  EXPECT_EQ(ErrorOf("node_timeout_ms = -5\n"),
            "sweep config cfg, line 1: node_timeout_ms = \"-5\" is not a "
            "non-negative number");
  EXPECT_EQ(ErrorOf("mechanizms = identity\n"),
            "sweep config cfg, line 1: unknown key \"mechanizms\" (expected "
            "source, mechanisms, evaluators, seeds, threads, workers, "
            "cache_dir, cache_max_bytes, node_timeout_ms)");
  EXPECT_EQ(ErrorOf("source = synth:agents=lots\n"),
            "sweep config cfg, line 1: synth parameter \"agents=lots\" is "
            "not key=<non-negative integer>");
  EXPECT_EQ(ErrorOf("source = synth:population=5\n"),
            "sweep config cfg, line 1: unknown synth parameter "
            "\"population\" (expected agents, days, seed)");
}

TEST(SweepConfig, SynthSourceRoundTripsThroughDescribe) {
  // Describe() prints "synth:agents=A,days=D,seed=S" — feeding it back as
  // the source value must reproduce the same spec.
  core::DatasetSourceSpec source =
      core::DatasetSourceSpec::Synthetic(7, 2, 123);
  const core::ScenarioSpec reparsed = core::ParseSweepConfig(
      "source = " + source.Describe() +
          "\nmechanisms = identity\nevaluators = coverage\n",
      "cfg");
  EXPECT_EQ(reparsed.source.Describe(), source.Describe());
  EXPECT_EQ(reparsed.source.agents, 7u);
  EXPECT_EQ(reparsed.source.days, 2u);
  EXPECT_EQ(reparsed.source.world_seed, 123u);
}

TEST(SweepConfig, LoadThrowsIoErrorOnMissingFile) {
  const std::string path =
      (fs::temp_directory_path() / "mobipriv_no_such_sweep.cfg").string();
  fs::remove(path);
  try {
    (void)core::LoadSweepConfig(path);
    FAIL() << "expected IoError";
  } catch (const model::IoError& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open sweep config: " + path);
  }
}

TEST(SweepConfig, LoadedConfigRunsEndToEndWithPrivacyColumn) {
  const fs::path path =
      fs::temp_directory_path() / "mobipriv_sweep_e2e.cfg";
  {
    std::ofstream out(path);
    out << "source = synth:agents=8,days=1,seed=42\n"
        << "mechanisms = geo_ind[eps=0.05]|downsampling[dt=120]|cloaking\n"
        << "evaluators = spatial_distortion, certification\n"
        << "seeds = 1\n"
        << "threads = 1\n";
  }
  core::ScenarioEngine engine(core::LoadSweepConfig(path.string()));
  const core::Report report = engine.Run();
  EXPECT_TRUE(report.AllOk());
  EXPECT_EQ(engine.stats().mechanism_nodes, 3u);
  // The report carries a privacy column.
  EXPECT_NE(report.ToCsv().find("cert_certified"), std::string::npos);
  fs::remove(path);
}

}  // namespace
}  // namespace mobipriv
