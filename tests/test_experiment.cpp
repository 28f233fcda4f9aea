#include "core/experiment.h"

#include <gtest/gtest.h>

#include "mechanisms/registry.h"

namespace mobipriv::core {
namespace {

TEST(Table, AlignedRendering) {
  Table table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "2"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("longer-name"), std::string::npos);
  EXPECT_NE(rendered.find("---"), std::string::npos);
  // All data lines have the same width (alignment).
  std::size_t line_start = 0;
  std::vector<std::size_t> lengths;
  for (std::size_t i = 0; i <= rendered.size(); ++i) {
    if (i == rendered.size() || rendered[i] == '\n') {
      if (i > line_start) lengths.push_back(i - line_start);
      line_start = i + 1;
    }
  }
  ASSERT_GE(lengths.size(), 4u);
  EXPECT_EQ(lengths[0], lengths[2]);
  EXPECT_EQ(lengths[2], lengths[3]);
}

TEST(Table, ShortRowsPadded) {
  Table table({"a", "b", "c"});
  table.AddRow({"only-one"});
  const std::string csv = table.ToCsv();
  EXPECT_EQ(csv, "a,b,c\nonly-one,,\n");
}

TEST(Table, ToCsvQuotesRfc4180) {
  Table table({"mechanism", "note"});
  // Mechanism spec strings contain commas; quotes and newlines must
  // survive a round trip through any CSV reader too.
  table.AddRow({"geo_ind[eps=0.001,0.01]", "plain"});
  table.AddRow({"say \"hi\"", "line\nbreak"});
  const std::string csv = table.ToCsv();
  EXPECT_EQ(csv,
            "mechanism,note\n"
            "\"geo_ind[eps=0.001,0.01]\",plain\n"
            "\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(TimeMs, MeasuresSomething) {
  const double ms = TimeMs([] {
    // Unsigned: the sum wraps (sum of 0..99999 overflows 32 bits), and
    // signed wrap-around is UB the sanitizer job rightly rejects.
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 100000; ++i) sink += i;
  });
  EXPECT_GE(ms, 0.0);
  EXPECT_LT(ms, 10000.0);
}

TEST(StandardRoster, ContainsExpectedMechanisms) {
  const auto specs = StandardRosterSpecs({0.01});
  // identity + ours x3 + geo_ind x1 + w4m + cloaking + gaussian + downsample.
  EXPECT_EQ(specs.size(), 9u);
  std::vector<std::string> names;
  for (const auto& spec : specs) {
    names.push_back(mech::CreateMechanism(spec)->Name());
  }
  EXPECT_EQ(names.front(), "identity");
  bool has_full = false;
  bool has_geo = false;
  for (const auto& name : names) {
    if (name == "ours[speed+mix]") has_full = true;
    if (name.starts_with("geo_ind")) has_geo = true;
  }
  EXPECT_TRUE(has_full);
  EXPECT_TRUE(has_geo);
}

TEST(StandardRoster, EpsilonSweepSize) {
  EXPECT_EQ(StandardRosterSpecs({0.001, 0.01, 0.1}).size(), 11u);
}

TEST(StandardRoster, IsACannedSpecList) {
  // The roster is spec strings over the mechanism registry: every entry
  // builds, and the canonical entries lead.
  const auto specs = StandardRosterSpecs({0.01});
  for (const auto& spec : specs) {
    EXPECT_NE(mech::CreateMechanism(spec), nullptr) << spec;
  }
  EXPECT_EQ(specs.front(), "identity");
  EXPECT_EQ(specs[1], "ours[speed+mix]");
}

}  // namespace
}  // namespace mobipriv::core
