#include "core/scenario.h"

#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "model/io.h"
#include "synth/population.h"
#include "util/fault.h"
#include "util/spec.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv::core {

BoundSource::BoundSource(BoundSource&&) noexcept = default;
BoundSource& BoundSource::operator=(BoundSource&&) noexcept = default;
BoundSource::~BoundSource() = default;

DatasetSourceSpec DatasetSourceSpec::CsvFile(std::string path) {
  DatasetSourceSpec spec;
  spec.kind = Kind::kCsvFile;
  spec.path = std::move(path);
  return spec;
}

DatasetSourceSpec DatasetSourceSpec::ColumnarFile(std::string path) {
  DatasetSourceSpec spec;
  spec.kind = Kind::kColumnarFile;
  spec.path = std::move(path);
  return spec;
}

DatasetSourceSpec DatasetSourceSpec::ShardDir(std::string path) {
  DatasetSourceSpec spec;
  spec.kind = Kind::kShardDir;
  spec.path = std::move(path);
  return spec;
}

DatasetSourceSpec DatasetSourceSpec::Synthetic(std::size_t agents,
                                               std::size_t days,
                                               std::uint64_t world_seed) {
  DatasetSourceSpec spec;
  spec.kind = Kind::kSynthetic;
  spec.agents = agents;
  spec.days = days;
  spec.world_seed = world_seed;
  return spec;
}

DatasetSourceSpec DatasetSourceSpec::Borrowed(const model::Dataset& dataset) {
  DatasetSourceSpec spec;
  spec.kind = Kind::kBorrowed;
  spec.borrowed = &dataset;
  return spec;
}

DatasetSourceSpec DatasetSourceSpec::FromPath(std::string path) {
  namespace fs = std::filesystem;
  if (fs::is_directory(path) && fs::exists(fs::path(path) / "manifest.mpm")) {
    return ShardDir(std::move(path));
  }
  if (model::IsColumnarPath(path)) return ColumnarFile(std::move(path));
  return CsvFile(std::move(path));
}

std::string DatasetSourceSpec::Describe() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kCsvFile:
      return "csv:" + path;
    case Kind::kColumnarFile:
      return "mpc:" + path;
    case Kind::kShardDir:
      return "shards:" + path;
    case Kind::kSynthetic:
      return "synth:agents=" + std::to_string(agents) +
             ",days=" + std::to_string(days) +
             ",seed=" + std::to_string(world_seed);
    case Kind::kBorrowed:
      return "borrowed";
  }
  return "unknown";
}

util::Rng StageStream(std::uint64_t seed, std::string_view prefix_name) {
  return util::Rng(util::DeriveStreamSeed(
      seed, model::Fnv1a64(prefix_name.data(), prefix_name.size()), 0));
}

namespace {

[[noreturn]] void SweepError(const std::string& context, std::size_t line,
                             const std::string& what) {
  throw util::SpecError("sweep config " + context + ", line " +
                        std::to_string(line) + ": " + what);
}

/// "synth:agents=A,days=D,seed=S" (the Describe() rendering; every
/// parameter optional) or any path DatasetSourceSpec::FromPath accepts.
DatasetSourceSpec ParseSourceValue(std::string_view value,
                                   const std::string& context,
                                   std::size_t line) {
  if (!util::StartsWith(value, "synth:")) {
    return DatasetSourceSpec::FromPath(std::string(value));
  }
  DatasetSourceSpec spec;
  spec.kind = DatasetSourceSpec::Kind::kSynthetic;
  for (const std::string& param :
       util::Split(value.substr(std::string_view("synth:").size()), ',')) {
    const std::string_view trimmed = util::Trim(param);
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    const std::string_view key = trimmed.substr(0, eq);
    const auto number =
        eq == std::string_view::npos
            ? std::nullopt
            : util::ParseInt(util::Trim(trimmed.substr(eq + 1)));
    if (!number || *number < 0) {
      SweepError(context, line,
                 "synth parameter \"" + std::string(trimmed) +
                     "\" is not key=<non-negative integer>");
    }
    if (key == "agents") {
      spec.agents = static_cast<std::size_t>(*number);
    } else if (key == "days") {
      spec.days = static_cast<std::size_t>(*number);
    } else if (key == "seed") {
      spec.world_seed = static_cast<std::uint64_t>(*number);
    } else {
      SweepError(context, line,
                 "unknown synth parameter \"" + std::string(key) +
                     "\" (expected agents, days, seed)");
    }
  }
  return spec;
}

/// Top-level comma list ("a[x=1,y=2]|b, c" -> {"a[x=1,y=2]|b", "c"}):
/// commas inside brackets belong to spec parameters, not the list.
std::vector<std::string> ParseListValue(std::string_view value,
                                        const std::string& context,
                                        std::size_t line) {
  std::vector<std::string> items;
  for (const std::string& piece : util::SplitTopLevel(value, ',')) {
    const std::string_view trimmed = util::Trim(piece);
    if (trimmed.empty()) {
      SweepError(context, line, "empty list entry");
    }
    items.emplace_back(trimmed);
  }
  return items;
}

std::int64_t ParseIntValue(std::string_view value, const std::string& context,
                           std::size_t line, const std::string& key) {
  const auto number = util::ParseInt(value);
  if (!number || *number < 0) {
    SweepError(context, line,
               key + " = \"" + std::string(value) +
                   "\" is not a non-negative integer");
  }
  return *number;
}

}  // namespace

ScenarioSpec ParseSweepConfig(std::string_view text,
                              const std::string& context) {
  ScenarioSpec spec;
  spec.seeds.clear();
  std::istringstream lines{std::string(text)};
  std::string raw_line;
  std::size_t line_number = 0;
  while (std::getline(lines, raw_line)) {
    ++line_number;
    std::string_view line = raw_line;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = util::Trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      SweepError(context, line_number,
                 "expected key = value, got \"" + std::string(line) + "\"");
    }
    const std::string key{util::Trim(line.substr(0, eq))};
    const std::string_view value = util::Trim(line.substr(eq + 1));
    if (key.empty()) SweepError(context, line_number, "empty key");
    if (value.empty()) {
      SweepError(context, line_number, "empty value for key \"" + key + "\"");
    }
    if (key == "source") {
      spec.source = ParseSourceValue(value, context, line_number);
    } else if (key == "mechanism" || key == "mechanisms") {
      for (std::string& item : ParseListValue(value, context, line_number)) {
        spec.mechanisms.push_back(std::move(item));
      }
    } else if (key == "evaluator" || key == "evaluators") {
      for (std::string& item : ParseListValue(value, context, line_number)) {
        spec.evaluators.push_back(std::move(item));
      }
    } else if (key == "seeds") {
      for (const std::string& item :
           ParseListValue(value, context, line_number)) {
        spec.seeds.push_back(static_cast<std::uint64_t>(
            ParseIntValue(item, context, line_number, "seeds entry")));
      }
    } else if (key == "threads") {
      spec.threads = static_cast<std::size_t>(
          ParseIntValue(value, context, line_number, key));
    } else if (key == "workers") {
      spec.workers = static_cast<std::size_t>(
          ParseIntValue(value, context, line_number, key));
    } else if (key == "cache_dir") {
      spec.mechanism_cache_dir = std::string(value);
    } else if (key == "cache_max_bytes") {
      spec.mechanism_cache_max_bytes = static_cast<std::uint64_t>(
          ParseIntValue(value, context, line_number, key));
    } else if (key == "node_timeout_ms") {
      const auto number = util::ParseDouble(value);
      if (!number || *number < 0.0) {
        SweepError(context, line_number,
                   "node_timeout_ms = \"" + std::string(value) +
                       "\" is not a non-negative number");
      }
      spec.node_timeout_ms = *number;
    } else {
      SweepError(context, line_number,
                 "unknown key \"" + key +
                     "\" (expected source, mechanisms, evaluators, seeds, "
                     "threads, workers, cache_dir, cache_max_bytes, "
                     "node_timeout_ms)");
    }
  }
  // A grid scores its cells; one with nothing to score is a typo (the
  // engine itself accepts it, for callers that keep the outputs).
  if (spec.evaluators.empty()) {
    throw util::SpecError("sweep config " + context +
                          ": scenario has no evaluators");
  }
  if (spec.seeds.empty()) spec.seeds = {1};
  return spec;
}

ScenarioSpec LoadSweepConfig(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw model::IoError("cannot open sweep config: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseSweepConfig(buffer.str(), path);
}

namespace {

/// A shard directory as its one reader leaves it: the plan tables plus
/// every shard file, mapped.
struct ShardDirRead {
  ShardStreamPlan plan;
  std::vector<model::MappedColumnar> shards;
};

/// The only reader of a SaveShards directory: reads the manifest, maps
/// every shard, builds each shard's local -> global user table once and
/// fixes every trace's canonical position — the manifest's recorded
/// origin, or shard-major order when it records none. Throws
/// model::IoError on any I/O or consistency problem; a shard file that
/// cannot be mapped is named in the error.
ShardDirRead ReadShardDir(const std::string& dir) {
  model::ShardManifest manifest = model::ReadShardManifest(dir);
  ShardDirRead read;
  ShardStreamPlan& plan = read.plan;
  plan.dir = dir;
  plan.shard_count = manifest.shard_count;
  plan.global_names = std::move(manifest.global_names);

  // Shard files are independent: map them concurrently (the pool rethrows
  // the first failure). Pages still fault lazily.
  read.shards.resize(plan.shard_count);
  util::ParallelForEach(plan.shard_count, [&](std::size_t s) {
    const std::string path = model::ShardDataPath(dir, s);
    if (MOBIPRIV_FAULT_POINT_KEYED(
            util::fault::points::kShardOpenRead,
            std::filesystem::path(path).filename().string())) {
      throw model::IoError(
          "injected fault (" +
          std::string(util::fault::points::kShardOpenRead) + "): " + path);
    }
    read.shards[s] = model::MapColumnar(path);
  });

  std::unordered_map<std::string_view, model::UserId> global_id;
  global_id.reserve(plan.global_names.size());
  for (std::size_t g = 0; g < plan.global_names.size(); ++g) {
    global_id.emplace(plan.global_names[g], static_cast<model::UserId>(g));
  }
  plan.local_to_global.resize(plan.shard_count);
  plan.origin.resize(plan.shard_count);
  for (std::size_t s = 0; s < plan.shard_count; ++s) {
    const model::MappedColumnar& mapped = read.shards[s];
    std::vector<model::UserId>& l2g = plan.local_to_global[s];
    l2g.resize(mapped.names().size());
    for (std::size_t u = 0; u < l2g.size(); ++u) {
      const auto it = global_id.find(mapped.names()[u]);
      if (it == global_id.end()) {
        throw model::IoError("shard " + std::to_string(s) + " in " + dir +
                             " holds a user missing from the manifest");
      }
      l2g[u] = it->second;
    }
    // The manifest validated its origin as a permutation of [0, its total);
    // matching every run to its shard's trace count makes it one of
    // [0, total_traces).
    std::vector<std::size_t>& position = plan.origin[s];
    if (manifest.has_origin()) {
      if (manifest.origin[s].size() != mapped.TraceCount()) {
        throw model::IoError("shard manifest in " + dir +
                             ": origin run disagrees with shard " +
                             std::to_string(s));
      }
      position = std::move(manifest.origin[s]);
    } else {
      position.resize(mapped.TraceCount());
      std::iota(position.begin(), position.end(), plan.total_traces);
    }
    plan.total_traces += mapped.TraceCount();
  }
  return read;
}

}  // namespace

std::optional<ShardStreamPlan> ProbeShardStream(const std::string& dir) {
  try {
    ShardDirRead read = ReadShardDir(dir);
    const ShardStreamPlan& plan = read.plan;
    // Home shard of each global user (or kUnseen until first sighted).
    constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
    std::vector<std::size_t> home(plan.global_names.size(), kUnseen);
    for (std::size_t s = 0; s < plan.shard_count; ++s) {
      const model::MappedColumnar& mapped = read.shards[s];
      for (std::size_t i = 0; i < mapped.TraceCount(); ++i) {
        if (i > 0 && plan.origin[s][i] <= plan.origin[s][i - 1]) {
          return std::nullopt;  // not canonical-order restricted
        }
        const model::UserId g =
            plan.local_to_global[s][mapped.TraceUser(i)];
        if (home[g] == kUnseen) {
          home[g] = s;
        } else if (home[g] != s) {
          return std::nullopt;  // user split across shards
        }
      }
    }
    return std::move(read.plan);
  } catch (...) {
    return std::nullopt;
  }
}

std::vector<model::TraceView> GlobalShardViews(
    const ShardStreamPlan& plan, std::size_t shard,
    const model::MappedColumnar& mapped) {
  if (mapped.TraceCount() != plan.origin[shard].size()) {
    throw model::IoError("shard trace count does not match manifest: " +
                         model::ShardDataPath(plan.dir, shard));
  }
  const std::vector<model::UserId>& l2g = plan.local_to_global[shard];
  std::vector<model::TraceView> views(mapped.TraceCount());
  for (std::size_t i = 0; i < views.size(); ++i) {
    views[i] = mapped.View(i).WithUser(l2g[mapped.TraceUser(i)]);
  }
  return views;
}

BoundSource BoundSource::Bind(const DatasetSourceSpec& spec) {
  BoundSource source;
  source.description_ = spec.Describe();
  switch (spec.kind) {
    case DatasetSourceSpec::Kind::kNone:
      throw model::IoError("scenario source is unset (Kind::kNone)");
    case DatasetSourceSpec::Kind::kCsvFile:
      source.owned_ = model::ReadCsvFile(spec.path);
      source.view_ = model::DatasetView(source.owned_);
      break;
    case DatasetSourceSpec::Kind::kColumnarFile:
      // Zero-copy: every downstream view aliases the read-only mapping.
      source.mapped_ = model::MapColumnar(spec.path);
      source.view_ = source.mapped_.View();
      break;
    case DatasetSourceSpec::Kind::kShardDir: {
      ShardDirRead read = ReadShardDir(spec.path);
      const ShardStreamPlan& plan = read.plan;
      std::vector<model::TraceView> traces(plan.total_traces);
      for (std::size_t s = 0; s < plan.shard_count; ++s) {
        const std::vector<model::TraceView> views =
            GlobalShardViews(plan, s, read.shards[s]);
        for (std::size_t i = 0; i < views.size(); ++i) {
          traces[plan.origin[s][i]] = views[i];
        }
      }
      source.shard_maps_ = std::move(read.shards);
      source.shard_names_ = std::move(read.plan.global_names);
      source.view_ = model::DatasetView(std::move(traces),
                                        source.shard_names_.size(),
                                        source.shard_names_);
      break;
    }
    case DatasetSourceSpec::Kind::kSynthetic: {
      synth::PopulationConfig config;
      config.agents = spec.agents;
      config.days = spec.days;
      config.seed = spec.world_seed;
      source.world_ = std::make_unique<synth::SyntheticWorld>(config);
      source.view_ = model::DatasetView(source.world_->dataset());
      break;
    }
    case DatasetSourceSpec::Kind::kBorrowed:
      if (spec.borrowed == nullptr) {
        throw model::IoError("borrowed scenario source is null");
      }
      source.view_ = model::DatasetView(*spec.borrowed);
      break;
  }
  return source;
}

}  // namespace mobipriv::core
