#include "model/stats.h"

#include <cmath>
#include <sstream>

#include "geo/distance.h"

namespace mobipriv::model {

std::vector<double> InterEventDistances(const TraceView& trace) {
  std::vector<double> out;
  if (trace.size() < 2) return out;
  out.reserve(trace.size() - 1);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    out.push_back(
        geo::HaversineDistance(trace.position(i - 1), trace.position(i)));
  }
  return out;
}

std::vector<double> InterEventIntervals(const TraceView& trace) {
  std::vector<double> out;
  if (trace.size() < 2) return out;
  out.reserve(trace.size() - 1);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    out.push_back(static_cast<double>(trace.time(i) - trace.time(i - 1)));
  }
  return out;
}

std::vector<double> SpeedProfile(const TraceView& trace) {
  std::vector<double> out;
  if (trace.size() < 2) return out;
  out.reserve(trace.size() - 1);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const auto dt = trace.time(i) - trace.time(i - 1);
    if (dt <= 0) {
      out.push_back(0.0);
      continue;
    }
    const double dist =
        geo::HaversineDistance(trace.position(i - 1), trace.position(i));
    out.push_back(dist / static_cast<double>(dt));
  }
  return out;
}

double SpeedCoefficientOfVariation(const TraceView& trace) {
  const auto speeds = SpeedProfile(trace);
  if (speeds.size() < 2) return 0.0;
  util::RunningStat rs;
  for (const double s : speeds) rs.Add(s);
  if (rs.Mean() <= 0.0) return 0.0;
  return rs.Stddev() / rs.Mean();
}

DatasetStats ComputeDatasetStats(const DatasetView& dataset) {
  DatasetStats stats;
  stats.users = dataset.UserCount();
  stats.traces = dataset.TraceCount();
  stats.events = dataset.EventCount();
  std::vector<double> durations;
  std::vector<double> lengths;
  std::vector<double> counts;
  std::vector<double> speeds;
  for (const auto& trace : dataset.traces()) {
    durations.push_back(static_cast<double>(trace.Duration()));
    lengths.push_back(trace.LengthMeters());
    counts.push_back(static_cast<double>(trace.size()));
    for (const double s : SpeedProfile(trace)) speeds.push_back(s);
  }
  stats.trace_duration_s = util::Summary::Of(durations);
  stats.trace_length_m = util::Summary::Of(lengths);
  stats.trace_events = util::Summary::Of(counts);
  stats.speed_mps = util::Summary::Of(speeds);
  return stats;
}

std::string DatasetStats::ToString() const {
  std::ostringstream os;
  os << "users=" << users << " traces=" << traces << " events=" << events
     << "\n  duration[s]: " << trace_duration_s.ToString()
     << "\n  length[m]:   " << trace_length_m.ToString()
     << "\n  events:      " << trace_events.ToString()
     << "\n  speed[m/s]:  " << speed_mps.ToString();
  return os.str();
}

}  // namespace mobipriv::model
