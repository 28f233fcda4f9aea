#include "core/experiment.h"

#include <algorithm>
#include <sstream>

#include "mechanisms/geo_indistinguishability.h"

namespace mobipriv::core {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) os << ", ";
      os << cells[c];
      os << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << "\n";
  };
  emit(headers_);
  std::size_t total = headers_.size() > 0 ? 2 * (headers_.size() - 1) : 0;
  for (const auto w : widths) total += w;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::ToCsv() const {
  // RFC 4180: quote any cell containing a comma, quote, CR or LF; double
  // embedded quotes.
  const auto escape = [](const std::string& cell) -> std::string {
    if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
    std::string quoted = "\"";
    for (const char ch : cell) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  std::ostringstream os;
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) os << ",";
      os << escape(cells[c]);
    }
    os << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

double TimeMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

std::vector<std::string> StandardRosterSpecs(
    const std::vector<double>& geo_ind_epsilons) {
  std::vector<std::string> specs = {"identity", "ours[speed+mix]",
                                    "ours[speed]", "ours[mix]"};
  for (const double eps : geo_ind_epsilons) {
    specs.push_back(mech::GeoIndistinguishability({eps}).Name());
  }
  specs.insert(specs.end(), {"wait4me", "cloaking", "gaussian",
                             "downsampling"});
  return specs;
}

}  // namespace mobipriv::core
