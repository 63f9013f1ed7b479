#include "telemetry/trace_io.h"

#include <array>
#include <charconv>
#include <fstream>
#include <string_view>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace incast::telemetry {

namespace {

constexpr const char* kHeader = "bin,bytes,marked_bytes,retx_bytes,corrupt_bytes,active_flows";
// Pre-fault-injection traces lack the corrupt_bytes column; still readable.
constexpr const char* kLegacyHeader = "bin,bytes,marked_bytes,retx_bytes,active_flows";

std::int64_t parse_int(std::string_view field, std::size_t line_no) {
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    throw std::runtime_error("trace csv: bad integer '" + std::string(field) +
                             "' on line " + std::to_string(line_no));
  }
  return value;
}

}  // namespace

void write_bins_csv(const std::vector<Millisampler::Bin>& bins, std::ostream& out) {
  out << kHeader << '\n';
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const auto& b = bins[i];
    out << i << ',' << b.bytes << ',' << b.marked_bytes << ',' << b.retx_bytes << ','
        << b.corrupt_bytes << ',' << b.active_flows << '\n';
  }
}

std::vector<Millisampler::Bin> read_bins_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("trace csv: missing or wrong header");
  }
  while (!line.empty() && line.front() == '#') {
    if (!std::getline(in, line)) {
      throw std::runtime_error("trace csv: missing or wrong header");
    }
  }
  std::size_t columns = 0;
  if (line == kHeader) {
    columns = 6;
  } else if (line == kLegacyHeader) {
    columns = 5;
  } else {
    throw std::runtime_error("trace csv: missing or wrong header");
  }

  std::vector<Millisampler::Bin> bins;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    // '#' lines are annotations (e.g. the sweep-quarantine footer the CLI
    // appends after an interrupted export); skip them anywhere.
    if (line.empty() || line.front() == '#') continue;

    std::array<std::string_view, 6> fields;
    std::size_t field_count = 0;
    std::string_view rest{line};
    bool more = true;
    while (more && field_count < columns) {
      const std::size_t comma = rest.find(',');
      fields[field_count++] = rest.substr(0, comma);
      more = comma != std::string_view::npos;
      if (more) rest.remove_prefix(comma + 1);
    }
    if (field_count != columns || more) {
      throw std::runtime_error("trace csv: expected " + std::to_string(columns) +
                               " columns on line " + std::to_string(line_no));
    }

    const auto index = parse_int(fields[0], line_no);
    if (index != static_cast<std::int64_t>(bins.size())) {
      throw std::runtime_error("trace csv: non-contiguous bin index on line " +
                               std::to_string(line_no));
    }
    Millisampler::Bin b;
    b.bytes = parse_int(fields[1], line_no);
    b.marked_bytes = parse_int(fields[2], line_no);
    b.retx_bytes = parse_int(fields[3], line_no);
    if (columns == 6) b.corrupt_bytes = parse_int(fields[4], line_no);
    b.active_flows = static_cast<int>(parse_int(fields[columns - 1], line_no));
    bins.push_back(b);
  }
  return bins;
}

std::vector<Millisampler::Bin> read_bins_csv_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error("trace csv: cannot open " + path);
  }
  return read_bins_csv(in);
}

}  // namespace incast::telemetry
