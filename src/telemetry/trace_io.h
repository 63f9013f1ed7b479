// Trace I/O: CSV serialization for Millisampler traces.
//
// The production Millisampler exports its ring buffers for offline
// analysis; this is the equivalent interchange format, so traces can be
// archived, diffed, or analyzed by external tooling (pandas, gnuplot). One
// row per 1 ms bin:
//
//   bin,bytes,marked_bytes,retx_bytes,corrupt_bytes,active_flows
//
// (corrupt_bytes counts checksum-failed frames injected by the fault layer;
// traces written before that column existed are still readable.)
#ifndef INCAST_TELEMETRY_TRACE_IO_H_
#define INCAST_TELEMETRY_TRACE_IO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/millisampler.h"

namespace incast::telemetry {

// Writes bins as CSV (with header) to `out`.
void write_bins_csv(const std::vector<Millisampler::Bin>& bins, std::ostream& out);

// Parses CSV produced by write_bins_csv. Throws std::runtime_error on
// malformed input (wrong header, non-numeric fields, wrong column count).
[[nodiscard]] std::vector<Millisampler::Bin> read_bins_csv(std::istream& in);

// Convenience: reads from a file. Throws std::runtime_error if the file
// cannot be opened or parsed.
[[nodiscard]] std::vector<Millisampler::Bin> read_bins_csv_file(const std::string& path);

}  // namespace incast::telemetry

#endif  // INCAST_TELEMETRY_TRACE_IO_H_
