// Tests for Millisampler trace CSV serialization.
#include "telemetry/trace_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace incast::telemetry {
namespace {

std::vector<Millisampler::Bin> sample_bins() {
  std::vector<Millisampler::Bin> bins(3);
  bins[0] = {.bytes = 1'250'000, .marked_bytes = 600'000, .retx_bytes = 0, .active_flows = 212};
  bins[1] = {.bytes = 0, .marked_bytes = 0, .retx_bytes = 0, .active_flows = 0};
  bins[2] = {.bytes = 90'000, .marked_bytes = 0, .retx_bytes = 1'500, .corrupt_bytes = 3'000,
             .active_flows = 7};
  return bins;
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  const auto bins = sample_bins();
  std::stringstream ss;
  write_bins_csv(bins, ss);
  const auto parsed = read_bins_csv(ss);
  ASSERT_EQ(parsed.size(), bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    EXPECT_EQ(parsed[i].bytes, bins[i].bytes);
    EXPECT_EQ(parsed[i].marked_bytes, bins[i].marked_bytes);
    EXPECT_EQ(parsed[i].retx_bytes, bins[i].retx_bytes);
    EXPECT_EQ(parsed[i].corrupt_bytes, bins[i].corrupt_bytes);
    EXPECT_EQ(parsed[i].active_flows, bins[i].active_flows);
  }
}

TEST(TraceIo, WritesExpectedFormat) {
  std::stringstream ss;
  write_bins_csv(sample_bins(), ss);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "bin,bytes,marked_bytes,retx_bytes,corrupt_bytes,active_flows");
  std::getline(ss, line);
  EXPECT_EQ(line, "0,1250000,600000,0,0,212");
}

TEST(TraceIo, ReadsLegacyHeaderWithoutCorruptColumn) {
  // Traces exported before corrupt_bytes existed stay loadable; the missing
  // column reads back as zero.
  std::stringstream ss{
      "bin,bytes,marked_bytes,retx_bytes,active_flows\n"
      "0,1250000,600000,0,212\n"
      "1,90000,0,1500,7\n"};
  const auto parsed = read_bins_csv(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].bytes, 1'250'000);
  EXPECT_EQ(parsed[0].corrupt_bytes, 0);
  EXPECT_EQ(parsed[1].retx_bytes, 1'500);
  EXPECT_EQ(parsed[1].active_flows, 7);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_bins_csv({}, ss);
  EXPECT_TRUE(read_bins_csv(ss).empty());
}

TEST(TraceIo, RejectsWrongHeader) {
  std::stringstream ss{"time,bytes\n0,1\n"};
  EXPECT_THROW((void)read_bins_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsMissingColumns) {
  std::stringstream ss{"bin,bytes,marked_bytes,retx_bytes,active_flows\n0,1,2,3\n"};
  EXPECT_THROW((void)read_bins_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsExtraColumns) {
  std::stringstream ss{"bin,bytes,marked_bytes,retx_bytes,active_flows\n0,1,2,3,4,5\n"};
  EXPECT_THROW((void)read_bins_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsNonNumericField) {
  std::stringstream ss{"bin,bytes,marked_bytes,retx_bytes,active_flows\n0,abc,2,3,4\n"};
  EXPECT_THROW((void)read_bins_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsNonContiguousIndices) {
  std::stringstream ss{"bin,bytes,marked_bytes,retx_bytes,active_flows\n1,1,2,3,4\n"};
  EXPECT_THROW((void)read_bins_csv(ss), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/trace_io_test.csv";
  {
    std::ofstream out{path};
    ASSERT_TRUE(out);
    write_bins_csv(sample_bins(), out);
  }
  const auto parsed = read_bins_csv_file(path);
  EXPECT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[2].retx_bytes, 1'500);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)read_bins_csv_file("/nonexistent/path/trace.csv"),
               std::runtime_error);
}

TEST(TraceIo, LiveSamplerRoundTrip) {
  // End to end: fill a sampler, serialize, parse, compare.
  Millisampler s{{.bin_duration = sim::Time::milliseconds(1),
                  .line_rate = sim::Bandwidth::gigabits_per_second(10)}};
  net::Packet p = net::make_data_packet(0, 1, 9, 0, 1000);
  p.ecn = net::Ecn::kCe;
  s.on_ingress(p, sim::Time::microseconds(100));
  s.on_ingress(net::make_data_packet(0, 1, 5, 0, 2000), sim::Time::milliseconds(2.5));
  s.finalize(sim::Time::milliseconds(4));

  std::stringstream ss;
  write_bins_csv(s.bins(), ss);
  const auto parsed = read_bins_csv(ss);
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed[0].marked_bytes, 1000 + net::kHeaderBytes);
  EXPECT_EQ(parsed[2].bytes, 2000 + net::kHeaderBytes);
  EXPECT_EQ(parsed[2].active_flows, 1);
  EXPECT_EQ(parsed[3].bytes, 0);
}

}  // namespace
}  // namespace incast::telemetry
