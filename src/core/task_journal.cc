#include "core/task_journal.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "core/error.h"

namespace incast::core {

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

namespace {

constexpr const char* kJournalMagic = "incast-task-journal";
constexpr std::int64_t kJournalVersion = 1;

// Canonical-string helpers: "key=value|" pieces in a fixed order. Doubles
// use %.17g so the string (and hence the fingerprint) round-trips the exact
// value the run will use.
void put(std::string& out, const char* key, std::int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRId64 "|", key, value);
  out += buf;
}

void put_u64(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 "|", key, value);
  out += buf;
}

void put(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g|", key, value);
  out += buf;
}

void put(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += '=';
  out += value;
  out += '|';
}

void put_time(std::string& out, const char* key, sim::Time t) { put(out, key, t.ns()); }

void put_profile(std::string& out, const workload::ServiceProfile& p) {
  put(out, "service", p.name);
  put(out, "bursts_per_second", p.bursts_per_second);
  put(out, "body_median_flows", p.body_median_flows);
  put(out, "body_sigma", p.body_sigma);
  put(out, "min_flows", static_cast<std::int64_t>(p.min_flows));
  put(out, "max_flows", static_cast<std::int64_t>(p.max_flows));
  put(out, "low_mode_probability", p.low_mode_probability);
  put(out, "low_mode_min", static_cast<std::int64_t>(p.low_mode_min));
  put(out, "low_mode_max", static_cast<std::int64_t>(p.low_mode_max));
  put(out, "alt_median_flows", p.alt_median_flows);
  put(out, "duration_geometric_p", p.duration_geometric_p);
  put(out, "max_duration_ms", static_cast<std::int64_t>(p.max_duration_ms));
  put(out, "util_lo", p.util_lo);
  put(out, "util_hi", p.util_hi);
  put(out, "host_sigma", p.host_sigma);
}

void put_tcp(std::string& out, const tcp::TcpConfig& tcp) {
  put(out, "cc", static_cast<std::int64_t>(tcp.cc));
  put(out, "mss_bytes", tcp.mss_bytes);
  put_time(out, "min_rto", tcp.rtt.min_rto);
  put(out, "cwnd_cap_bytes", tcp.cwnd_cap_bytes.value_or(0));
  put(out, "tlp", static_cast<std::int64_t>(tcp.tail_loss_probe ? 1 : 0));
  put(out, "int_telemetry", static_cast<std::int64_t>(tcp.int_telemetry ? 1 : 0));
}

void put_queue(std::string& out, const char* prefix, const net::DropTailQueue::Config& q) {
  std::string key{prefix};
  const auto add = [&](const char* name, std::int64_t v) {
    put(out, (key + name).c_str(), v);
  };
  add("capacity_packets", q.capacity_packets);
  add("capacity_bytes", q.capacity_bytes);
  add("ecn_threshold_packets", q.ecn_threshold_packets);
  add("ecn_kmin_packets", q.ecn_kmin_packets);
  add("ecn_kmax_packets", q.ecn_kmax_packets);
  add("discipline", static_cast<std::int64_t>(q.discipline));
  add("trim_header_bytes", q.trim_header_bytes);
  add("header_capacity_packets", q.header_capacity_packets);
}

void put_pfc(std::string& out, const char* prefix, const net::LosslessInputQueue::Config& p) {
  std::string key{prefix};
  const auto add = [&](const char* name, std::int64_t v) {
    put(out, (key + name).c_str(), v);
  };
  add("xoff_bytes", p.xoff_bytes);
  add("xon_bytes", p.xon_bytes);
  add("headroom_bytes", p.headroom_bytes);
  add("pause_ns", p.pause_ns);
}

void put_fault(std::string& out, const char* prefix, const fault::LinkFaultConfig& f) {
  std::string key{prefix};
  const auto add_d = [&](const char* name, double v) {
    put(out, (key + name).c_str(), v);
  };
  add_d("drop_rate", f.drop_rate);
  add_d("corrupt_rate", f.corrupt_rate);
  add_d("duplicate_rate", f.duplicate_rate);
  add_d("reorder_rate", f.reorder_rate);
  put(out, (key + "reorder_max_delay").c_str(), f.reorder_max_delay.ns());
  add_d("ge_good_to_bad", f.ge_good_to_bad);
  add_d("ge_bad_to_good", f.ge_bad_to_good);
  add_d("ge_drop_bad", f.ge_drop_bad);
  add_d("ge_drop_good", f.ge_drop_good);
}

}  // namespace

std::string canonical_config(const FleetConfig& config) {
  std::string out{"fleet|"};
  put_profile(out, config.profile);
  put(out, "num_hosts", static_cast<std::int64_t>(config.num_hosts));
  put(out, "num_snapshots", static_cast<std::int64_t>(config.num_snapshots));
  put_time(out, "trace_duration", config.trace_duration);
  put(out, "queue_capacity_packets", config.queue_capacity_packets);
  put(out, "ecn_threshold_fraction", config.ecn_threshold_fraction);
  put(out, "shared_pool_bytes", config.shared_pool_bytes);
  put(out, "contention_mode", static_cast<std::int64_t>(config.contention_mode));
  put_time(out, "contention_mean_on", config.contention.mean_on);
  put_time(out, "contention_mean_off", config.contention.mean_off);
  put(out, "contention_min_fraction", config.contention.min_fraction);
  put(out, "contention_max_fraction", config.contention.max_fraction);
  put_tcp(out, config.tcp);
  put(out, "nic_rate_bps", config.nic_rate.bps());
  put(out, "regime_block_snapshots", static_cast<std::int64_t>(config.regime_block_snapshots));
  put_u64(out, "base_seed", config.base_seed);
  put(out, "utilization_threshold", config.detector.utilization_threshold);
  put(out, "incast_flow_threshold",
      static_cast<std::int64_t>(config.detector.incast_flow_threshold));
  return out;
}

std::string canonical_config(const ResilienceConfig& config) {
  std::string out{"faults|"};
  const IncastExperimentConfig& base = config.base;
  put(out, "num_flows", static_cast<std::int64_t>(base.num_flows));
  put_time(out, "burst_duration", base.burst_duration);
  put(out, "num_bursts", static_cast<std::int64_t>(base.num_bursts));
  put(out, "discard_bursts", static_cast<std::int64_t>(base.discard_bursts));
  put_time(out, "inter_burst_gap", base.inter_burst_gap);
  put(out, "schedule", static_cast<std::int64_t>(base.schedule));
  put(out, "queue_capacity_packets", base.topology.switch_queue.capacity_packets);
  put(out, "ecn_threshold_packets", base.topology.switch_queue.ecn_threshold_packets);
  put_tcp(out, base.tcp);
  put_time(out, "max_sim_time", base.max_sim_time);
  put_u64(out, "seed", base.seed);
  put_fault(out, "template_", config.fault_template);
  out += "drop_rates=";
  for (const double rate : config.drop_rates) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g,", rate);
    out += buf;
  }
  out += "|flap_durations=";
  for (const sim::Time d : config.flap_durations) {
    out += std::to_string(d.ns());
    out += ',';
  }
  out += '|';
  put_time(out, "flap_at", config.flap_at);
  return out;
}

std::string canonical_config(const ScalingConfig& config) {
  std::string out{"scaling|"};
  out += "degrees=";
  for (const int d : config.degrees) {
    out += std::to_string(d);
    out += ',';
  }
  out += '|';
  const fabric::FatTreeConfig& f = config.fabric;
  put(out, "num_pods", static_cast<std::int64_t>(f.num_pods));
  put(out, "leaves_per_pod", static_cast<std::int64_t>(f.leaves_per_pod));
  put(out, "hosts_per_leaf", static_cast<std::int64_t>(f.hosts_per_leaf));
  put(out, "aggs_per_pod", static_cast<std::int64_t>(f.aggs_per_pod));
  put(out, "num_spines", static_cast<std::int64_t>(f.num_spines));
  put(out, "host_link_bps", f.host_link.bps());
  put(out, "leaf_uplink_bps", f.leaf_uplink.bps());
  put(out, "spine_link_bps", f.spine_link.bps());
  put_time(out, "link_delay", f.link_delay);
  put_queue(out, "switch_queue_", f.switch_queue);
  put_queue(out, "host_queue_", f.host_queue);
  put(out, "shared_buffer", static_cast<std::int64_t>(f.shared_buffer ? 1 : 0));
  if (f.shared_buffer) {
    put(out, "shared_buffer_bytes", f.shared_buffer->total_bytes);
    put(out, "shared_buffer_alpha", f.shared_buffer->alpha);
  }
  put(out, "fabric_pfc", static_cast<std::int64_t>(f.pfc ? 1 : 0));
  if (f.pfc) put_pfc(out, "fabric_pfc_", *f.pfc);
  // f.ecmp_seed is excluded: each point overwrites it with its derived seed.
  put(out, "bytes_per_flow", config.bytes_per_flow);
  put_tcp(out, config.tcp);
  put_time(out, "max_sim_time", config.max_sim_time);
  put(out, "flow_trace", static_cast<std::int64_t>(config.flow_trace ? 1 : 0));
  put_u64(out, "flow_trace_sample_every", config.flow_trace_sample_every);
  put_u64(out, "seed", config.seed);
  return out;
}

std::string canonical_config(const CollateralConfig& config) {
  std::string out{"collateral|"};
  out += "modes=";
  for (const QueueMode mode : config.modes) {
    out += to_string(mode);
    out += ',';
  }
  out += "|degrees=";
  for (const int d : config.degrees) {
    out += std::to_string(d);
    out += ',';
  }
  out += '|';
  put(out, "num_bursts", static_cast<std::int64_t>(config.num_bursts));
  put_time(out, "burst_duration", config.burst_duration);
  put_time(out, "inter_burst_gap", config.inter_burst_gap);
  // Topology template. num_senders/num_receivers are overridden per point
  // (degree + 1 senders, 2 receivers) and switch_queue is reshaped per mode
  // from the knobs below, so none of those three enter the fingerprint.
  const net::DumbbellConfig& t = config.topology;
  put(out, "host_link_bps", t.host_link.bps());
  put(out, "core_link_bps", t.core_link.bps());
  put(out, "receiver_link_bps",
      t.receiver_link ? t.receiver_link->bps() : static_cast<std::int64_t>(-1));
  put_time(out, "link_delay", t.link_delay);
  put_queue(out, "host_queue_", t.host_queue);
  put(out, "queue_capacity_packets", static_cast<std::int64_t>(config.queue_capacity_packets));
  put(out, "ecn_threshold_packets", static_cast<std::int64_t>(config.ecn_threshold_packets));
  put(out, "shared_buffer_bytes", config.shared_buffer_bytes);
  put(out, "shared_buffer_alpha", config.shared_buffer_alpha);
  put_pfc(out, "pfc_", config.pfc);
  put(out, "pfc_queue_capacity_packets",
      static_cast<std::int64_t>(config.pfc_queue_capacity_packets));
  put(out, "trim_queue_capacity_packets",
      static_cast<std::int64_t>(config.trim_queue_capacity_packets));
  put(out, "victim_cwnd_cap_bytes", config.victim_cwnd_cap_bytes);
  put_tcp(out, config.tcp);
  put(out, "pfc_cc", static_cast<std::int64_t>(config.pfc_cc));
  put_time(out, "max_sim_time", config.max_sim_time);
  put(out, "flow_trace", static_cast<std::int64_t>(config.flow_trace ? 1 : 0));
  put_u64(out, "flow_trace_sample_every", config.flow_trace_sample_every);
  put_u64(out, "seed", config.seed);
  return out;
}

TaskJournal::~TaskJournal() {
  if (out_ != nullptr) std::fclose(out_);
}

void TaskJournal::open(const std::string& path, const JournalHeader& header) {
  if (out_ != nullptr) throw Error{ErrorCategory::kInternal, "journal: already open"};

  bool needs_header = true;
  bool truncated_tail = false;
  std::vector<std::string> kept_lines;
  {
    std::ifstream in{path};
    if (in) {
      // Existing journal: validate the header and load completed tasks.
      // Collect the lines first so "last line" is well-defined for the
      // truncation tolerance below.
      std::vector<std::string> lines;
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
      if (!lines.empty()) {
        Json head;
        try {
          head = Json::parse(lines.front());
        } catch (const std::exception& e) {
          throw Error{ErrorCategory::kIo,
                      "journal " + path + ": unreadable header: " + e.what()};
        }
        const Json* magic = head.find("journal");
        if (magic == nullptr || !magic->is_string() ||
            magic->as_string() != kJournalMagic) {
          throw Error{ErrorCategory::kIo,
                      "journal " + path + ": not an incast task journal"};
        }
        try {
          if (head.at("version").as_int() != kJournalVersion) {
            throw Error{ErrorCategory::kConfig,
                        "journal " + path + ": unsupported version " +
                            std::to_string(head.at("version").as_int())};
          }
          const std::string command = head.at("command").as_string();
          const std::uint64_t fingerprint =
              std::stoull(head.at("fingerprint").as_string());
          const auto tasks = static_cast<std::uint64_t>(head.at("tasks").as_int());
          if (command != header.command || fingerprint != header.fingerprint ||
              tasks != header.tasks) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "journal %s was written by a different run (%s, %" PRIu64
                          " task(s), fingerprint %016" PRIx64 "; this run: %s, %" PRIu64
                          " task(s), fingerprint %016" PRIx64
                          ") — refusing to resume; delete the journal or rerun the "
                          "original configuration",
                          path.c_str(), command.c_str(), tasks, fingerprint,
                          header.command.c_str(), header.tasks, header.fingerprint);
            throw Error{ErrorCategory::kConfig, buf};
          }
        } catch (const Error&) {
          throw;
        } catch (const std::exception& e) {
          throw Error{ErrorCategory::kIo,
                      "journal " + path + ": malformed header: " + e.what()};
        }
        needs_header = false;

        for (std::size_t i = 1; i < lines.size(); ++i) {
          Json record;
          try {
            record = Json::parse(lines[i]);
            const std::string status = record.at("status").as_string();
            const auto index = static_cast<std::size_t>(record.at("task").as_int());
            if (status == "ok") {
              payloads_[index] = record.at("payload");
            }
            // status "fail": the task is re-run on resume — nothing to keep.
          } catch (const std::exception& e) {
            if (i + 1 == lines.size()) {
              // A crash mid-append leaves exactly one truncated final line;
              // everything before it is intact, so resume from there. The
              // partial line must be cut from the file too, or the next
              // append would fuse onto it and corrupt the record.
              std::fprintf(stderr,
                           "journal %s: ignoring truncated final record (%s)\n",
                           path.c_str(), e.what());
              truncated_tail = true;
              break;
            }
            throw Error{ErrorCategory::kIo, "journal " + path + ": corrupt record on line " +
                                                std::to_string(i + 1) + ": " + e.what()};
          }
        }
        if (truncated_tail) {
          lines.pop_back();
          kept_lines = std::move(lines);
        }
      }
    }
  }

  if (truncated_tail) {
    // Rewrite the valid prefix; the handle stays open for the appends to
    // come, so a crash during the rewrite can at worst re-truncate a tail.
    out_ = std::fopen(path.c_str(), "wb");
    if (out_ == nullptr) {
      throw Error{ErrorCategory::kIo, "journal: cannot rewrite " + path};
    }
    for (const std::string& line : kept_lines) {
      std::fwrite(line.data(), 1, line.size(), out_);
      std::fputc('\n', out_);
    }
    std::fflush(out_);
  } else {
    out_ = std::fopen(path.c_str(), "ab");
    if (out_ == nullptr) {
      throw Error{ErrorCategory::kIo, "journal: cannot open " + path + " for append"};
    }
  }
  path_ = path;

  if (needs_header) {
    Json::Object head;
    head["journal"] = Json{kJournalMagic};
    head["version"] = Json{kJournalVersion};
    head["command"] = Json{header.command};
    head["fingerprint"] = Json{std::to_string(header.fingerprint)};
    head["tasks"] = Json{static_cast<std::int64_t>(header.tasks)};
    append_line(Json{std::move(head)}.dump());
  }
}

bool TaskJournal::completed(std::size_t index) const noexcept {
  return payloads_.count(index) > 0;
}

const Json* TaskJournal::payload(std::size_t index) const noexcept {
  const auto it = payloads_.find(index);
  return it == payloads_.end() ? nullptr : &it->second;
}

void TaskJournal::record_ok(std::size_t index, std::uint64_t seed, const Json& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr || payloads_.count(index) > 0) return;
  Json::Object record;
  record["status"] = Json{"ok"};
  record["task"] = Json{static_cast<std::int64_t>(index)};
  record["seed"] = Json{std::to_string(seed)};
  record["payload"] = payload;
  append_line(Json{std::move(record)}.dump());
}

void TaskJournal::record_failure(const sim::TaskFailure& failure) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr) return;
  Json::Object record;
  record["status"] = Json{"fail"};
  record["task"] = Json{static_cast<std::int64_t>(failure.index)};
  record["seed"] = Json{std::to_string(failure.seed)};
  record["category"] = Json{sim::to_string(failure.category)};
  record["message"] = Json{failure.message};
  record["attempts"] = Json{static_cast<std::int64_t>(failure.attempts)};
  append_line(Json{std::move(record)}.dump());
}

void TaskJournal::append_line(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  std::fflush(out_);
}

// --- Payload serialization -------------------------------------------------

namespace {

Json categories_to_json(const sim::EventCategoryCounts& counts) {
  Json::Array out;
  out.reserve(counts.size());
  for (const std::uint64_t n : counts) out.emplace_back(static_cast<std::int64_t>(n));
  return Json{std::move(out)};
}

sim::EventCategoryCounts categories_from_json(const Json& v) {
  sim::EventCategoryCounts counts{};
  const Json::Array& arr = v.as_array();
  for (std::size_t i = 0; i < counts.size() && i < arr.size(); ++i) {
    counts[i] = static_cast<std::uint64_t>(arr[i].as_int());
  }
  return counts;
}

Json fct_rows_to_json(const std::vector<obs::TailAttributionRow>& rows) {
  Json::Array arr;
  arr.reserve(rows.size());
  for (const obs::TailAttributionRow& row : rows) {
    Json::Object o;
    o["pctl"] = Json{std::string{row.pctl}};
    o["flows"] = Json{static_cast<std::int64_t>(row.flows)};
    const obs::FlowBreakdown& b = row.flow;
    o["flow"] = Json{static_cast<std::int64_t>(b.flow)};
    o["fct_ns"] = Json{b.fct_ns};
    o["serialization_ns"] = Json{b.serialization_ns};
    o["propagation_ns"] = Json{b.propagation_ns};
    o["q_host_ns"] = Json{b.q_host_ns};
    o["q_tor_ns"] = Json{b.q_tor_ns};
    o["q_agg_ns"] = Json{b.q_agg_ns};
    o["q_spine_ns"] = Json{b.q_spine_ns};
    o["pfc_pause_ns"] = Json{b.pfc_pause_ns};
    o["cwnd_limited_ns"] = Json{b.cwnd_limited_ns};
    o["rto_wait_ns"] = Json{b.rto_wait_ns};
    o["fast_recovery_ns"] = Json{b.fast_recovery_ns};
    o["nack_recovery_ns"] = Json{b.nack_recovery_ns};
    o["other_ns"] = Json{b.other_ns};
    arr.emplace_back(std::move(o));
  }
  return Json{std::move(arr)};
}

std::vector<obs::TailAttributionRow> fct_rows_from_json(const Json& v) {
  std::vector<obs::TailAttributionRow> rows;
  for (const Json& rj : v.as_array()) {
    obs::TailAttributionRow row;
    // pctl is a static-string field; map the stored text back onto the same
    // literals tail_attribution() emits.
    const std::string pctl = rj.at("pctl").as_string();
    row.pctl = pctl == "p50" ? "p50" : pctl == "p99" ? "p99" : pctl == "p999" ? "p999" : "";
    row.flows = static_cast<int>(rj.at("flows").as_int());
    obs::FlowBreakdown& b = row.flow;
    b.flow = static_cast<std::uint64_t>(rj.at("flow").as_int());
    b.fct_ns = rj.at("fct_ns").as_int();
    b.serialization_ns = rj.at("serialization_ns").as_int();
    b.propagation_ns = rj.at("propagation_ns").as_int();
    b.q_host_ns = rj.at("q_host_ns").as_int();
    b.q_tor_ns = rj.at("q_tor_ns").as_int();
    b.q_agg_ns = rj.at("q_agg_ns").as_int();
    b.q_spine_ns = rj.at("q_spine_ns").as_int();
    b.pfc_pause_ns = rj.at("pfc_pause_ns").as_int();
    b.cwnd_limited_ns = rj.at("cwnd_limited_ns").as_int();
    b.rto_wait_ns = rj.at("rto_wait_ns").as_int();
    b.fast_recovery_ns = rj.at("fast_recovery_ns").as_int();
    b.nack_recovery_ns = rj.at("nack_recovery_ns").as_int();
    b.other_ns = rj.at("other_ns").as_int();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

Json to_journal_payload(const HostTraceResult& result) {
  Json::Object o;
  o["host"] = Json{static_cast<std::int64_t>(result.host)};
  o["snapshot"] = Json{static_cast<std::int64_t>(result.snapshot)};
  o["alt_regime"] = Json{result.alt_regime};
  o["avg_utilization"] = Json{result.avg_utilization};
  o["queue_drops"] = Json{result.queue_drops};
  o["generated_bursts"] = Json{result.generated_bursts};
  o["events_processed"] = Json{static_cast<std::int64_t>(result.events_processed)};
  o["events_by_category"] = categories_to_json(result.events_by_category);
  o["peak_events_pending"] = Json{static_cast<std::int64_t>(result.peak_events_pending)};
  o["slab_high_water"] = Json{static_cast<std::int64_t>(result.slab_high_water)};
  o["audit_violations"] = Json{static_cast<std::int64_t>(result.audit_violations)};
  o["trace_seconds"] = Json{result.summary.trace_seconds};
  Json::Array bursts;
  bursts.reserve(result.summary.bursts.size());
  for (const analysis::Burst& b : result.summary.bursts) {
    Json::Object bo;
    bo["first_bin"] = Json{static_cast<std::int64_t>(b.first_bin)};
    bo["num_bins"] = Json{static_cast<std::int64_t>(b.num_bins)};
    bo["bytes"] = Json{b.bytes};
    bo["marked_bytes"] = Json{b.marked_bytes};
    bo["retx_bytes"] = Json{b.retx_bytes};
    bo["max_active_flows"] = Json{static_cast<std::int64_t>(b.max_active_flows)};
    bo["peak_queue_packets"] = Json{b.peak_queue_packets};
    bursts.emplace_back(std::move(bo));
  }
  o["bursts"] = Json{std::move(bursts)};
  return Json{std::move(o)};
}

HostTraceResult host_trace_from_payload(const Json& payload) {
  HostTraceResult r;
  r.host = static_cast<int>(payload.at("host").as_int());
  r.snapshot = static_cast<int>(payload.at("snapshot").as_int());
  r.alt_regime = payload.at("alt_regime").as_bool();
  r.avg_utilization = payload.at("avg_utilization").as_double();
  r.queue_drops = payload.at("queue_drops").as_int();
  r.generated_bursts = payload.at("generated_bursts").as_int();
  r.events_processed = static_cast<std::uint64_t>(payload.at("events_processed").as_int());
  r.events_by_category = categories_from_json(payload.at("events_by_category"));
  r.peak_events_pending =
      static_cast<std::uint64_t>(payload.at("peak_events_pending").as_int());
  r.slab_high_water = static_cast<std::uint64_t>(payload.at("slab_high_water").as_int());
  r.audit_violations = static_cast<std::uint64_t>(payload.at("audit_violations").as_int());
  r.summary.trace_seconds = payload.at("trace_seconds").as_double();
  for (const Json& bj : payload.at("bursts").as_array()) {
    analysis::Burst b;
    b.first_bin = static_cast<std::size_t>(bj.at("first_bin").as_int());
    b.num_bins = static_cast<std::size_t>(bj.at("num_bins").as_int());
    b.bytes = bj.at("bytes").as_int();
    b.marked_bytes = bj.at("marked_bytes").as_int();
    b.retx_bytes = bj.at("retx_bytes").as_int();
    b.max_active_flows = static_cast<int>(bj.at("max_active_flows").as_int());
    b.peak_queue_packets = bj.at("peak_queue_packets").as_int();
    r.summary.bursts.push_back(b);
  }
  return r;
}

Json to_journal_payload(const ResiliencePoint& point) {
  Json::Object o;
  o["drop_rate"] = Json{point.drop_rate};
  o["flap_duration_ns"] = Json{point.flap_duration.ns()};
  o["goodput_rel"] = Json{point.goodput_rel};
  o["recovery_after_flap_ms"] = Json{point.recovery_after_flap_ms};
  o["mode"] = Json{to_string(point.mode)};
  const IncastExperimentResult& r = point.result;
  o["avg_bct_ms"] = Json{r.avg_bct_ms};
  o["max_bct_ms"] = Json{r.max_bct_ms};
  o["timeouts"] = Json{r.timeouts};
  o["fast_retransmits"] = Json{r.fast_retransmits};
  o["retransmitted_packets"] = Json{r.retransmitted_packets};
  o["queue_drops"] = Json{r.queue_drops};
  o["injected_drops"] = Json{r.injected_drops};
  o["injected_corruptions"] = Json{r.injected_corruptions};
  o["events_processed"] = Json{static_cast<std::int64_t>(r.events_processed)};
  o["events_by_category"] = categories_to_json(r.events_by_category);
  o["peak_events_pending"] = Json{static_cast<std::int64_t>(r.peak_events_pending)};
  o["slab_high_water"] = Json{static_cast<std::int64_t>(r.slab_high_water)};
  o["audit_violations"] = Json{static_cast<std::int64_t>(r.audit_violations)};
  return Json{std::move(o)};
}

ResiliencePoint resilience_point_from_payload(const Json& payload) {
  ResiliencePoint p;
  p.drop_rate = payload.at("drop_rate").as_double();
  p.flap_duration = sim::Time::nanoseconds(payload.at("flap_duration_ns").as_int());
  p.goodput_rel = payload.at("goodput_rel").as_double();
  p.recovery_after_flap_ms = payload.at("recovery_after_flap_ms").as_double();
  const std::string mode = payload.at("mode").as_string();
  p.mode = mode == "collapse"  ? DctcpMode::kCollapse
           : mode == "degenerate" ? DctcpMode::kDegenerate
                                  : DctcpMode::kSafe;
  IncastExperimentResult& r = p.result;
  r.avg_bct_ms = payload.at("avg_bct_ms").as_double();
  r.max_bct_ms = payload.at("max_bct_ms").as_double();
  r.timeouts = payload.at("timeouts").as_int();
  r.fast_retransmits = payload.at("fast_retransmits").as_int();
  r.retransmitted_packets = payload.at("retransmitted_packets").as_int();
  r.queue_drops = payload.at("queue_drops").as_int();
  r.injected_drops = payload.at("injected_drops").as_int();
  r.injected_corruptions = payload.at("injected_corruptions").as_int();
  r.events_processed = static_cast<std::uint64_t>(payload.at("events_processed").as_int());
  r.events_by_category = categories_from_json(payload.at("events_by_category"));
  r.peak_events_pending =
      static_cast<std::uint64_t>(payload.at("peak_events_pending").as_int());
  r.slab_high_water = static_cast<std::uint64_t>(payload.at("slab_high_water").as_int());
  r.audit_violations = static_cast<std::uint64_t>(payload.at("audit_violations").as_int());
  return p;
}

Json to_journal_payload(const ScalingPoint& point) {
  Json::Object o;
  o["degree"] = Json{static_cast<std::int64_t>(point.degree)};
  o["fct_ms"] = Json{point.fct_ms};
  o["optimal_ms"] = Json{point.optimal_ms};
  o["overhead_pct"] = Json{point.overhead_pct};
  o["completed_flows"] = Json{static_cast<std::int64_t>(point.completed_flows)};
  o["timeouts"] = Json{point.timeouts};
  o["retransmits"] = Json{point.retransmits};
  o["queue_drops"] = Json{point.queue_drops};
  o["flow_state_bytes"] = Json{static_cast<std::int64_t>(point.flow_state_bytes)};
  o["packet_pool_bytes"] = Json{static_cast<std::int64_t>(point.packet_pool_bytes)};
  o["routing_bytes"] = Json{static_cast<std::int64_t>(point.routing_bytes)};
  o["event_bytes"] = Json{static_cast<std::int64_t>(point.event_bytes)};
  o["bytes_per_flow"] = Json{static_cast<std::int64_t>(point.bytes_per_flow)};
  o["events_processed"] = Json{static_cast<std::int64_t>(point.events_processed)};
  o["audit_violations"] = Json{static_cast<std::int64_t>(point.audit_violations)};
  o["fct_rows"] = fct_rows_to_json(point.fct_rows);
  o["traced_flows"] = Json{static_cast<std::int64_t>(point.traced_flows)};
  o["flow_trace_incomplete"] = Json{static_cast<std::int64_t>(point.flow_trace_incomplete)};
  o["int_hop_overflows"] = Json{point.int_hop_overflows};
  return Json{std::move(o)};
}

ScalingPoint scaling_point_from_payload(const Json& payload) {
  ScalingPoint p;
  p.degree = static_cast<int>(payload.at("degree").as_int());
  p.fct_ms = payload.at("fct_ms").as_double();
  p.optimal_ms = payload.at("optimal_ms").as_double();
  p.overhead_pct = payload.at("overhead_pct").as_double();
  p.completed_flows = static_cast<int>(payload.at("completed_flows").as_int());
  p.timeouts = payload.at("timeouts").as_int();
  p.retransmits = payload.at("retransmits").as_int();
  p.queue_drops = payload.at("queue_drops").as_int();
  p.flow_state_bytes = static_cast<std::uint64_t>(payload.at("flow_state_bytes").as_int());
  p.packet_pool_bytes = static_cast<std::uint64_t>(payload.at("packet_pool_bytes").as_int());
  p.routing_bytes = static_cast<std::uint64_t>(payload.at("routing_bytes").as_int());
  p.event_bytes = static_cast<std::uint64_t>(payload.at("event_bytes").as_int());
  p.bytes_per_flow = static_cast<std::uint64_t>(payload.at("bytes_per_flow").as_int());
  p.events_processed = static_cast<std::uint64_t>(payload.at("events_processed").as_int());
  p.audit_violations = static_cast<std::uint64_t>(payload.at("audit_violations").as_int());
  p.fct_rows = fct_rows_from_json(payload.at("fct_rows"));
  p.traced_flows = static_cast<std::uint64_t>(payload.at("traced_flows").as_int());
  p.flow_trace_incomplete =
      static_cast<std::uint64_t>(payload.at("flow_trace_incomplete").as_int());
  p.int_hop_overflows = payload.at("int_hop_overflows").as_int();
  return p;
}

Json to_journal_payload(const CollateralPoint& point) {
  Json::Object o;
  o["mode"] = Json{to_string(point.mode)};
  o["degree"] = Json{static_cast<std::int64_t>(point.degree)};
  o["victim_goodput_gbps"] = Json{point.victim_goodput_gbps};
  o["victim_delivered_bytes"] = Json{point.victim_delivered_bytes};
  o["victim_paused_ms"] = Json{point.victim_paused_ms};
  o["victim_retransmits"] = Json{point.victim_retransmits};
  o["victim_timeouts"] = Json{point.victim_timeouts};
  o["victim_nacks"] = Json{point.victim_nacks};
  o["incast_avg_bct_ms"] = Json{point.incast_avg_bct_ms};
  o["incast_max_bct_ms"] = Json{point.incast_max_bct_ms};
  o["incast_timeouts"] = Json{point.incast_timeouts};
  o["queue_drops"] = Json{point.queue_drops};
  o["trimmed_packets"] = Json{point.trimmed_packets};
  o["trimmed_bytes"] = Json{point.trimmed_bytes};
  o["pfc_pause_frames"] = Json{point.pfc_pause_frames};
  o["pfc_resume_frames"] = Json{point.pfc_resume_frames};
  o["pfc_overflow_drops"] = Json{point.pfc_overflow_drops};
  o["incast_nacks"] = Json{point.incast_nacks};
  o["events_processed"] = Json{static_cast<std::int64_t>(point.events_processed)};
  o["audit_violations"] = Json{static_cast<std::int64_t>(point.audit_violations)};
  o["fct_rows"] = fct_rows_to_json(point.fct_rows);
  o["traced_flows"] = Json{static_cast<std::int64_t>(point.traced_flows)};
  o["flow_trace_incomplete"] = Json{static_cast<std::int64_t>(point.flow_trace_incomplete)};
  o["int_hop_overflows"] = Json{point.int_hop_overflows};
  return Json{std::move(o)};
}

CollateralPoint collateral_point_from_payload(const Json& payload) {
  CollateralPoint p;
  const std::string mode = payload.at("mode").as_string();
  if (!parse_queue_mode(mode, p.mode)) {
    throw Error{ErrorCategory::kIo, "journal payload: unknown queue mode " + mode};
  }
  p.degree = static_cast<int>(payload.at("degree").as_int());
  p.victim_goodput_gbps = payload.at("victim_goodput_gbps").as_double();
  p.victim_delivered_bytes = payload.at("victim_delivered_bytes").as_int();
  p.victim_paused_ms = payload.at("victim_paused_ms").as_double();
  p.victim_retransmits = payload.at("victim_retransmits").as_int();
  p.victim_timeouts = payload.at("victim_timeouts").as_int();
  p.victim_nacks = payload.at("victim_nacks").as_int();
  p.incast_avg_bct_ms = payload.at("incast_avg_bct_ms").as_double();
  p.incast_max_bct_ms = payload.at("incast_max_bct_ms").as_double();
  p.incast_timeouts = payload.at("incast_timeouts").as_int();
  p.queue_drops = payload.at("queue_drops").as_int();
  p.trimmed_packets = payload.at("trimmed_packets").as_int();
  p.trimmed_bytes = payload.at("trimmed_bytes").as_int();
  p.pfc_pause_frames = payload.at("pfc_pause_frames").as_int();
  p.pfc_resume_frames = payload.at("pfc_resume_frames").as_int();
  p.pfc_overflow_drops = payload.at("pfc_overflow_drops").as_int();
  p.incast_nacks = payload.at("incast_nacks").as_int();
  p.events_processed = static_cast<std::uint64_t>(payload.at("events_processed").as_int());
  p.audit_violations = static_cast<std::uint64_t>(payload.at("audit_violations").as_int());
  p.fct_rows = fct_rows_from_json(payload.at("fct_rows"));
  p.traced_flows = static_cast<std::uint64_t>(payload.at("traced_flows").as_int());
  p.flow_trace_incomplete =
      static_cast<std::uint64_t>(payload.at("flow_trace_incomplete").as_int());
  p.int_hop_overflows = payload.at("int_hop_overflows").as_int();
  return p;
}

}  // namespace incast::core
