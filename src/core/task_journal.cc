#include "core/task_journal.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
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
void put(std::string& out, const std::string& key, const std::string& value) {
  out += key;
  out += '=';
  out += value;
  out += '|';
}

void put(std::string& out, const std::string& key, std::int64_t value) {
  put(out, key, std::to_string(value));
}

void put_u64(std::string& out, const std::string& key, std::uint64_t value) {
  put(out, key, std::to_string(value));
}

void put(std::string& out, const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  put(out, key, std::string{buf});
}

void put_time(std::string& out, const std::string& key, sim::Time t) { put(out, key, t.ns()); }

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
  const std::string key{prefix};
  put(out, key + "capacity_packets", q.capacity_packets);
  put(out, key + "capacity_bytes", q.capacity_bytes);
  put(out, key + "ecn_threshold_packets", q.ecn_threshold_packets);
  put(out, key + "ecn_kmin_packets", q.ecn_kmin_packets);
  put(out, key + "ecn_kmax_packets", q.ecn_kmax_packets);
  put(out, key + "discipline", static_cast<std::int64_t>(q.discipline));
  put(out, key + "trim_header_bytes", q.trim_header_bytes);
  put(out, key + "header_capacity_packets", q.header_capacity_packets);
}

void put_pfc(std::string& out, const char* prefix, const net::LosslessInputQueue::Config& p) {
  const std::string key{prefix};
  put(out, key + "xoff_bytes", p.xoff_bytes);
  put(out, key + "xon_bytes", p.xon_bytes);
  put(out, key + "headroom_bytes", p.headroom_bytes);
  put(out, key + "pause_ns", p.pause_ns);
}

void put_fault(std::string& out, const char* prefix, const fault::LinkFaultConfig& f) {
  const std::string key{prefix};
  put(out, key + "drop_rate", f.drop_rate);
  put(out, key + "corrupt_rate", f.corrupt_rate);
  put(out, key + "duplicate_rate", f.duplicate_rate);
  put(out, key + "reorder_rate", f.reorder_rate);
  put_time(out, key + "reorder_max_delay", f.reorder_max_delay);
  put(out, key + "ge_good_to_bad", f.ge_good_to_bad);
  put(out, key + "ge_bad_to_good", f.ge_bad_to_good);
  put(out, key + "ge_drop_bad", f.ge_drop_bad);
  put(out, key + "ge_drop_good", f.ge_drop_good);
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

std::string canonical_config(const ChaosConfig& config) {
  return "chaos|seed=" + std::to_string(config.seed) +
         "|configs=" + std::to_string(config.num_configs) +
         "|max_events=" + std::to_string(config.max_events_per_run);
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
          bool parsed = false;
          try {
            const Json record = Json::parse(lines[i]);
            parsed = true;
            const std::int64_t task = record.at("task").as_int();
            if (task < 0 || static_cast<std::uint64_t>(task) >= header.tasks) {
              throw std::out_of_range{"task index " + std::to_string(task) + " outside [0, " +
                                      std::to_string(header.tasks) + ")"};
            }
            // A "fail" record keeps nothing: the task re-runs on resume.
            const std::string status = record.at("status").as_string();
            if (status == "ok") {
              payloads_[static_cast<std::size_t>(task)] = record.at("payload");
            } else if (status != "fail") {
              throw std::runtime_error{"unknown status '" + status + "'"};
            }
          } catch (const std::exception& e) {
            // A crash mid-append leaves exactly one truncated final line,
            // which cannot parse; everything before it is intact, so resume
            // from there. Anything else — garbage mid-file, or a record
            // that parses but makes no sense — is damage.
            if (parsed || i + 1 < lines.size()) {
              throw Error{ErrorCategory::kIo, "journal " + path + ": corrupt record on line " +
                                                  std::to_string(i + 1) + ": " + e.what()};
            }
            // The partial line must be cut from the file too, or the next
            // append would fuse onto it and corrupt the record.
            std::fprintf(stderr, "journal %s: ignoring truncated final record (%s)\n",
                         path.c_str(), e.what());
            truncated_tail = true;
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

// --- Payload codec -----------------------------------------------------------
//
// Each journaled type lists its fields once, in a fields(visitor, value)
// overload. The Encoder visitor turns the list into a payload object, the
// Decoder reads the same list back, so the two directions cannot drift.

namespace {

// A u64 the payload stores as a decimal string (JSON integers here are
// int64): the chaos run's seed.
struct DecimalU64 {
  std::uint64_t& value;
};

// Label-encoded fields and the labels each accepts; decoding anything else
// is a corrupt payload.
constexpr DctcpMode kDctcpModes[] = {DctcpMode::kSafe, DctcpMode::kDegenerate,
                                     DctcpMode::kCollapse};
constexpr QueueMode kQueueModes[] = {QueueMode::kDropTail, QueueMode::kPfc, QueueMode::kTrim,
                                     QueueMode::kCredit};
// TailAttributionRow::pctl points at one of tail_attribution()'s literals.
constexpr const char* kPercentiles[] = {"p50", "p99", "p999"};

const auto& labels(DctcpMode) { return kDctcpModes; }
const auto& labels(QueueMode) { return kQueueModes; }
const auto& labels(const char*) { return kPercentiles; }
const char* label(DctcpMode mode) { return to_string(mode); }
const char* label(QueueMode mode) { return to_string(mode); }
const char* label(const char* pctl) { return pctl; }

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
Json encode_object(const T& value);
template <typename T>
void decode_object(const Json& payload, T& value);

template <typename T>
Json encode(const T& value) {
  if constexpr (std::is_same_v<T, bool> || std::is_floating_point_v<T>) {
    return Json{value};
  } else if constexpr (std::is_integral_v<T>) {
    return Json{static_cast<std::int64_t>(value)};
  } else if constexpr (std::is_same_v<T, sim::Time>) {
    return Json{value.ns()};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Json{value};
  } else if constexpr (std::is_same_v<T, DecimalU64>) {
    return Json{std::to_string(value.value)};
  } else if constexpr (std::is_same_v<T, sim::EventCategoryCounts>) {
    Json::Array out;
    for (const std::uint64_t n : value) out.emplace_back(static_cast<std::int64_t>(n));
    return Json{std::move(out)};
  } else if constexpr (IsVector<T>::value) {
    Json::Array out;
    for (const auto& element : value) out.push_back(encode_object(element));
    return Json{std::move(out)};
  } else {
    return Json{label(value)};
  }
}

template <typename T>
void decode(const Json& json, const char* key, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = json.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    value = static_cast<T>(json.as_int());
  } else if constexpr (std::is_floating_point_v<T>) {
    value = json.as_double();
  } else if constexpr (std::is_same_v<T, sim::Time>) {
    value = sim::Time::nanoseconds(json.as_int());
  } else if constexpr (std::is_same_v<T, std::string>) {
    value = json.as_string();
  } else if constexpr (std::is_same_v<T, DecimalU64>) {
    value.value = std::stoull(json.as_string());
  } else if constexpr (std::is_same_v<T, sim::EventCategoryCounts>) {
    // Lenient on length, so a journal survives a category being added.
    const Json::Array& counts = json.as_array();
    for (std::size_t i = 0; i < value.size() && i < counts.size(); ++i) {
      value[i] = static_cast<std::uint64_t>(counts[i].as_int());
    }
  } else if constexpr (IsVector<T>::value) {
    value.clear();
    for (const Json& element : json.as_array()) decode_object(element, value.emplace_back());
  } else {
    const std::string& name = json.as_string();
    for (const auto candidate : labels(value)) {
      if (name == label(candidate)) {
        value = candidate;
        return;
      }
    }
    throw Error{ErrorCategory::kIo,
                std::string{"journal payload: unknown "} + key + " '" + name + "'"};
  }
}

struct Encoder {
  Json::Object object;
  template <typename T>
  void operator()(const char* key, const T& value) {
    object[key] = encode(value);
  }
};

struct Decoder {
  const Json& payload;
  template <typename T>
  void operator()(const char* key, T&& value) {
    decode(payload.at(key), key, value);
  }
};

// --- The field lists ---

template <typename V>
void fields(V& v, analysis::Burst& b) {
  v("first_bin", b.first_bin);
  v("num_bins", b.num_bins);
  v("bytes", b.bytes);
  v("marked_bytes", b.marked_bytes);
  v("retx_bytes", b.retx_bytes);
  v("max_active_flows", b.max_active_flows);
  v("peak_queue_packets", b.peak_queue_packets);
}

template <typename V>
void fields(V& v, obs::TailAttributionRow& row) {
  v("pctl", row.pctl);
  v("flows", row.flows);
  obs::FlowBreakdown& b = row.flow;
  v("flow", b.flow);
  v("fct_ns", b.fct_ns);
  v("serialization_ns", b.serialization_ns);
  v("propagation_ns", b.propagation_ns);
  v("q_host_ns", b.q_host_ns);
  v("q_tor_ns", b.q_tor_ns);
  v("q_agg_ns", b.q_agg_ns);
  v("q_spine_ns", b.q_spine_ns);
  v("pfc_pause_ns", b.pfc_pause_ns);
  v("cwnd_limited_ns", b.cwnd_limited_ns);
  v("rto_wait_ns", b.rto_wait_ns);
  v("fast_recovery_ns", b.fast_recovery_ns);
  v("nack_recovery_ns", b.nack_recovery_ns);
  v("other_ns", b.other_ns);
}

// Carried by every simulated-run payload.
template <typename V, typename Run>
void run_fields(V& v, Run& r) {
  v("events_processed", r.events_processed);
  v("audit_violations", r.audit_violations);
  v("queue_drops", r.queue_drops);
}

// The event-kernel telemetry fleet and faults payloads keep.
template <typename V>
void kernel_fields(V& v, RunCounters& c) {
  v("events_by_category", c.events_by_category);
  v("peak_events_pending", c.peak_events_pending);
  v("slab_high_water", c.slab_high_water);
}

// Shared by the scaling and collateral grid points.
template <typename V, typename Point>
void grid_point_fields(V& v, Point& p) {
  run_fields(v, p);
  v("degree", p.degree);
  v("fct_rows", p.fct_rows);
  v("traced_flows", p.traced_flows);
  v("flow_trace_incomplete", p.flow_trace_incomplete);
  v("int_hop_overflows", p.int_hop_overflows);
}

template <typename V>
void fields(V& v, HostTraceResult& r) {
  run_fields(v, r);
  kernel_fields(v, r);
  v("host", r.host);
  v("snapshot", r.snapshot);
  v("alt_regime", r.alt_regime);
  v("avg_utilization", r.avg_utilization);
  v("generated_bursts", r.generated_bursts);
  v("trace_seconds", r.summary.trace_seconds);
  v("bursts", r.summary.bursts);
}

template <typename V>
void fields(V& v, ResiliencePoint& p) {
  IncastExperimentResult& r = p.result;
  run_fields(v, r);
  kernel_fields(v, r);
  v("drop_rate", p.drop_rate);
  v("flap_duration_ns", p.flap_duration);
  v("goodput_rel", p.goodput_rel);
  v("recovery_after_flap_ms", p.recovery_after_flap_ms);
  v("mode", p.mode);
  v("avg_bct_ms", r.avg_bct_ms);
  v("max_bct_ms", r.max_bct_ms);
  v("timeouts", r.timeouts);
  v("fast_retransmits", r.fast_retransmits);
  v("retransmitted_packets", r.retransmitted_packets);
  v("injected_drops", r.injected_drops);
  v("injected_corruptions", r.injected_corruptions);
}

template <typename V>
void fields(V& v, ScalingPoint& p) {
  grid_point_fields(v, p);
  v("fct_ms", p.fct_ms);
  v("optimal_ms", p.optimal_ms);
  v("overhead_pct", p.overhead_pct);
  v("completed_flows", p.completed_flows);
  v("timeouts", p.timeouts);
  v("retransmits", p.retransmits);
  v("flow_state_bytes", p.flow_state_bytes);
  v("packet_pool_bytes", p.packet_pool_bytes);
  v("routing_bytes", p.routing_bytes);
  v("event_bytes", p.event_bytes);
  v("bytes_per_flow", p.bytes_per_flow);
}

template <typename V>
void fields(V& v, CollateralPoint& p) {
  grid_point_fields(v, p);
  v("mode", p.mode);
  v("victim_goodput_gbps", p.victim_goodput_gbps);
  v("victim_delivered_bytes", p.victim_delivered_bytes);
  v("victim_paused_ms", p.victim_paused_ms);
  v("victim_retransmits", p.victim_retransmits);
  v("victim_timeouts", p.victim_timeouts);
  v("victim_nacks", p.victim_nacks);
  v("incast_avg_bct_ms", p.incast_avg_bct_ms);
  v("incast_max_bct_ms", p.incast_max_bct_ms);
  v("incast_timeouts", p.incast_timeouts);
  v("trimmed_packets", p.trimmed_packets);
  v("trimmed_bytes", p.trimmed_bytes);
  v("pfc_pause_frames", p.pfc_pause_frames);
  v("pfc_resume_frames", p.pfc_resume_frames);
  v("pfc_overflow_drops", p.pfc_overflow_drops);
  v("incast_nacks", p.incast_nacks);
}

template <typename V>
void fields(V& v, ChaosRunResult& r) {
  v("description", r.description);
  v("seed", DecimalU64{r.seed});
  v("events_processed", r.events_processed);
}

template <typename T>
Json encode_object(const T& value) {
  Encoder encoder;
  // The Encoder only reads; the field lists take a mutable value so one
  // list serves both directions.
  fields(encoder, const_cast<T&>(value));
  return Json{std::move(encoder.object)};
}

template <typename T>
void decode_object(const Json& payload, T& value) {
  Decoder decoder{payload};
  fields(decoder, value);
}

}  // namespace

template <typename T>
Json to_journal_payload(const T& value) {
  return encode_object(value);
}

template <typename T>
T from_journal_payload(const Json& payload) {
  T value{};
  decode_object(payload, value);
  return value;
}

template Json to_journal_payload(const HostTraceResult&);
template HostTraceResult from_journal_payload<HostTraceResult>(const Json&);
template Json to_journal_payload(const ResiliencePoint&);
template ResiliencePoint from_journal_payload<ResiliencePoint>(const Json&);
template Json to_journal_payload(const ScalingPoint&);
template ScalingPoint from_journal_payload<ScalingPoint>(const Json&);
template Json to_journal_payload(const CollateralPoint&);
template CollateralPoint from_journal_payload<CollateralPoint>(const Json&);
template Json to_journal_payload(const ChaosRunResult&);
template ChaosRunResult from_journal_payload<ChaosRunResult>(const Json&);

}  // namespace incast::core
