// CliArgs: a minimal command-line parser for the driver tool.
//
// Accepts "--key value", "--key=value", and bare "--flag" forms; everything
// else is positional. Typed getters record malformed values instead of
// aborting, so the caller can print all problems at once.
#ifndef INCAST_CORE_CLI_ARGS_H_
#define INCAST_CORE_CLI_ARGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/parse.h"

namespace incast::core {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key, std::string fallback) const;

  // Typed getters; parse failures are appended to errors().
  [[nodiscard]] std::int64_t int_or(const std::string& key, std::int64_t fallback);
  [[nodiscard]] double double_or(const std::string& key, double fallback);
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback);
  [[nodiscard]] sim::Time time_or(const std::string& key, sim::Time fallback);
  [[nodiscard]] sim::Bandwidth bandwidth_or(const std::string& key,
                                            sim::Bandwidth fallback);

  // Range-checked variants: a well-formed but out-of-range value (negative
  // duration, zero flows, probability above 1, ...) is rejected with a
  // clear error instead of being silently accepted.
  [[nodiscard]] std::int64_t int_or(const std::string& key, std::int64_t fallback,
                                    std::int64_t min_value, std::int64_t max_value);
  [[nodiscard]] double double_or(const std::string& key, double fallback,
                                 double min_value, double max_value);
  [[nodiscard]] sim::Time time_or(const std::string& key, sim::Time fallback,
                                  sim::Time min_value);

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }

  // Keys that were supplied but never read by any getter — typo detection.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

  // Turns every unused key into an error. Strict CLIs call this after
  // reading all their flags, so an unknown --flag fails the invocation
  // instead of being silently ignored.
  void reject_unknown();

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

}  // namespace incast::core

#endif  // INCAST_CORE_CLI_ARGS_H_
