#include "util/config.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <type_traits>

extern char** environ;

namespace bgqhf::util {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      cfg.values_[tok] = "1";
      continue;
    }
    const std::string key = tok.substr(0, eq);
    if (key.empty()) {
      throw std::invalid_argument("malformed flag: '" + tok + "'");
    }
    cfg.values_[key] = tok.substr(eq + 1);
  }
  return cfg;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  used_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  used_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::invalid_argument(key + ": not an integer: " + it->second);
  }
  return v;
}

double Config::get_double(const std::string& key, double fallback) const {
  used_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  const double v = std::stod(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::invalid_argument(key + ": not a number: " + it->second);
  }
  return v;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  used_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument(key + ": not a boolean: " + v);
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (used_.count(k) == 0) out.push_back(k);
  }
  return out;
}

// ---- RuntimeEnv ----

namespace {

/// Reads BGQHF_* knobs and remembers every name it was asked for, so the
/// variables nobody reads can be rejected by the same list of reads.
class EnvReader {
 public:
  std::string string(const char* name) {
    const char* v = get(name);
    return v == nullptr ? std::string() : std::string(v);
  }

  /// Unset or empty is off; a misspelling throws rather than reading as on.
  bool flag(const char* name) {
    const char* v = get(name);
    if (v == nullptr) return false;
    const std::string s(v);
    if (s.empty() || s == "0" || s == "false" || s == "no" || s == "off") {
      return false;
    }
    if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
    throw ConfigError(name, s, "0|1|false|true|no|yes|off|on");
  }

  /// Unset or empty reads as 0; anything else must parse in full as a T
  /// (an unsigned integer or a number), or ConfigError names the knob.
  template <typename T>
  T number(const char* name) {
    const char* v = get(name);
    if (v == nullptr || *v == '\0') return 0;
    const char* end = v + std::strlen(v);
    T parsed{};
    const auto [ptr, ec] = std::from_chars(v, end, parsed);
    if (ec != std::errc() || ptr != end) {
      throw ConfigError(name, v,
                        std::is_floating_point_v<T> ? "a number"
                                                    : "an unsigned integer");
    }
    return parsed;
  }

  /// number<double>, but finite and in [0, max]: NaN, infinities and
  /// negatives are malformed, not "keep the default".
  double bounded(const char* name, double max, const char* expected) {
    const double v = number<double>(name);
    if (!std::isfinite(v) || v < 0 || v > max) {
      throw ConfigError(name, get(name), expected);
    }
    return v;
  }

  /// Throw ConfigError naming the first BGQHF_* variable in the process
  /// environment that no read above asked for.
  void reject_unread() const {
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string_view entry(*e);
      if (!entry.starts_with("BGQHF_")) continue;
      const std::size_t eq = entry.find('=');
      const std::string name(entry.substr(0, eq));
      if (read_.count(name) != 0) continue;
      throw ConfigError(
          name,
          eq == std::string_view::npos ? "" : std::string(entry.substr(eq + 1)),
          "unset: no BGQHF_* knob has this name");
    }
  }

 private:
  const char* get(const char* name) {
    read_.insert(name);
    return std::getenv(name);
  }

  std::set<std::string> read_;
};

std::mutex& runtime_env_mutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::unique_ptr<RuntimeEnv>& runtime_env_slot() {
  static std::unique_ptr<RuntimeEnv>* slot =
      new std::unique_ptr<RuntimeEnv>();
  return *slot;
}

}  // namespace

RuntimeEnv RuntimeEnv::from_process_env() {
  RuntimeEnv env;
  EnvReader read;
  env.force_kernel = read.string("BGQHF_FORCE_KERNEL");
  env.precision = read.string("BGQHF_PRECISION");
  env.compress = read.string("BGQHF_COMPRESS");
  env.compress_topk = read.bounded("BGQHF_COMPRESS_TOPK", 1.0,
                                   "0 or a finite fraction in (0, 1]");
  env.trace = read.flag("BGQHF_TRACE");
  env.trace_file = read.string("BGQHF_TRACE_FILE");
  env.serve_batch = read.number<std::uint64_t>("BGQHF_SERVE_BATCH");
  env.serve_timeout_us = read.number<std::uint64_t>("BGQHF_SERVE_TIMEOUT_US");
  env.data_dir = read.string("BGQHF_DATA_DIR");
  env.prefetch_depth = read.number<std::uint64_t>("BGQHF_PREFETCH_DEPTH");
  env.hf_lambda0 = read.bounded("BGQHF_HF_LAMBDA0",
                                std::numeric_limits<double>::max(),
                                "a finite number >= 0");
  env.hf_cg_iters = read.number<std::uint64_t>("BGQHF_HF_CG_ITERS");
  env.hf_resample = read.bounded("BGQHF_HF_RESAMPLE", 1.0,
                                 "0 or a finite fraction in (0, 1]");
  env.ltfb_populations = read.number<std::uint64_t>("BGQHF_LTFB_POPULATIONS");
  env.ltfb_round_iters = read.number<std::uint64_t>("BGQHF_LTFB_ROUND_ITERS");
  env.ltfb_seed = read.number<std::uint64_t>("BGQHF_LTFB_SEED");
  read.reject_unread();
  return env;
}

const RuntimeEnv& RuntimeEnv::get() {
  std::lock_guard<std::mutex> lock(runtime_env_mutex());
  auto& slot = runtime_env_slot();
  if (slot == nullptr) {
    slot = std::make_unique<RuntimeEnv>(from_process_env());
  }
  return *slot;
}

void RuntimeEnv::set_for_tests(RuntimeEnv env) {
  std::lock_guard<std::mutex> lock(runtime_env_mutex());
  runtime_env_slot() = std::make_unique<RuntimeEnv>(std::move(env));
}

void RuntimeEnv::reset_for_tests() {
  std::lock_guard<std::mutex> lock(runtime_env_mutex());
  runtime_env_slot().reset();
}

}  // namespace bgqhf::util
