// Tiny key=value configuration / CLI parser.
//
// Examples and benches share a flag style: `prog hours=50 ranks=4096
// threads=16`. Unknown keys are an error so typos surface immediately.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace bgqhf::util {

/// Typed error for an invalid BGQHF_* knob value (unknown enum name,
/// malformed number). Derives std::invalid_argument so existing catch
/// sites keep working; carries the knob/value pair so tests and callers
/// can assert on *which* knob was rejected rather than string-matching
/// the message.
class ConfigError : public std::invalid_argument {
 public:
  ConfigError(std::string knob, std::string value, const std::string& expected)
      : std::invalid_argument(knob + "=" + value + " invalid; expected " +
                              expected),
        knob_(std::move(knob)),
        value_(std::move(value)) {}

  const std::string& knob() const noexcept { return knob_; }
  const std::string& value() const noexcept { return value_; }

 private:
  std::string knob_;
  std::string value_;
};

class Config {
 public:
  Config() = default;

  /// Parse argv-style `key=value` tokens. Bare tokens (no '=') become
  /// boolean flags set to "1". Throws std::invalid_argument on malformed
  /// input (empty key).
  static Config from_args(int argc, const char* const* argv);

  /// Typed getters with defaults. Throw std::invalid_argument when the
  /// stored text does not parse as the requested type.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  bool has(const std::string& key) const;
  void set(const std::string& key, const std::string& value);

  /// Keys present in the config that were never read by a getter; examples
  /// call this after setup to reject typo'd flags.
  std::vector<std::string> unused_keys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

/// Typed snapshot of every BGQHF_* environment knob, read once.
///
/// Scattered std::getenv calls made knob behaviour depend on *when* each
/// subsystem first ran and were impossible to inject in tests. All knobs
/// now resolve here: get() caches the process environment on first use,
/// and tests swap the whole snapshot with set_for_tests().
struct RuntimeEnv {
  /// BGQHF_FORCE_KERNEL — GEMM kernel override ("scalar", "simd", ...).
  /// Empty means dispatch by CPU feature. Unknown names are rejected with
  /// ConfigError at first dispatch (blas::active_kernels()).
  std::string force_kernel;
  /// BGQHF_PRECISION — reduced-precision tier ("fp32"/"" = default,
  /// "bf16" = bf16 gradient wire bodies with fp32 GEMM, "int8" = int8 x
  /// int8 -> int32 GEMM with per-row/column scales). Parsed by
  /// blas::parse_precision, which throws ConfigError on anything else.
  std::string precision;
  /// BGQHF_COMPRESS — gradient-aggregation codec ("off"/"" = exact bitwise
  /// path, "topk" = threshold top-k dropping, "bf16" = dense bfloat16
  /// bodies). Parsed by simmpi::parse_compress_mode.
  std::string compress;
  /// BGQHF_COMPRESS_TOPK — target kept fraction for topk mode
  /// (0 = keep the CompressOptions default of 0.01).
  double compress_topk = 0;
  /// BGQHF_TRACE — enable trace-span recording (obs::tracing_enabled()).
  bool trace = false;
  /// BGQHF_TRACE_FILE — default Chrome trace output path ("" = none).
  std::string trace_file;
  /// BGQHF_SERVE_BATCH — serving batcher's target batch size in frames
  /// (0 = keep the ServeOptions default).
  std::uint64_t serve_batch = 0;
  /// BGQHF_SERVE_TIMEOUT_US — serving batcher's max wait for a full batch,
  /// in microseconds (0 = keep the ServeOptions default).
  std::uint64_t serve_timeout_us = 0;
  /// BGQHF_DATA_DIR — directory of a sharded corpus store (index.bgqsx +
  /// *.bgqs shards). When set, the trainer streams utterances out of core
  /// through ShardedSource instead of generating the corpus in RAM.
  std::string data_dir;
  /// BGQHF_PREFETCH_DEPTH — how many shards the store's background loader
  /// keeps decoded ahead of consumption (0 = keep the default of 2).
  /// Malformed values throw ConfigError.
  std::uint64_t prefetch_depth = 0;
  /// BGQHF_HF_LAMBDA0 — initial Levenberg-Marquardt damping for the HF
  /// optimizer (0 = keep the hf::HyperParams default of 1.0).
  double hf_lambda0 = 0;
  /// BGQHF_HF_CG_ITERS — truncated-CG iteration budget per outer HF
  /// iteration (0 = keep the default of 250). Malformed values throw
  /// ConfigError.
  std::uint64_t hf_cg_iters = 0;
  /// BGQHF_HF_RESAMPLE — fraction of local utterances resampled for each
  /// curvature batch (0 = keep the default of 0.02).
  double hf_resample = 0;
  /// BGQHF_LTFB_POPULATIONS — number of concurrent trainer populations in
  /// the LTFB tournament (0 = keep the LtfbOptions default). Malformed
  /// values throw ConfigError.
  std::uint64_t ltfb_populations = 0;
  /// BGQHF_LTFB_ROUND_ITERS — HF outer iterations each population runs
  /// between tournaments (0 = keep the default).
  std::uint64_t ltfb_round_iters = 0;
  /// BGQHF_LTFB_SEED — seed for the tournament schedule, hyperparameter
  /// perturbation, and mutation streams (0 = keep the default).
  std::uint64_t ltfb_seed = 0;

  /// Cached process snapshot (first call reads the environment).
  static const RuntimeEnv& get();

  /// Fresh, uncached read of the process environment. A BGQHF_* variable
  /// that none of the knobs above reads throws ConfigError naming it, so a
  /// misspelled or retired knob cannot silently change nothing.
  static RuntimeEnv from_process_env();

  /// Replace the cached snapshot (tests). Pair with reset_for_tests().
  static void set_for_tests(RuntimeEnv env);

  /// Drop any cached/injected snapshot; next get() re-reads the process
  /// environment.
  static void reset_for_tests();
};

}  // namespace bgqhf::util
