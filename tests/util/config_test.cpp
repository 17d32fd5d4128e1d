#include "util/config.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace bgqhf::util {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValuePairs) {
  const Config cfg = parse({"hours=50", "name=test"});
  EXPECT_EQ(cfg.get_int("hours", 0), 50);
  EXPECT_EQ(cfg.get_string("name", ""), "test");
}

TEST(Config, FallbacksUsedWhenMissing) {
  const Config cfg = parse({});
  EXPECT_EQ(cfg.get_int("ranks", 1024), 1024);
  EXPECT_DOUBLE_EQ(cfg.get_double("frac", 0.02), 0.02);
  EXPECT_EQ(cfg.get_string("mode", "ce"), "ce");
  EXPECT_TRUE(cfg.get_bool("flag", true));
}

TEST(Config, BareTokenIsBooleanFlag) {
  const Config cfg = parse({"verbose"});
  EXPECT_TRUE(cfg.get_bool("verbose", false));
}

TEST(Config, BooleanSpellings) {
  const Config cfg =
      parse({"a=true", "b=false", "c=yes", "d=no", "e=on", "f=off"});
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
  EXPECT_TRUE(cfg.get_bool("e", false));
  EXPECT_FALSE(cfg.get_bool("f", true));
}

TEST(Config, MalformedNumberThrows) {
  const Config cfg = parse({"n=12x"});
  EXPECT_THROW(cfg.get_int("n", 0), std::invalid_argument);
}

TEST(Config, MalformedDoubleThrows) {
  const Config cfg = parse({"x=1.5y"});
  EXPECT_THROW(cfg.get_double("x", 0.0), std::invalid_argument);
}

TEST(Config, MalformedBoolThrows) {
  const Config cfg = parse({"b=maybe"});
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
}

TEST(Config, EmptyKeyThrows) {
  std::vector<const char*> argv{"prog", "=5"};
  EXPECT_THROW(Config::from_args(2, argv.data()), std::invalid_argument);
}

TEST(Config, UnusedKeysReported) {
  const Config cfg = parse({"used=1", "typo_key=2"});
  EXPECT_EQ(cfg.get_int("used", 0), 1);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo_key");
}

TEST(Config, NegativeAndFloatValues) {
  const Config cfg = parse({"a=-42", "b=-1.5e3"});
  EXPECT_EQ(cfg.get_int("a", 0), -42);
  EXPECT_DOUBLE_EQ(cfg.get_double("b", 0), -1500.0);
}

TEST(Config, SetOverridesValue) {
  Config cfg = parse({"k=1"});
  cfg.set("k", "2");
  EXPECT_EQ(cfg.get_int("k", 0), 2);
}

TEST(Config, ValueWithEqualsSign) {
  const Config cfg = parse({"expr=a=b"});
  EXPECT_EQ(cfg.get_string("expr", ""), "a=b");
}

TEST(RuntimeEnvServeKnobs, DefaultsAreZeroMeaningUnset) {
  const RuntimeEnv env;
  EXPECT_EQ(env.serve_batch, 0u);
  EXPECT_EQ(env.serve_timeout_us, 0u);
}

TEST(RuntimeEnvServeKnobs, SetForTestsInjectsSnapshot) {
  RuntimeEnv env;
  env.serve_batch = 96;
  env.serve_timeout_us = 1500;
  RuntimeEnv::set_for_tests(env);
  EXPECT_EQ(RuntimeEnv::get().serve_batch, 96u);
  EXPECT_EQ(RuntimeEnv::get().serve_timeout_us, 1500u);
  RuntimeEnv::reset_for_tests();
}

TEST(RuntimeEnvServeKnobs, FromProcessEnvParsesIntegers) {
  ASSERT_EQ(setenv("BGQHF_SERVE_BATCH", "48", 1), 0);
  ASSERT_EQ(setenv("BGQHF_SERVE_TIMEOUT_US", "2500", 1), 0);
  const RuntimeEnv env = RuntimeEnv::from_process_env();
  EXPECT_EQ(env.serve_batch, 48u);
  EXPECT_EQ(env.serve_timeout_us, 2500u);
  unsetenv("BGQHF_SERVE_BATCH");
  unsetenv("BGQHF_SERVE_TIMEOUT_US");
}

TEST(RuntimeEnvServeKnobs, MalformedValueThrows) {
  ASSERT_EQ(setenv("BGQHF_SERVE_BATCH", "lots", 1), 0);
  EXPECT_THROW(RuntimeEnv::from_process_env(), std::invalid_argument);
  unsetenv("BGQHF_SERVE_BATCH");
}

TEST(RuntimeEnvDataKnobs, FromProcessEnvReadsStoreKnobs) {
  ASSERT_EQ(setenv("BGQHF_DATA_DIR", "/data/store400h", 1), 0);
  ASSERT_EQ(setenv("BGQHF_PREFETCH_DEPTH", "4", 1), 0);
  const RuntimeEnv env = RuntimeEnv::from_process_env();
  EXPECT_EQ(env.data_dir, "/data/store400h");
  EXPECT_EQ(env.prefetch_depth, 4u);
  unsetenv("BGQHF_DATA_DIR");
  unsetenv("BGQHF_PREFETCH_DEPTH");
  const RuntimeEnv unset = RuntimeEnv::from_process_env();
  EXPECT_TRUE(unset.data_dir.empty());
  EXPECT_EQ(unset.prefetch_depth, 0u);
}

TEST(RuntimeEnvHfKnobs, FromProcessEnvReadsHyperAndLtfbKnobs) {
  ASSERT_EQ(setenv("BGQHF_HF_LAMBDA0", "0.25", 1), 0);
  ASSERT_EQ(setenv("BGQHF_HF_CG_ITERS", "120", 1), 0);
  ASSERT_EQ(setenv("BGQHF_HF_RESAMPLE", "0.05", 1), 0);
  ASSERT_EQ(setenv("BGQHF_LTFB_POPULATIONS", "8", 1), 0);
  ASSERT_EQ(setenv("BGQHF_LTFB_ROUND_ITERS", "5", 1), 0);
  ASSERT_EQ(setenv("BGQHF_LTFB_SEED", "9001", 1), 0);
  const RuntimeEnv env = RuntimeEnv::from_process_env();
  EXPECT_EQ(env.hf_lambda0, 0.25);
  EXPECT_EQ(env.hf_cg_iters, 120u);
  EXPECT_EQ(env.hf_resample, 0.05);
  EXPECT_EQ(env.ltfb_populations, 8u);
  EXPECT_EQ(env.ltfb_round_iters, 5u);
  EXPECT_EQ(env.ltfb_seed, 9001u);
  unsetenv("BGQHF_HF_LAMBDA0");
  unsetenv("BGQHF_HF_CG_ITERS");
  unsetenv("BGQHF_HF_RESAMPLE");
  unsetenv("BGQHF_LTFB_POPULATIONS");
  unsetenv("BGQHF_LTFB_ROUND_ITERS");
  unsetenv("BGQHF_LTFB_SEED");
  const RuntimeEnv unset = RuntimeEnv::from_process_env();
  EXPECT_EQ(unset.hf_lambda0, 0.0);
  EXPECT_EQ(unset.ltfb_populations, 0u);
  EXPECT_EQ(unset.ltfb_seed, 0u);
}

TEST(RuntimeEnvHfKnobs, ResampleFractionMustBeFiniteAndAtMostOne) {
  // Each of these once reached a float-to-size_t cast (inf), was silently
  // ignored (nan, -1) or asked for more frames than a shard holds (2).
  for (const char* bad : {"inf", "-inf", "nan", "-1", "2", "1.5"}) {
    ASSERT_EQ(setenv("BGQHF_HF_RESAMPLE", bad, 1), 0);
    try {
      RuntimeEnv::from_process_env();
      ADD_FAILURE() << "expected ConfigError for " << bad;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.knob(), "BGQHF_HF_RESAMPLE");
      EXPECT_EQ(e.value(), bad);
    }
  }
  const std::pair<const char*, double> good[] = {
      {"", 0.0}, {"0", 0.0}, {"0.05", 0.05}, {"1", 1.0}};
  for (const auto& [value, expected] : good) {
    ASSERT_EQ(setenv("BGQHF_HF_RESAMPLE", value, 1), 0);
    EXPECT_EQ(RuntimeEnv::from_process_env().hf_resample, expected) << value;
  }
  unsetenv("BGQHF_HF_RESAMPLE");
}

TEST(RuntimeEnvHfKnobs, Lambda0MustBeFiniteAndNonNegative) {
  for (const char* bad : {"inf", "nan", "-1", "-0.5"}) {
    ASSERT_EQ(setenv("BGQHF_HF_LAMBDA0", bad, 1), 0);
    try {
      RuntimeEnv::from_process_env();
      ADD_FAILURE() << "expected ConfigError for " << bad;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.knob(), "BGQHF_HF_LAMBDA0");
      EXPECT_EQ(e.value(), bad);
    }
  }
  const std::pair<const char*, double> good[] = {
      {"", 0.0}, {"0", 0.0}, {"3.5", 3.5}, {"1e6", 1e6}};
  for (const auto& [value, expected] : good) {
    ASSERT_EQ(setenv("BGQHF_HF_LAMBDA0", value, 1), 0);
    EXPECT_EQ(RuntimeEnv::from_process_env().hf_lambda0, expected) << value;
  }
  unsetenv("BGQHF_HF_LAMBDA0");
}

TEST(RuntimeEnvHfKnobs, MalformedLtfbPopulationsNamesTheKnob) {
  ASSERT_EQ(setenv("BGQHF_LTFB_POPULATIONS", "many", 1), 0);
  try {
    RuntimeEnv::from_process_env();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.knob(), "BGQHF_LTFB_POPULATIONS");
    EXPECT_EQ(e.value(), "many");
  }
  unsetenv("BGQHF_LTFB_POPULATIONS");
}

TEST(RuntimeEnvDataKnobs, MalformedPrefetchDepthNamesTheKnob) {
  ASSERT_EQ(setenv("BGQHF_PREFETCH_DEPTH", "deep", 1), 0);
  try {
    RuntimeEnv::from_process_env();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.knob(), "BGQHF_PREFETCH_DEPTH");
    EXPECT_EQ(e.value(), "deep");
  }
  unsetenv("BGQHF_PREFETCH_DEPTH");
}

TEST(RuntimeEnvServeKnobs, MalformedServeBatchNamesTheKnob) {
  // A sign is malformed too: strtoull would have wrapped it to 2^64 - 3.
  ASSERT_EQ(setenv("BGQHF_SERVE_BATCH", "-3", 1), 0);
  try {
    RuntimeEnv::from_process_env();
    ADD_FAILURE() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.knob(), "BGQHF_SERVE_BATCH");
    EXPECT_EQ(e.value(), "-3");
  }
  unsetenv("BGQHF_SERVE_BATCH");
}

TEST(RuntimeEnvCompressKnobs, MalformedTopkFractionNamesTheKnob) {
  // nan and inf once parsed, passed a `< 0 || > 1` check and reached a
  // float-to-size_t cast in the top-k codec.
  for (const char* bad : {"5%", "nan", "inf", "-inf", "-0.5", "2"}) {
    ASSERT_EQ(setenv("BGQHF_COMPRESS_TOPK", bad, 1), 0);
    try {
      RuntimeEnv::from_process_env();
      ADD_FAILURE() << "expected ConfigError for " << bad;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.knob(), "BGQHF_COMPRESS_TOPK");
      EXPECT_EQ(e.value(), bad);
    }
  }
  unsetenv("BGQHF_COMPRESS_TOPK");
}

TEST(RuntimeEnvFlags, AcceptsOnlyTheBooleanSpellings) {
  const std::pair<const char*, bool> cases[] = {
      {"", false},     {"0", false},   {"false", false}, {"no", false},
      {"off", false},  {"1", true},    {"true", true},   {"yes", true},
      {"on", true}};
  for (const auto& [value, expected] : cases) {
    ASSERT_EQ(setenv("BGQHF_TRACE", value, 1), 0);
    EXPECT_EQ(RuntimeEnv::from_process_env().trace, expected) << value;
  }
  unsetenv("BGQHF_TRACE");
  EXPECT_FALSE(RuntimeEnv::from_process_env().trace);
}

TEST(RuntimeEnvFlags, MisspelledFlagThrowsInsteadOfEnabling) {
  // "flase" used to read as on: anything but the listed spellings was true.
  ASSERT_EQ(setenv("BGQHF_TRACE", "flase", 1), 0);
  RuntimeEnv::reset_for_tests();  // next get() re-reads the environment
  try {
    RuntimeEnv::get();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.knob(), "BGQHF_TRACE");
    EXPECT_EQ(e.value(), "flase");
  }
  unsetenv("BGQHF_TRACE");
  ASSERT_EQ(setenv("BGQHF_TRACE", "enabled", 1), 0);
  EXPECT_THROW(RuntimeEnv::from_process_env(), ConfigError);
  unsetenv("BGQHF_TRACE");

  // An injected snapshot bypasses parsing entirely, as before.
  RuntimeEnv env;
  env.trace = true;
  RuntimeEnv::set_for_tests(env);
  EXPECT_TRUE(RuntimeEnv::get().trace);
  RuntimeEnv::reset_for_tests();
  EXPECT_FALSE(RuntimeEnv::get().trace);
}

TEST(RuntimeEnvKnobs, UnknownKnobNameThrowsNamingIt) {
  // A retired or misspelled knob must not be silently ignored.
  for (const char* name : {"BGQHF_OVERLAP", "BGQHF_SERVE_REPLICAS"}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(setenv(name, "1", 1), 0);
    try {
      RuntimeEnv::from_process_env();
      ADD_FAILURE() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.knob(), name);
      EXPECT_EQ(e.value(), "1");
    }
    unsetenv(name);
    EXPECT_NO_THROW(RuntimeEnv::from_process_env());
  }
}

}  // namespace
}  // namespace bgqhf::util
