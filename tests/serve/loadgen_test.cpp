// Load generator: seeded traces must replay byte-for-byte (CI asserts
// exact outcomes on them) and the report must account for every request.
#include <gtest/gtest.h>

#include <cstring>

#include "serve/engine.h"
#include "serve/loadgen.h"
#include "util/rng.h"

namespace bgqhf::serve {
namespace {

std::shared_ptr<const ModelRuntime> make_model() {
  nn::Network net = nn::Network::mlp(5, {7}, 3);
  util::Rng rng(1);
  net.init_glorot(rng);
  return std::make_shared<ModelRuntime>(std::move(net));
}

TEST(LoadGen, SameSeedSameTraceBitwise) {
  LoadGenOptions options;
  options.num_requests = 32;
  options.rate_rps = 500.0;
  options.min_frames = 1;
  options.max_frames = 4;
  options.seed = 77;
  const auto a = generate_trace(options, 5);
  const auto b = generate_trace(options, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    ASSERT_EQ(a[i].features.rows(), b[i].features.rows());
    ASSERT_EQ(
        0, std::memcmp(a[i].features.data(), b[i].features.data(),
                       a[i].features.size() * sizeof(float)));
  }
}

TEST(LoadGen, DifferentSeedDifferentTrace) {
  LoadGenOptions options;
  options.num_requests = 8;
  options.rate_rps = 500.0;
  options.seed = 1;
  const auto a = generate_trace(options, 5);
  options.seed = 2;
  const auto b = generate_trace(options, 5);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a[i].arrival_s != b[i].arrival_s ||
               std::memcmp(a[i].features.data(), b[i].features.data(),
                           std::min(a[i].features.size(),
                                    b[i].features.size()) *
                               sizeof(float)) != 0;
  }
  EXPECT_TRUE(any_diff);
}

TEST(LoadGen, TraceShapesRespectOptions) {
  LoadGenOptions options;
  options.num_requests = 64;
  options.rate_rps = 1000.0;
  options.min_frames = 2;
  options.max_frames = 5;
  const auto trace = generate_trace(options, 6);
  ASSERT_EQ(trace.size(), 64u);
  double prev = 0.0;
  for (const auto& r : trace) {
    EXPECT_GE(r.arrival_s, prev);  // arrivals are non-decreasing
    prev = r.arrival_s;
    EXPECT_GE(r.features.rows(), 2u);
    EXPECT_LE(r.features.rows(), 5u);
    EXPECT_EQ(r.features.cols(), 6u);
  }
  EXPECT_GT(prev, 0.0);
}

TEST(LoadGen, UnpacedTraceArrivesAtTimeZero) {
  LoadGenOptions options;
  options.num_requests = 4;
  options.rate_rps = 0.0;
  for (const auto& r : generate_trace(options, 3)) {
    EXPECT_EQ(r.arrival_s, 0.0);
  }
}

TEST(LoadGen, BadFrameRangeThrows) {
  LoadGenOptions options;
  options.min_frames = 0;
  EXPECT_THROW(generate_trace(options, 3), std::invalid_argument);
  options.min_frames = 4;
  options.max_frames = 2;
  EXPECT_THROW(generate_trace(options, 3), std::invalid_argument);
}

TEST(LoadGen, UncontendedReplayCompletesEverythingWithZeroRejects) {
  ServeOptions serve;
  serve.max_batch_frames = 16;
  serve.batch_timeout_us = 200;
  serve.queue_capacity = 1024;
  serve.threads = 2;
  Engine engine(make_model(), serve);

  LoadGenOptions load;
  load.num_requests = 96;
  load.rate_rps = 0.0;  // saturation probe: submit everything at once
  load.min_frames = 1;
  load.max_frames = 3;
  load.seed = 5;
  const LoadGenReport report = run_load(engine, load);
  EXPECT_EQ(report.submitted, 96u);
  EXPECT_EQ(report.completed, 96u);
  EXPECT_EQ(report.rejected_overloaded, 0u);
  EXPECT_EQ(report.rejected_deadline, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.requests_per_s, 0.0);
  EXPECT_GT(report.frames_per_s, 0.0);
  EXPECT_GT(report.latency_mean_us, 0.0);
  EXPECT_LE(report.latency_p50_us, report.latency_p99_us);
}

TEST(LoadGen, OverloadIsCountedNotFatal) {
  ServeOptions serve;
  serve.queue_capacity = 0;  // every submission rejected
  serve.threads = 1;
  Engine engine(make_model(), serve);

  LoadGenOptions load;
  load.num_requests = 16;
  const LoadGenReport report = run_load(engine, load);
  EXPECT_EQ(report.submitted, 0u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.rejected_overloaded, 16u);
  EXPECT_EQ(report.failed, 0u);
}

}  // namespace
}  // namespace bgqhf::serve
