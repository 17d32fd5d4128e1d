// End-to-end engine behaviour: submit/score/respond, typed backpressure,
// deadline rejection, hot model swap, and graceful drain on stop.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "hf/checkpoint.h"
#include "serve/engine.h"
#include "serve/error.h"
#include "util/rng.h"

namespace bgqhf::serve {
namespace {

using std::chrono::microseconds;

nn::Network make_net(std::uint64_t seed) {
  nn::Network net = nn::Network::mlp(4, {6}, 3);
  util::Rng rng(seed);
  net.init_glorot(rng);
  return net;
}

std::shared_ptr<const ModelRuntime> make_model(std::uint64_t seed) {
  return std::make_shared<ModelRuntime>(make_net(seed));
}

blas::Matrix<float> make_features(std::size_t frames, std::size_t dim,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  blas::Matrix<float> m(frames, dim);
  for (std::size_t r = 0; r < frames; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      m(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

void expect_bitwise(const blas::Matrix<float>& a,
                    const blas::Matrix<float>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      std::uint32_t ba = 0, bb = 0;
      const float fa = a(r, c), fb = b(r, c);
      std::memcpy(&ba, &fa, sizeof(ba));
      std::memcpy(&bb, &fb, sizeof(bb));
      ASSERT_EQ(ba, bb) << "row " << r << " col " << c;
    }
  }
}

ServeOptions quick_options() {
  ServeOptions options;
  options.max_batch_frames = 8;
  options.batch_timeout_us = 200;
  options.queue_capacity = 64;
  options.threads = 2;
  return options;
}

TEST(Engine, ResponsesMatchDirectScoringBitwise) {
  auto model = make_model(1);
  Engine engine(model, quick_options());
  std::vector<std::future<Response>> futures;
  std::vector<blas::Matrix<float>> inputs;
  for (std::uint64_t i = 0; i < 12; ++i) {
    inputs.push_back(make_features(1 + i % 3, model->input_dim(), 100 + i));
    blas::Matrix<float> copy(inputs.back().rows(), inputs.back().cols());
    for (std::size_t r = 0; r < copy.rows(); ++r) {
      for (std::size_t c = 0; c < copy.cols(); ++c) {
        copy(r, c) = inputs.back()(r, c);
      }
    }
    futures.push_back(engine.submit(std::move(copy)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response resp = futures[i].get();
    EXPECT_EQ(resp.model_version, 1u);
    EXPECT_GE(resp.queue_wait_us, 0.0);
    EXPECT_GE(resp.total_us, resp.queue_wait_us);
    expect_bitwise(resp.logits, model->score(inputs[i].view()));
  }
}

TEST(Engine, RejectsFeatureDimensionMismatch) {
  Engine engine(make_model(1), quick_options());
  EXPECT_THROW(
      engine.submit(blas::Matrix<float>(2, engine.input_dim() + 1)),
      std::invalid_argument);
  EXPECT_THROW(engine.submit(blas::Matrix<float>(0, engine.input_dim())),
               std::invalid_argument);
}

TEST(Engine, ZeroCapacityQueueRejectsWithOverloaded) {
  ServeOptions options = quick_options();
  options.queue_capacity = 0;
  Engine engine(make_model(1), options);
  EXPECT_THROW(engine.submit(make_features(1, engine.input_dim(), 5)),
               Overloaded);
}

TEST(Engine, ExpiredDeadlineFailsFutureTyped) {
  ServeOptions options = quick_options();
  // Huge batch target + long batch timeout: a lone request waits in the
  // queue well past its 1 us deadline before any batch forms.
  options.max_batch_frames = 1 << 20;
  options.batch_timeout_us = 20'000;
  options.threads = 1;
  Engine engine(make_model(1), options);
  auto fut =
      engine.submit(make_features(1, engine.input_dim(), 5), microseconds(1));
  EXPECT_THROW(fut.get(), DeadlineExceeded);
}

TEST(Engine, HotSwapServesNewWeightsAndBumpsVersion) {
  auto a = make_model(1);
  auto b = make_model(2);
  Engine engine(a, quick_options());
  EXPECT_EQ(engine.model_version(), 1u);

  const auto x = make_features(2, engine.input_dim(), 9);
  blas::Matrix<float> x1(x.rows(), x.cols());
  blas::Matrix<float> x2(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      x1(r, c) = x(r, c);
      x2(r, c) = x(r, c);
    }
  }
  const Response before = engine.submit(std::move(x1)).get();
  EXPECT_EQ(before.model_version, 1u);
  expect_bitwise(before.logits, a->score(x.view()));

  EXPECT_EQ(engine.swap_model(b), 2u);
  EXPECT_EQ(engine.model_version(), 2u);
  const Response after = engine.submit(std::move(x2)).get();
  EXPECT_EQ(after.model_version, 2u);
  expect_bitwise(after.logits, b->score(x.view()));
}

TEST(Engine, SwapRejectsIncompatibleTopology) {
  Engine engine(make_model(1), quick_options());
  nn::Network other = nn::Network::mlp(5, {6}, 3);  // input_dim differs
  util::Rng rng(3);
  other.init_glorot(rng);
  EXPECT_THROW(
      engine.swap_model(std::make_shared<ModelRuntime>(std::move(other))),
      std::invalid_argument);
  EXPECT_EQ(engine.model_version(), 1u);
}

TEST(Engine, SwapCheckpointLoadsWeightsOntoCurrentTopology) {
  const nn::Network trained = make_net(42);
  hf::TrainerCheckpoint ckpt;
  ckpt.completed_iterations = 17;
  ckpt.hf_seed = 1;
  ckpt.theta.assign(trained.params().begin(), trained.params().end());
  ckpt.d0.assign(trained.num_params(), 0.0f);
  const std::string path = ::testing::TempDir() + "engine_swap.ckpt";
  hf::save_checkpoint(ckpt, path);

  Engine engine(make_model(1), quick_options());
  EXPECT_EQ(engine.swap_checkpoint(path), 2u);
  EXPECT_EQ(engine.model()->trained_iterations(), 17u);

  const auto x = make_features(3, engine.input_dim(), 21);
  blas::Matrix<float> x1(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x1(r, c) = x(r, c);
  }
  const Response resp = engine.submit(std::move(x1)).get();
  expect_bitwise(resp.logits, ModelRuntime(make_net(42)).score(x.view()));
}

TEST(Engine, FailedCheckpointSwapKeepsServingCurrentModel) {
  Engine engine(make_model(1), quick_options());
  EXPECT_THROW(engine.swap_checkpoint("/nonexistent/model.ckpt"),
               hf::CheckpointError);
  EXPECT_EQ(engine.model_version(), 1u);
  EXPECT_NO_THROW(
      engine.submit(make_features(1, engine.input_dim(), 2)).get());
}

TEST(Engine, SwapUnderConcurrentLoadWithFullQueueTearsNothing) {
  // Hot swap while a producer keeps the tiny queue saturated: every
  // admitted request must complete (none dropped by the swap), and every
  // response must bitwise-match the model of the version it reports —
  // a torn read of the installed model would break one or the other.
  ServeOptions options = quick_options();
  options.queue_capacity = 4;  // small: swaps land while the queue is full
  options.threads = 2;
  auto a = make_model(1);
  auto b = make_model(2);
  Engine engine(a, options);

  const auto x = make_features(2, a->input_dim(), 77);
  std::vector<std::future<Response>> futures;
  std::size_t overloaded = 0;
  for (int i = 0; i < 200; ++i) {
    blas::Matrix<float> copy(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) copy(r, c) = x(r, c);
    }
    try {
      futures.push_back(engine.submit(std::move(copy)));
    } catch (const Overloaded&) {
      ++overloaded;  // backpressure is fine; dropping an admitted one is not
    }
    if (i % 20 == 10) {
      engine.swap_model(engine.model_version() % 2 == 1 ? b : a);
    }
  }
  EXPECT_GT(futures.size(), 0u);
  const blas::Matrix<float> from_a = a->score(x.view());
  const blas::Matrix<float> from_b = b->score(x.view());
  for (auto& fut : futures) {
    const Response resp = fut.get();  // throws if any request was dropped
    // Odd versions are model a (started at 1), even are b.
    expect_bitwise(resp.logits,
                   resp.model_version % 2 == 1 ? from_a : from_b);
  }
}

TEST(Engine, StopDrainsQueuedRequests) {
  ServeOptions options = quick_options();
  options.batch_timeout_us = 50'000;  // requests sit queued when stop() hits
  options.max_batch_frames = 1 << 20;
  options.threads = 1;
  auto model = make_model(1);
  Engine engine(model, options);
  std::vector<std::future<Response>> futures;
  for (std::uint64_t i = 0; i < 8; ++i) {
    futures.push_back(
        engine.submit(make_features(1, model->input_dim(), 50 + i)));
  }
  engine.stop();
  for (auto& fut : futures) EXPECT_NO_THROW(fut.get());
  EXPECT_THROW(engine.submit(make_features(1, model->input_dim(), 99)),
               EngineStopped);
  engine.stop();  // idempotent
}

}  // namespace
}  // namespace bgqhf::serve
