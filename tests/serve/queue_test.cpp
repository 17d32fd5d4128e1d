// RequestQueue admission/backpressure and the DynamicBatcher's
// size-or-timeout policy, tested without an engine so failures localize.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/error.h"
#include "serve/request_queue.h"

namespace bgqhf::serve {
namespace {

using std::chrono::microseconds;

Request make_request(std::uint64_t id, std::size_t frames) {
  Request r;
  r.id = id;
  r.features = blas::Matrix<float>(frames, 3);
  return r;
}

TEST(RequestQueue, PopsInFifoOrder) {
  RequestQueue q(8);
  q.push(make_request(1, 1));
  q.push(make_request(2, 1));
  q.push(make_request(3, 1));
  const auto batch = q.pop_batch(100, microseconds(0));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_EQ(batch[2].id, 3u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, PushStampsEnqueueTime) {
  RequestQueue q(2);
  const auto before = Clock::now();
  q.push(make_request(1, 1));
  auto batch = q.pop_batch(1, microseconds(0));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GE(batch[0].enqueued, before);
  EXPECT_LE(batch[0].enqueued, Clock::now());
}

TEST(RequestQueue, OverloadedAtCapacity) {
  RequestQueue q(2);
  q.push(make_request(1, 1));
  q.push(make_request(2, 1));
  try {
    q.push(make_request(3, 1));
    FAIL() << "push over capacity not rejected";
  } catch (const Overloaded& e) {
    EXPECT_EQ(e.capacity(), 2u);
  }
  // Rejection sheds the new request; the queued ones are untouched.
  EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, ZeroCapacityRejectsEverything) {
  RequestQueue q(0);
  EXPECT_THROW(q.push(make_request(1, 1)), Overloaded);
}

TEST(RequestQueue, PushAfterCloseThrowsEngineStopped) {
  RequestQueue q(4);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_THROW(q.push(make_request(1, 1)), EngineStopped);
}

TEST(RequestQueue, ClosedQueueDrainsThenReturnsEmpty) {
  RequestQueue q(4);
  q.push(make_request(1, 2));
  q.push(make_request(2, 2));
  q.close();
  const auto batch = q.pop_batch(100, microseconds(0));
  EXPECT_EQ(batch.size(), 2u);
  const auto empty = q.pop_batch(100, microseconds(0));
  EXPECT_TRUE(empty.empty());
}

TEST(RequestQueue, SizeTriggerShipsWithoutWaitingOutTimeout) {
  RequestQueue q(8);
  q.push(make_request(1, 4));
  q.push(make_request(2, 4));
  const auto t0 = Clock::now();
  // 8 frames pending >= target 8: must return immediately despite the
  // 10-second timeout.
  const auto batch = q.pop_batch(8, microseconds(10'000'000));
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(RequestQueue, TimeoutShipsPartialBatch) {
  RequestQueue q(8);
  q.push(make_request(1, 1));
  const auto batch = q.pop_batch(1024, microseconds(2000));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 1u);
}

TEST(RequestQueue, FirstRequestAlwaysShipsEvenWhenOversized) {
  RequestQueue q(8);
  q.push(make_request(1, 100));  // larger than the 8-frame target
  const auto batch = q.pop_batch(8, microseconds(0));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].frames(), 100u);
}

TEST(RequestQueue, BatchStopsBeforeOvershootingTarget) {
  RequestQueue q(8);
  q.push(make_request(1, 3));
  q.push(make_request(2, 3));
  q.push(make_request(3, 3));
  // 3 + 3 = 6 <= 7, adding the third would overshoot: ship two.
  const auto batch = q.pop_batch(7, microseconds(0));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(RequestQueue, PushWakesBlockedPopper) {
  RequestQueue q(8);
  auto popped = std::async(std::launch::async, [&q] {
    return q.pop_batch(4, microseconds(1'000'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.push(make_request(7, 4));
  const auto batch = popped.get();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 7u);
}

TEST(RequestQueue, DrainCloseKeepsQueuedRequestsPoppable) {
  RequestQueue q(8);
  Request a = make_request(1, 1);
  std::future<Response> fa = a.reply.get_future();
  q.push(std::move(a));
  q.close();
  // Close drains: the queued request is still there for a worker to score.
  const auto batch = q.pop_batch(100, microseconds(0));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(fa.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
}

TEST(RequestQueue, CloseWakesBlockedPopper) {
  RequestQueue q(8);
  auto popped = std::async(std::launch::async, [&q] {
    return q.pop_batch(4, microseconds(60'000'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  EXPECT_TRUE(popped.get().empty());
}

TEST(DynamicBatcher, ReturnsLiveBatchAndHonorsPolicy) {
  ServeOptions options;
  options.max_batch_frames = 4;
  options.batch_timeout_us = 1000;
  RequestQueue q(8);
  DynamicBatcher batcher(q, options);
  q.push(make_request(1, 2));
  q.push(make_request(2, 2));
  const auto batch = batcher.next_batch();
  EXPECT_EQ(batch.size(), 2u);
}

TEST(DynamicBatcher, RejectsExpiredDeadlinesWithTypedError) {
  ServeOptions options;
  options.max_batch_frames = 4;
  options.batch_timeout_us = 100;
  RequestQueue q(8);
  DynamicBatcher batcher(q, options);

  Request expired = make_request(1, 1);
  expired.deadline = Clock::now() - std::chrono::milliseconds(5);
  std::future<Response> expired_reply = expired.reply.get_future();
  Request live = make_request(2, 1);
  live.deadline = Clock::now() + std::chrono::hours(1);
  std::future<Response> live_reply = live.reply.get_future();

  q.push(std::move(expired));
  q.push(std::move(live));
  const auto batch = batcher.next_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 2u);
  EXPECT_THROW(expired_reply.get(), DeadlineExceeded);
  EXPECT_EQ(live_reply.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
}

TEST(DynamicBatcher, KeepsWaitingWhenWholeBatchExpired) {
  ServeOptions options;
  options.max_batch_frames = 2;
  options.batch_timeout_us = 100;
  RequestQueue q(8);
  DynamicBatcher batcher(q, options);

  Request expired = make_request(1, 1);
  expired.deadline = Clock::now() - std::chrono::milliseconds(5);
  std::future<Response> expired_reply = expired.reply.get_future();
  q.push(std::move(expired));
  // All requests in the first pop are dead; the batcher must not report
  // "closed" — it loops and returns the next live batch.
  q.push(make_request(2, 2));
  const auto batch = batcher.next_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 2u);
  EXPECT_THROW(expired_reply.get(), DeadlineExceeded);
}

TEST(DynamicBatcher, EmptyBatchMeansClosedAndDrained) {
  ServeOptions options;
  RequestQueue q(8);
  DynamicBatcher batcher(q, options);
  q.close();
  EXPECT_TRUE(batcher.next_batch().empty());
}

}  // namespace
}  // namespace bgqhf::serve
