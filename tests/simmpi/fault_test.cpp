// Fault injection and timeout-aware receives: lost messages become typed
// TimeoutErrors instead of deadlocks, scheduled kills fire at exact op
// counts, and every injected decision replays bit-for-bit from the seed.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "simmpi/communicator.h"
#include "simmpi/fault.h"
#include "util/timer.h"

namespace bgqhf::simmpi {
namespace {

TEST(Fault, PopForTimesOutInsteadOfDeadlocking) {
  World world(1);
  util::Timer timer;
  const std::atomic<bool> revoked{false};
  const auto m = world.mailbox(0).pop(0, 7, /*context=*/0,
                                      Deadline::in(0.05).at(), revoked);
  EXPECT_FALSE(m.has_value());
  EXPECT_GE(timer.seconds(), 0.04);
}

TEST(Fault, PopForReturnsQueuedMessage) {
  World world(1);
  Message m;
  m.source = 0;
  m.tag = 3;
  m.payload = Payload(std::vector<std::byte>(4, std::byte{1}));
  world.mailbox(0).push(std::move(m));
  const std::atomic<bool> revoked{false};
  const auto got = world.mailbox(0).pop(0, 3, /*context=*/0,
                                        Deadline::in(1.0).at(), revoked);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 3);
  EXPECT_EQ(got->size_bytes(), 4u);
}

TEST(Fault, RecvForThrowsTypedTimeoutError) {
  std::atomic<int> rank{-1}, source{-1}, tag{-1};
  run_world(2, [&](Comm& comm) {
    if (comm.rank() != 0) return;  // rank 1 never sends
    try {
      comm.recv<int>(1, 3, Deadline::in(0.05));
      ADD_FAILURE() << "recv should have timed out";
    } catch (const TimeoutError& e) {
      rank = e.rank();
      source = e.source();
      tag = e.tag();
    }
  });
  EXPECT_EQ(rank.load(), 0);
  EXPECT_EQ(source.load(), 1);
  EXPECT_EQ(tag.load(), 3);
}

TEST(Fault, DroppedMessageTimesOutNotDeadlocks) {
  World world(2);
  FaultConfig fc;
  fc.seed = 11;
  fc.drop_probability = 1.0;
  world.install_faults(fc);
  std::atomic<bool> timed_out{false};
  run_ranks(world, [&](Comm& comm) {
    if (comm.rank() == 1) {
      const std::vector<int> payload{1, 2, 3};
      comm.send<int>(payload, 0, 5);
      return;
    }
    try {
      comm.recv<int>(1, 5, Deadline::in(0.1));
    } catch (const TimeoutError&) {
      timed_out = true;
    }
  });
  EXPECT_TRUE(timed_out.load());
  EXPECT_EQ(world.faults()->log(1).drops, 1u);
}

TEST(Fault, ScheduleReplaysDeterministically) {
  auto run_once = [](std::uint64_t seed) {
    World world(2);
    FaultConfig fc;
    fc.seed = seed;
    fc.drop_probability = 0.5;
    world.install_faults(fc);
    run_ranks(world, [&](Comm& comm) {
      if (comm.rank() != 1) return;
      const std::vector<int> payload{42};
      for (int i = 0; i < 32; ++i) comm.send<int>(payload, 0, i);
    });
    return world.faults()->log(1);
  };
  const FaultLog a = run_once(7);
  const FaultLog b = run_once(7);
  EXPECT_EQ(a.sends, 32u);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_GT(a.drops, 0u);   // p = 0.5 over 32 sends: both outcomes occur
  EXPECT_LT(a.drops, 32u);
  const FaultLog c = run_once(8);
  EXPECT_NE(a.actions, c.actions) << "different seed, same schedule";
}

TEST(Fault, KillFiresAtScheduledOpCountAndStaysDead) {
  World world(2);
  FaultConfig fc;
  fc.kills.push_back({/*rank=*/1, /*after_ops=*/3});
  world.install_faults(fc);
  std::atomic<int> completed{0};
  std::atomic<bool> dead_again{false};
  run_ranks(world, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 3; ++i) comm.recv<int>(1, 9);
      return;
    }
    const std::vector<int> payload{1};
    try {
      for (int i = 0; i < 10; ++i) {
        comm.send<int>(payload, 0, 9);
        ++completed;
      }
    } catch (const RankKilledError& e) {
      EXPECT_EQ(e.rank(), 1);
    }
    try {
      comm.send<int>(payload, 0, 9);  // every later op throws too
    } catch (const RankKilledError&) {
      dead_again = true;
    }
  });
  EXPECT_EQ(completed.load(), 3);
  EXPECT_TRUE(dead_again.load());
  EXPECT_TRUE(world.faults()->killed(1));
}

TEST(Fault, MultipleRankFailuresAggregateWithRankIds) {
  try {
    run_world(3, [&](Comm& comm) {
      if (comm.rank() == 0) return;
      throw std::runtime_error("boom " + std::to_string(comm.rank()));
    });
    FAIL() << "run_world should have thrown";
  } catch (const RankErrors& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].rank, 1);
    EXPECT_EQ(e.failures()[1].rank, 2);
    EXPECT_NE(e.failures()[0].what.find("boom 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[rank 2]"), std::string::npos);
  }
}

TEST(Fault, SingleFailurePreservesConcreteType) {
  EXPECT_THROW(run_world(2,
                         [&](Comm& comm) {
                           if (comm.rank() == 1) {
                             throw std::out_of_range("just rank 1");
                           }
                         }),
               std::out_of_range);
}

TEST(Fault, CorruptionFlipsExactlyOneBit) {
  World world(2);
  FaultConfig fc;
  fc.seed = 21;
  fc.corrupt_probability = 1.0;
  world.install_faults(fc);
  std::vector<std::uint8_t> sent(64);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> received;
  run_ranks(world, [&](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send<std::uint8_t>(sent, 0, 2);
    } else {
      received = comm.recv<std::uint8_t>(1, 2);
    }
  });
  ASSERT_EQ(received.size(), sent.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    flipped_bits += std::popcount(
        static_cast<unsigned>(sent[i] ^ received[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(world.faults()->log(1).corruptions, 1u);
}

TEST(Fault, DelayedMessageStillArrives) {
  World world(2);
  FaultConfig fc;
  fc.seed = 3;
  fc.delay_probability = 1.0;
  fc.delay_seconds = 0.05;
  world.install_faults(fc);
  std::atomic<bool> arrived{false};
  run_ranks(world, [&](Comm& comm) {
    if (comm.rank() == 1) {
      const std::vector<int> payload{5};
      comm.send<int>(payload, 0, 4);
    } else {
      arrived = comm.recv<int>(1, 4) == std::vector<int>{5};
    }
  });
  EXPECT_TRUE(arrived.load());
  EXPECT_EQ(world.faults()->log(1).delays, 1u);
}

TEST(Fault, BcastForTimesOutWhenRootIsSilent) {
  std::atomic<int> source{-1};
  run_world(2, [&](Comm& comm) {
    if (comm.rank() == 0) return;  // the root never broadcasts
    std::vector<float> data;
    try {
      comm.bcast(data, 0, Deadline::in(0.05));
    } catch (const TimeoutError& e) {
      source = e.source();
    }
  });
  EXPECT_EQ(source.load(), 0);
}

TEST(Fault, GatherForNamesTheSilentRank) {
  std::atomic<int> source{-1};
  run_world(3, [&](Comm& comm) {
    const std::vector<float> mine{static_cast<float>(comm.rank())};
    if (comm.rank() == 2) return;  // never contributes
    try {
      comm.gather<float>(mine, 0, Deadline::in(0.1));
    } catch (const TimeoutError& e) {
      source = e.source();
    }
  });
  EXPECT_EQ(source.load(), 2);
}

TEST(Fault, InactiveConfigInstallsNothing) {
  World world(2);
  world.install_faults(FaultConfig{});
  EXPECT_EQ(world.faults(), nullptr);
}

}  // namespace
}  // namespace bgqhf::simmpi
