#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "simmpi/communicator.h"

namespace bgqhf::simmpi {
namespace {

TEST(P2P, SendRecvRoundtrip) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<float> data{1.0f, 2.0f, 3.0f};
      comm.send<float>(data, 1, 7);
    } else {
      const auto got = comm.recv<float>(0, 7);
      EXPECT_EQ(got, (std::vector<float>{1.0f, 2.0f, 3.0f}));
    }
  });
}

TEST(P2P, TagsKeepStreamsSeparate) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(std::vector<int>{111}, 1, 1);
      comm.send<int>(std::vector<int>{222}, 1, 2);
    } else {
      // Receive in reverse tag order: matching must pick by tag, not FIFO.
      EXPECT_EQ(comm.recv<int>(0, 2).at(0), 222);
      EXPECT_EQ(comm.recv<int>(0, 1).at(0), 111);
    }
  });
}

TEST(P2P, AnySourceMatchesEitherSender) {
  run_world(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send<int>(std::vector<int>{comm.rank()}, 0, 5);
    } else {
      Status s1, s2;
      const auto a = comm.recv<int>(kAnySource, 5, Deadline::never(), &s1);
      const auto b = comm.recv<int>(kAnySource, 5, Deadline::never(), &s2);
      EXPECT_EQ(a.at(0), s1.source);
      EXPECT_EQ(b.at(0), s2.source);
      EXPECT_NE(s1.source, s2.source);
    }
  });
}

TEST(P2P, MessageOrderPreservedPerSenderAndTag) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        comm.send<int>(std::vector<int>{i}, 1, 3);
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(comm.recv<int>(0, 3).at(0), i);
      }
    }
  });
}

TEST(P2P, RecvIntoPreallocatedBuffer) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(std::vector<double>{1.5, 2.5}, 1, 9);
    } else {
      std::vector<double> buf(4, 0.0);
      const std::size_t n = comm.recv_into<double>(buf, 0, 9);
      EXPECT_EQ(n, 2u);
      EXPECT_DOUBLE_EQ(buf[0], 1.5);
      EXPECT_DOUBLE_EQ(buf[1], 2.5);
    }
  });
}

TEST(P2P, ProbeSeesQueuedMessage) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(std::vector<int>{1}, 1, 4);
      comm.barrier();
    } else {
      comm.barrier();  // ensure the send happened
      EXPECT_TRUE(comm.probe(0, 4));
      EXPECT_FALSE(comm.probe(0, 99));
      comm.recv<int>(0, 4);
    }
  });
}

TEST(P2P, EmptyPayloadRoundtrips) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<float>(std::vector<float>{}, 1, 2);
    } else {
      EXPECT_TRUE(comm.recv<float>(0, 2).empty());
    }
  });
}

TEST(P2P, StatsCountP2PTraffic) {
  World world(2);
  run_ranks(world, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<float>(std::vector<float>(100, 1.0f), 1, 1);
    } else {
      comm.recv<float>(0, 1);
    }
  });
  EXPECT_EQ(world.stats(0).p2p_messages(), 1u);
  EXPECT_EQ(world.stats(0).p2p_bytes(), 400u);
  EXPECT_EQ(world.stats(1).p2p_bytes(), 400u);
}

TEST(P2P, NegativeUserTagRejected) {
  run_world(1, [](Comm& comm) {
    EXPECT_THROW(comm.send<int>(std::vector<int>{1}, 0, -5),
                 std::invalid_argument);
  });
}

TEST(P2P, RankOutOfRangeRejected) {
  run_world(1, [](Comm& comm) {
    EXPECT_THROW(comm.send<int>(std::vector<int>{1}, 3, 0),
                 std::out_of_range);
  });
}

TEST(P2P, ExceptionInRankPropagates) {
  EXPECT_THROW(run_world(1, [](Comm&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

}  // namespace
}  // namespace bgqhf::simmpi

namespace bgqhf::simmpi {
namespace {

TEST(P2PStress, RandomMessageStormDeliversEverythingExactly) {
  // Property: under a randomized all-pairs storm with interleaved tags,
  // every message is delivered exactly once, to the right recipient, with
  // the right content and per-(source, tag) ordering.
  const int world = 5;
  const int msgs_per_pair = 40;
  run_world(world, [&](Comm& comm) {
    // Send phase: to every other rank, msgs_per_pair messages spread over
    // 3 tags, payload encodes (source, tag, sequence).
    for (int dest = 0; dest < world; ++dest) {
      if (dest == comm.rank()) continue;
      int seq_per_tag[3] = {0, 0, 0};
      for (int i = 0; i < msgs_per_pair; ++i) {
        const int tag = (comm.rank() + i) % 3;
        comm.send<int>(
            std::vector<int>{comm.rank(), tag, seq_per_tag[tag]++}, dest,
            tag);
      }
    }
    // Receive phase: drain per (source, tag) and check ordering.
    for (int src = 0; src < world; ++src) {
      if (src == comm.rank()) continue;
      int expected_per_tag[3] = {0, 0, 0};
      int total = 0;
      // Count how many messages src sent per tag (same formula).
      int count_per_tag[3] = {0, 0, 0};
      for (int i = 0; i < msgs_per_pair; ++i) count_per_tag[(src + i) % 3]++;
      for (int tag = 0; tag < 3; ++tag) {
        for (int i = 0; i < count_per_tag[tag]; ++i) {
          const auto msg = comm.recv<int>(src, tag);
          ASSERT_EQ(msg.size(), 3u);
          EXPECT_EQ(msg[0], src);
          EXPECT_EQ(msg[1], tag);
          EXPECT_EQ(msg[2], expected_per_tag[tag]++);
          ++total;
        }
      }
      EXPECT_EQ(total, msgs_per_pair);
    }
  });
}

TEST(P2PStress, LargePayloadsSurviveIntact) {
  run_world(2, [](Comm& comm) {
    const std::size_t n = 1 << 20;  // 4 MB of floats
    if (comm.rank() == 0) {
      std::vector<float> big(n);
      for (std::size_t i = 0; i < n; ++i) {
        big[i] = static_cast<float>(i % 9973);
      }
      comm.send<float>(big, 1, 1);
    } else {
      const auto got = comm.recv<float>(0, 1);
      ASSERT_EQ(got.size(), n);
      for (std::size_t i = 0; i < n; i += 4096) {
        ASSERT_EQ(got[i], static_cast<float>(i % 9973));
      }
    }
  });
}

}  // namespace
}  // namespace bgqhf::simmpi
