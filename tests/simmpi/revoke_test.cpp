// ULFM-style failure handling: revoke wakes every pending and later op with
// a typed Revoked, shrink agrees on the survivors, messages match on their
// communicator context, and run_ranks never hangs on a failed rank.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "simmpi/communicator.h"
#include "simmpi/fault.h"
#include "util/timer.h"

namespace bgqhf::simmpi {
namespace {

TEST(RevokeNoHang, ThrowingRankWakesPeersBlockedInUntimedOps) {
  enum Op { kRecv, kBcast, kReduce, kBarrier };
  for (const bool split : {false, true}) {
    for (const Op op : {kRecv, kBcast, kReduce, kBarrier}) {
      SCOPED_TRACE(testing::Message() << "split=" << split << " op=" << op);
      util::Timer timer;
      World world(4);
      try {
        run_ranks(world, [&](Comm& world_comm) {
          Comm comm = split ? world_comm.split(0, 3 - world_comm.rank())
                            : world_comm;
          if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
          std::vector<float> v(8, 1.0f);
          switch (op) {
            case kRecv:
              (void)comm.recv<float>(2, /*tag=*/1);
              break;
            case kBcast:
              comm.bcast(v, /*root=*/2);
              break;
            case kReduce:
              comm.reduce_sum(v, /*root=*/0);
              break;
            case kBarrier:
              comm.barrier();
              break;
          }
        });
        ADD_FAILURE() << "run_ranks returned without the rank's error";
      } catch (const Revoked& e) {
        ADD_FAILURE() << "echo reported instead of the original: " << e.what();
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "rank 2 failed");
      }
      EXPECT_LT(timer.seconds(), 2.0);
    }
  }
}

TEST(Revoke, PendingAndLaterOpsThrowRevoked) {
  run_world(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.revoke("test reason");
      return;
    }
    try {
      (void)comm.recv<int>(0, /*tag=*/1);
      ADD_FAILURE() << "recv on a revoked communicator returned";
    } catch (const Revoked& e) {
      EXPECT_EQ(e.revoker(), 0);
      EXPECT_EQ(e.reason(), "test reason");
    }
    EXPECT_THROW(comm.send<int>(std::vector<int>{1}, 0, 1), Revoked);
    EXPECT_THROW(comm.barrier(), Revoked);
  });
}

TEST(Revoke, ShrinkKeepsArrivalsInOldOrderAndSkipsDeparted) {
  World world(4);
  util::Timer timer;
  run_ranks(world, [&](Comm& comm) {
    if (comm.rank() == 2) return;  // departs without joining the shrink
    comm.revoke();
    Comm next = comm.shrink(Deadline::in(10.0));
    ASSERT_EQ(next.size(), 3);
    EXPECT_EQ(next.world_rank_of(0), 0);
    EXPECT_EQ(next.world_rank_of(1), 1);
    EXPECT_EQ(next.world_rank_of(2), 3);
    EXPECT_EQ(next.world_rank(), comm.world_rank());
    std::vector<int> v{comm.rank()};
    next.allreduce_sum(v);
    EXPECT_EQ(v[0], 0 + 1 + 3);
  });
  // The departure ends the agreement; nobody waits out the deadline.
  EXPECT_LT(timer.seconds(), 5.0);
}

TEST(Revoke, LateArrivalIsLeftOutOfTheShrink) {
  World world(3);
  run_ranks(world, [&](Comm& comm) {
    comm.revoke();
    if (comm.rank() == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      EXPECT_THROW((void)comm.shrink(Deadline::in(1.0)), Revoked);
      return;
    }
    Comm next = comm.shrink(Deadline::in(0.05));
    EXPECT_EQ(next.size(), 2);
    next.barrier(Deadline::in(5.0));
  });
}

TEST(Revoke, MatchingIncludesTheContext) {
  run_world(2, [](Comm& comm) {
    Comm sub = comm.split(0, comm.rank());
    if (comm.rank() == 1) {
      comm.send<int>(std::vector<int>{1}, 0, /*tag=*/3);
      sub.send<int>(std::vector<int>{2}, 0, /*tag=*/3);
      return;
    }
    // Same (source, tag) on both communicators: each receive sees only
    // its own communicator's message, whatever the queue order.
    EXPECT_EQ(sub.recv<int>(1, 3), std::vector<int>{2});
    EXPECT_EQ(comm.recv<int>(1, 3), std::vector<int>{1});
  });
}

TEST(Revoke, ChecksummedPayloadSurvivesTreeForwarding) {
  // Checksums ride the payload through every tree hop of a broadcast and a
  // reduce, so a fault-free checksummed run gives the plain result.
  run_world(5, [](Comm& comm) {
    comm.set_checksums(true);
    std::vector<float> v(1000, 0.0f);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.5f * i;
    }
    comm.bcast(v, 0);
    EXPECT_EQ(v[999], 499.5f);
    comm.reduce_sum(v, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(v[10], 25.0f);
    }
  });
}

}  // namespace
}  // namespace bgqhf::simmpi
