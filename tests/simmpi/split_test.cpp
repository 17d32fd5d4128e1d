// Comm::split: MPI_Comm_split semantics over the in-process runtime.
//
// The property under test is the LTFB population contract: every existing
// collective / p2p / compression / fault path must run unchanged inside a
// split sub-communicator, concurrently with sibling groups and with
// world-level traffic, while world-rank identities (stats, kill schedules)
// stay attached to the physical rank.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "simmpi/communicator.h"
#include "simmpi/compress.h"
#include "simmpi/fault.h"

namespace bgqhf::simmpi {
namespace {

TEST(SplitTest, PartitionsRanksByColor) {
  run_world(6, [](Comm& comm) {
    const int color = comm.rank() / 3;  // {0,1,2} and {3,4,5}
    Comm sub = comm.split(color, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() % 3);
    EXPECT_EQ(sub.world_rank(), comm.rank());
  });
}

TEST(SplitTest, KeyReordersGroupRanks) {
  run_world(4, [](Comm& comm) {
    // Reverse key order: world rank 3 becomes group rank 0.
    Comm sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), 3 - comm.rank());
    EXPECT_EQ(sub.world_rank(), comm.rank());
    // A broadcast from group rank 0 originates at world rank 3.
    std::vector<int> v;
    if (sub.rank() == 0) v = {comm.rank()};
    sub.bcast(v, 0);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 3);
  });
}

TEST(SplitTest, CollectivesRunConcurrentlyInSiblingGroups) {
  run_world(8, [](Comm& comm) {
    const int color = comm.rank() % 2;  // interleaved membership
    Comm sub = comm.split(color, comm.rank());
    ASSERT_EQ(sub.size(), 4);
    // Each group sums its own world ranks; the interleaving means any
    // leakage between the groups' reduce trees would corrupt one sum.
    std::vector<double> v{static_cast<double>(comm.rank())};
    sub.allreduce_sum(v);
    const double expect = color == 0 ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7;
    EXPECT_DOUBLE_EQ(v[0], expect);
    // And a group barrier only synchronizes the group.
    sub.barrier();
  });
}

TEST(SplitTest, PointToPointAndStatusUseGroupRanks) {
  run_world(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 2, comm.rank());
    if (sub.rank() == 0) {
      sub.send<int>(std::vector<int>{comm.rank()}, 1, 7);
    } else {
      Status st;
      const auto got = sub.recv<int>(0, 7, Deadline::never(), &st);
      ASSERT_EQ(got.size(), 1u);
      // Payload carries the world rank; the Status reports group space.
      EXPECT_EQ(got[0], comm.rank() - 1);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(SplitTest, WorldTrafficCoexistsWithGroupTraffic) {
  run_world(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 2, comm.rank());
    // Group-internal exchange on tag 3 and a cross-group world message on
    // tag 4 in flight at once; (source, tag) matching keeps them apart.
    if (comm.rank() == 0) comm.send<int>(std::vector<int>{99}, 2, 4);
    if (sub.rank() == 0) {
      sub.send<int>(std::vector<int>{sub.rank()}, 1, 3);
    } else {
      EXPECT_EQ(sub.recv<int>(0, 3).at(0), 0);
    }
    if (comm.rank() == 2) {
      EXPECT_EQ(comm.recv<int>(0, 4).at(0), 99);
    }
  });
}

TEST(SplitTest, NestedSplitComposes) {
  run_world(8, [](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    EXPECT_EQ(quarter.world_rank(), comm.rank());
    std::vector<int> v{comm.rank()};
    quarter.allreduce_sum(v);
    EXPECT_EQ(v[0], 2 * comm.rank() + (comm.rank() % 2 == 0 ? 1 : -1));
  });
}

TEST(SplitTest, AnySourceRejectedOnSplitComm) {
  run_world(2, [](Comm& comm) {
    Comm sub = comm.split(0, comm.rank());
    EXPECT_THROW((void)sub.recv<int>(kAnySource, 0, Deadline::in(0.01)),
                 std::invalid_argument);
  });
}

TEST(SplitTest, CompressedReduceInsideSplitGroup) {
  run_world(6, [](Comm& comm) {
    const int color = comm.rank() / 3;
    Comm sub = comm.split(color, comm.rank());
    CompressOptions opts;
    opts.mode = CompressMode::kOff;
    opts.bf16_wire = true;
    opts.min_values = 1;
    const std::size_t n = 256;
    std::vector<float> carrier(n);
    for (std::size_t i = 0; i < n; ++i) {
      carrier[i] = static_cast<float>(comm.rank() % 3) + 0.5f;
    }
    CompressState state;
    std::vector<float> out(n, 0.0f);
    compressed_reduce_sum(sub, carrier, out, 0, opts, state);
    if (sub.rank() == 0) {
      // Sums are identical in both groups (per-group ranks 0,1,2): the
      // dense bf16 payloads decode to the same bits either side.
      EXPECT_NEAR(out[0], 0.5f + 1.5f + 2.5f, 1e-2);
    }
  });
}

TEST(SplitTest, KillInOneGroupLeavesSiblingGroupRunning) {
  World world(4);
  FaultConfig faults;
  faults.seed = 11;
  // after_ops=48 lets rank 3 get through the split's allgather (a gather
  // send and a bcast receive); the kill then fires at the 47th send of
  // its post-split spin, before it ever reaches the tag-9 message its
  // partner is waiting on.
  faults.kills.push_back({/*rank=*/3, /*after_ops=*/48});
  world.install_faults(faults);
  std::atomic<int> survivors{0};
  ASSERT_THROW(
      run_ranks(world,
                [&](Comm& comm) {
                  Comm sub = comm.split(comm.rank() / 2, comm.rank());
                  if (comm.rank() >= 2) {
                    // Group {2,3}: rank 3 dies mid-spin; its partner's
                    // deadline receive sees the silence.
                    if (comm.rank() == 2) {
                      EXPECT_THROW(
                          (void)sub.recv<int>(1, 9, Deadline::in(0.05)),
                          TimeoutError);
                      survivors.fetch_add(1);
                    } else {
                      for (int i = 0; i < 100; ++i) {
                        sub.send<int>(std::vector<int>{i}, 0, 8);
                      }
                      sub.send<int>(std::vector<int>{1}, 0, 9);  // unreached
                    }
                    return;
                  }
                  // Group {0,1} is untouched and completes a collective.
                  std::vector<int> v{comm.rank()};
                  sub.allreduce_sum(v);
                  EXPECT_EQ(v[0], 1);
                  survivors.fetch_add(1);
                }),
      RankKilledError);
  EXPECT_EQ(survivors.load(), 3);
}

TEST(SplitTest, StatsChargeToWorldRank) {
  World world(4);
  run_ranks(world, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 2, comm.rank());
    if (sub.rank() == 0) {
      sub.send<int>(std::vector<int>{1, 2, 3}, 1, 5);
    } else {
      (void)sub.recv<int>(0, 5);
    }
  });
  // The senders are world ranks 0 and 2; their p2p byte counters (not
  // their group-rank-0 aliases') must have moved.
  EXPECT_GT(world.stats(0).p2p_bytes(), 0u);
  EXPECT_GT(world.stats(2).p2p_bytes(), 0u);
}

TEST(SplitTest, InternedGroupsShareOneBarrier) {
  World world(4);
  run_ranks(world, [](Comm& comm) {
    // Two independent split calls with identical membership: the interned
    // group (and so the barrier) is shared, and repeated barriers on both
    // handles stay in phase.
    Comm a = comm.split(0, comm.rank());
    Comm b = comm.split(0, comm.rank());
    for (int i = 0; i < 3; ++i) {
      a.barrier();
      b.barrier();
    }
    SUCCEED();
  });
}

}  // namespace
}  // namespace bgqhf::simmpi
