// The simmpi collectives, one algorithm each. bcast, reduce_sum,
// allreduce_sum, allgather and gather are checked against serial results
// over 1..9 ranks (non-powers of two included), nonzero roots, zero-length
// vectors and float/double/int elements; the reductions bitwise against
// PairwiseFold, the serial mirror of the reduce tree; the deadline of each
// op against the peer it names; and the bcast's wire shape, one message per
// tree edge, through the fault injector's send-index schedule.
//
// Value checks use small integer-valued elements, so every sum is exact in
// every element type; bitwise checks use rounding-sensitive values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "simmpi/collective.h"
#include "simmpi/communicator.h"

namespace bgqhf::simmpi {
namespace {

constexpr int kMaxRanks = 9;
constexpr std::size_t kVectorSizes[] = {0, 1, 5, 1000};

// Integer-valued per-rank contribution, exact in float, double and int.
template <typename T>
std::vector<T> pattern(int rank, std::size_t n) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<T>(
        static_cast<int>((static_cast<std::size_t>(rank) * 31 + i * 7) % 17) -
        8);
  }
  return v;
}

template <typename T>
std::vector<T> serial_sum(int ranks, std::size_t n) {
  std::vector<T> total(n, T{});
  for (int r = 0; r < ranks; ++r) {
    const std::vector<T> v = pattern<T>(r, n);
    for (std::size_t i = 0; i < n; ++i) total[i] += v[i];
  }
  return total;
}

template <typename T>
std::vector<T> serial_concat(int ranks, std::size_t n) {
  std::vector<T> all;
  for (int r = 0; r < ranks; ++r) {
    const std::vector<T> v = pattern<T>(r, n);
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

// Rounding-sensitive contribution for the bitwise association tests.
template <typename T>
std::vector<T> rough_pattern(int rank, std::size_t n) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<T>(std::sin(0.1 * static_cast<double>(i + 1) *
                                   static_cast<double>(rank + 1)) *
                          (rank % 2 == 0 ? 1.0 : 1e-3));
  }
  return v;
}

// Root 0, a middle rank and the last rank (deduplicated on small worlds).
std::vector<int> roots(int p) {
  std::vector<int> out{0};
  if (p / 2 != 0) out.push_back(p / 2);
  if (p - 1 != p / 2 && p - 1 != 0) out.push_back(p - 1);
  return out;
}

// Runs `check(p, n, root)` over every world size, vector size and root.
template <typename Check>
void for_all_shapes(Check&& check) {
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (const std::size_t n : kVectorSizes) {
      for (const int root : roots(p)) {
        SCOPED_TRACE(testing::Message()
                     << "p=" << p << " n=" << n << " root=" << root);
        check(p, n, root);
      }
    }
  }
}

// ---- values against serial results ----

template <typename T>
void check_bcast() {
  for_all_shapes([](int p, std::size_t n, int root) {
    const std::vector<T> expect = pattern<T>(root + 7, n);
    run_world(p, [&](Comm& comm) {
      // Non-roots start with stale contents of the wrong length.
      std::vector<T> data = comm.rank() == root ? expect
                                                : std::vector<T>(3, T{1});
      comm.bcast(data, root);
      EXPECT_EQ(data, expect);
    });
  });
}

template <typename T>
void check_reduce() {
  for_all_shapes([](int p, std::size_t n, int root) {
    const std::vector<T> expect = serial_sum<T>(p, n);
    run_world(p, [&](Comm& comm) {
      std::vector<T> v = pattern<T>(comm.rank(), n);
      comm.reduce_sum(v, root);
      // Non-roots are zero-filled so stale reads are loud.
      EXPECT_EQ(v, comm.rank() == root ? expect : std::vector<T>(n, T{}));
    });
  });
}

template <typename T>
void check_allreduce() {
  for_all_shapes([](int p, std::size_t n, int root) {
    if (root != 0) return;  // rootless: one pass per shape
    const std::vector<T> expect = serial_sum<T>(p, n);
    run_world(p, [&](Comm& comm) {
      std::vector<T> v = pattern<T>(comm.rank(), n);
      comm.allreduce_sum(v);
      EXPECT_EQ(v, expect);
    });
  });
}

template <typename T>
void check_allgather() {
  for_all_shapes([](int p, std::size_t n, int root) {
    if (root != 0) return;
    const std::vector<T> expect = serial_concat<T>(p, n);
    run_world(p, [&](Comm& comm) {
      const std::vector<T> mine = pattern<T>(comm.rank(), n);
      EXPECT_EQ(comm.allgather<T>(mine), expect);
    });
  });
}

template <typename T>
void check_gather() {
  for_all_shapes([](int p, std::size_t n, int root) {
    const std::vector<T> expect = serial_concat<T>(p, n);
    run_world(p, [&](Comm& comm) {
      const std::vector<T> mine = pattern<T>(comm.rank(), n);
      const std::vector<T> all = comm.gather<T>(mine, root);
      EXPECT_EQ(all, comm.rank() == root ? expect : std::vector<T>{});
    });
  });
}

TEST(Collectives, BcastMatchesRoot) {
  check_bcast<float>();
  check_bcast<double>();
  check_bcast<int>();
}

TEST(Collectives, ReduceSumMatchesSerialSum) {
  check_reduce<float>();
  check_reduce<double>();
  check_reduce<int>();
}

TEST(Collectives, AllreduceSumMatchesSerialSumOnEveryRank) {
  check_allreduce<float>();
  check_allreduce<double>();
  check_allreduce<int>();
}

TEST(Collectives, AllgatherMatchesRankOrderedConcatenation) {
  check_allgather<float>();
  check_allgather<double>();
  check_allgather<int>();
}

TEST(Collectives, GatherMatchesRankOrderedConcatenation) {
  check_gather<float>();
  check_gather<double>();
  check_gather<int>();
}

TEST(Collectives, SequenceOfMixedOpsMatchesUp) {
  // The worker loop interleaves bcast/gather/reduce; every op must match
  // its own messages in sequence, with no tag collisions between ops.
  run_world(4, [](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      std::vector<int> b;
      if (comm.rank() == 0) b = {round};
      comm.bcast(b, 0);
      ASSERT_EQ(b, std::vector<int>{round});
      std::vector<int> s{comm.rank() + round};
      comm.reduce_sum(s, 0);
      const auto all = comm.allgather<int>(std::vector<int>{comm.rank()});
      EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3}));
      std::vector<double> a{0.5 * comm.rank()};
      comm.allreduce_sum(a);
      EXPECT_EQ(a[0], 3.0);
      if (comm.rank() == 0) {
        EXPECT_EQ(s[0], 6 + 4 * round);
      }
    }
  });
}

// ---- bitwise against the serial mirror ----

template <typename T>
void check_fold_bitwise() {
  constexpr std::size_t n = 193;
  for (int p = 1; p <= kMaxRanks; ++p) {
    for (const int root : roots(p)) {
      SCOPED_TRACE(testing::Message() << "p=" << p << " root=" << root);
      // The tree folds in rank order relative to its root.
      PairwiseFold<T> fold;
      for (int i = 0; i < p; ++i) {
        fold.push(rough_pattern<T>((root + i) % p, n));
      }
      const std::vector<T> serial = fold.finish();
      run_world(p, [&](Comm& comm) {
        std::vector<T> v = rough_pattern<T>(comm.rank(), n);
        comm.reduce_sum(v, root);
        if (comm.rank() == root) {
          EXPECT_EQ(v, serial);
        }
        if (root == 0) {
          std::vector<T> a = rough_pattern<T>(comm.rank(), n);
          comm.allreduce_sum(a);
          EXPECT_EQ(a, serial) << "allreduce on rank " << comm.rank();
        }
      });
    }
  }
}

TEST(Collectives, ReductionsBitwiseMatchPairwiseFold) {
  // The contract SerialCompute and the FT master rely on: folding the
  // per-rank partials through PairwiseFold reproduces the tree's bits.
  check_fold_bitwise<float>();
  check_fold_bitwise<double>();
}

// ---- deadlines: each op names the peer that went silent ----

// Runs `fn` on every rank of a 4-rank world except `dead`, which never
// takes part. Each live rank catches its own TimeoutError and returns, so
// no rank revokes the others; returns the source each rank's timeout
// named (-1 where the op completed).
template <typename Fn>
std::vector<int> timeout_sources(int dead, Fn&& fn) {
  std::vector<int> named(4, -1);
  run_world(4, [&](Comm& comm) {
    if (comm.rank() == dead) return;
    try {
      fn(comm, Deadline::in(0.05));
    } catch (const TimeoutError& e) {
      EXPECT_EQ(e.rank(), comm.rank());
      named[static_cast<std::size_t>(comm.rank())] = e.source();
    }
  });
  return named;
}

// Trees on 4 ranks rooted at 0: bcast 0 -> {2, 1}, 2 -> 3; reduce
// 1 -> 0, 3 -> 2, then 2 -> 0.

TEST(CollectiveDeadlines, BcastNamesTheSilentTreeParent) {
  EXPECT_EQ(timeout_sources(0,
                            [](Comm& comm, const Deadline& dl) {
                              std::vector<float> v;
                              comm.bcast(v, 0, dl);
                            }),
            (std::vector<int>{-1, 0, 0, 2}));
}

TEST(CollectiveDeadlines, ReduceNamesTheSilentChild) {
  EXPECT_EQ(timeout_sources(3,
                            [](Comm& comm, const Deadline& dl) {
                              std::vector<float> v(8, 1.0f);
                              comm.reduce_sum(v, 0, dl);
                            }),
            (std::vector<int>{2, -1, 3, -1}));
}

TEST(CollectiveDeadlines, AllreduceNamesTheSilentPeer) {
  // Rank 0 starves on dead rank 2's partial and never broadcasts; rank 3
  // waits on 2 as its bcast parent.
  EXPECT_EQ(timeout_sources(2,
                            [](Comm& comm, const Deadline& dl) {
                              std::vector<float> v(8, 1.0f);
                              comm.allreduce_sum(v, dl);
                            }),
            (std::vector<int>{2, 0, -1, 2}));
}

TEST(CollectiveDeadlines, AllgatherNamesTheSilentContributor) {
  EXPECT_EQ(timeout_sources(3,
                            [](Comm& comm, const Deadline& dl) {
                              std::vector<float> v(4, 1.0f);
                              comm.allgather<float>(v, dl);
                            }),
            (std::vector<int>{3, 0, 0, -1}));
}

TEST(CollectiveDeadlines, GatherNamesTheFirstLateContributor) {
  EXPECT_EQ(timeout_sources(1,
                            [](Comm& comm, const Deadline& dl) {
                              std::vector<float> v(4, 1.0f);
                              comm.gather<float>(v, 0, dl);
                            }),
            (std::vector<int>{1, -1, -1, -1}));
}

TEST(CollectiveDeadlines, ForVariantsCompleteWhenAllRanksLive) {
  World world(5);
  const std::vector<float> expect = serial_sum<float>(5, 33);
  run_ranks(world, [&](Comm& comm) {
    std::vector<float> v = pattern<float>(comm.rank(), 33);
    comm.allreduce_sum(v, Deadline::in(5.0));
    EXPECT_EQ(v, expect);
    std::vector<float> r = pattern<float>(comm.rank(), 33);
    comm.reduce_sum(r, 0, Deadline::in(5.0));
    if (comm.rank() == 0) {
      EXPECT_EQ(r, expect);
    }
    std::vector<float> b(comm.rank() == 0 ? expect : std::vector<float>{});
    comm.bcast(b, 0, Deadline::in(5.0));
    EXPECT_EQ(b, expect);
  });
}

TEST(CollectiveDeadlines, DroppedMessagesSurfaceAsTimeoutsNotHangs) {
  // Fault injection composes with the deadline machinery: with every
  // message dropped, collectives with a deadline must fail fast, not
  // deadlock.
  World world(3);
  FaultConfig fc;
  fc.drop_probability = 1.0;
  world.install_faults(fc);
  try {
    run_ranks(world, [](Comm& comm) {
      std::vector<float> v(16, static_cast<float>(comm.rank()));
      comm.allreduce_sum(v, Deadline::in(0.05));
    });
    FAIL() << "expected timeouts";
  } catch (const TimeoutError&) {
  } catch (const RankErrors&) {
  }
}

// ---- wire shape ----

TEST(CollectiveWire, BcastSendsOneMessagePerTreeEdge) {
  // Two bcasts on 4 ranks, tree 0 -> {2, 1}, 2 -> 3. With one message per
  // edge the root's sends are: first bcast to 2 (index 0) and to 1 (1),
  // second bcast to 2 (2) and to 1 (3). Dropping send 2 therefore starves
  // rank 2, and through it rank 3, of the *second* bcast only; a bcast
  // that sent anything more per edge would lose part of the first.
  World world(4);
  FaultConfig fc;
  fc.drop_sends.push_back({/*rank=*/0, /*send_index=*/2});
  world.install_faults(fc);
  std::vector<int> timed_out_on(4, -1);  // which bcast (1 or 2) timed out
  std::vector<int> named(4, -1);
  run_ranks(world, [&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    for (int call = 1; call <= 2; ++call) {
      std::vector<int> v;
      if (comm.rank() == 0) v = {call, 10 * call};
      try {
        comm.bcast(v, 0, Deadline::in(0.1));
      } catch (const TimeoutError& e) {
        timed_out_on[r] = call;
        named[r] = e.source();
        return;
      }
      EXPECT_EQ(v, (std::vector<int>{call, 10 * call}));
    }
  });
  EXPECT_EQ(timed_out_on, (std::vector<int>{-1, -1, 2, 2}));
  EXPECT_EQ(named, (std::vector<int>{-1, -1, 0, 2}));
  EXPECT_EQ(world.faults()->log(0).sends, 4u);
  EXPECT_EQ(world.faults()->log(0).drops, 1u);
  EXPECT_EQ(world.faults()->log(2).sends, 1u);  // relayed the first only
}

// ---- per-op statistics ----

TEST(CollectiveStats, PerOpCountersTrackCallsAndBytes) {
  World world(4);
  run_ranks(world, [](Comm& comm) {
    std::vector<float> v(256, 1.0f);
    comm.allreduce_sum(v);
    std::vector<float> b(64, 2.0f);
    comm.bcast(b, 0);
    std::vector<double> r(10, 0.5);
    comm.reduce_sum(r, 0);
    comm.barrier();
  });
  const CommStats total = world.total_stats();
  EXPECT_EQ(total.op(CollOp::kAllreduce).calls, 4u);
  EXPECT_EQ(total.op(CollOp::kAllreduce).bytes, 4u * 256 * sizeof(float));
  EXPECT_EQ(total.op(CollOp::kBcast).calls, 4u);
  EXPECT_EQ(total.op(CollOp::kBcast).bytes, 4u * 64 * sizeof(float));
  EXPECT_EQ(total.op(CollOp::kReduce).calls, 4u);
  EXPECT_EQ(total.op(CollOp::kReduce).bytes, 4u * 10 * sizeof(double));
  EXPECT_EQ(total.op(CollOp::kBarrier).calls, 4u);
  EXPECT_GE(total.op(CollOp::kAllreduce).seconds, 0.0);
  // The aggregate collective counters still see every op.
  EXPECT_GE(total.collective_calls(), 16u);
}

TEST(CollectiveStats, OpNamesAreStable) {
  EXPECT_STREQ(to_string(CollOp::kAllreduce), "allreduce");
  EXPECT_STREQ(to_string(CollOp::kAllgather), "allgather");
  EXPECT_STREQ(to_string(CollOp::kBarrier), "barrier");
}

}  // namespace
}  // namespace bgqhf::simmpi
