// Parity suite for the collective algorithm catalogue: every algorithm is
// checked against the naive seed composition across rank counts (including
// non-powers-of-two) and message sizes (including zero-length vectors),
// plus determinism, deadline timeout, and fault-injection coverage.
//
// Cross-algorithm value parity uses small integer-valued floats so the
// sums are exact regardless of combine association; bitwise tests (tree vs
// naive, repeat determinism, PairwiseFold) use rounding-sensitive values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "simmpi/collective.h"
#include "simmpi/communicator.h"

namespace bgqhf::simmpi {
namespace {

constexpr int kWorldSizes[] = {1, 2, 3, 4, 5, 8, 13, 16};
constexpr std::size_t kVectorSizes[] = {0, 1, 5, 1000};

// Integer-valued per-rank contribution: sums of these are exact in float,
// so every association yields identical bits.
std::vector<float> exact_pattern(int rank, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>((static_cast<std::size_t>(rank) * 31 + i * 7) %
                                  17) -
           8.0f;
  }
  return v;
}

// Rounding-sensitive contribution for bitwise association tests.
std::vector<float> rough_pattern(int rank, std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.1 * static_cast<double>(i + 1) *
                    static_cast<double>(rank + 1)) *
           (rank % 2 == 0 ? 1.0f : 1e-3f);
  }
  return v;
}

std::vector<float> exact_sum(int ranks, std::size_t n) {
  std::vector<float> total(n, 0.0f);
  for (int r = 0; r < ranks; ++r) {
    const std::vector<float> v = exact_pattern(r, n);
    for (std::size_t i = 0; i < n; ++i) total[i] += v[i];
  }
  return total;
}

CollectiveTuning forced(ReduceAlgo a) {
  CollectiveTuning t;
  t.reduce = a;
  return t;
}
CollectiveTuning forced(AllreduceAlgo a) {
  CollectiveTuning t;
  t.allreduce = a;
  return t;
}
CollectiveTuning forced(AllgatherAlgo a) {
  CollectiveTuning t;
  t.allgather = a;
  return t;
}
CollectiveTuning forced(ReduceScatterAlgo a) {
  CollectiveTuning t;
  t.reduce_scatter = a;
  return t;
}

// ---- broadcast ----

TEST(CollectiveAlgorithms, BcastParityAllAlgorithmsAndSizes) {
  for (const int p : kWorldSizes) {
    for (const std::size_t n : kVectorSizes) {
      for (const BcastAlgo algo :
           {BcastAlgo::kBinomial, BcastAlgo::kPipelined, BcastAlgo::kFlat}) {
        World world(p);
        CollectiveTuning t;
        t.bcast = algo;
        // Tiny chunks so even the small vectors pipeline in many pieces.
        t.bcast_chunk_bytes = 32;
        world.set_tuning(t);
        const std::vector<float> expect = exact_pattern(7, n);
        run_ranks(world, [&](Comm& comm) {
          std::vector<float> data;
          if (comm.rank() == 0) data = expect;
          comm.bcast(data, 0);
          EXPECT_EQ(data, expect) << "p=" << p << " n=" << n
                                  << " algo=" << to_string(algo);
        });
      }
    }
  }
}

TEST(CollectiveAlgorithms, PipelinedBcastFromNonzeroRoot) {
  World world(5);
  CollectiveTuning t;
  t.bcast = BcastAlgo::kPipelined;
  t.bcast_chunk_bytes = 16;
  world.set_tuning(t);
  const std::vector<float> expect = exact_pattern(3, 999);
  run_ranks(world, [&](Comm& comm) {
    std::vector<float> data;
    if (comm.rank() == 2) data = expect;
    comm.bcast(data, 2);
    EXPECT_EQ(data, expect);
  });
}

TEST(CollectiveAlgorithms, AutoBcastPipelinesAboveThreshold) {
  World world(4);
  CollectiveTuning t;
  t.bcast_pipeline_bytes = 256;
  t.bcast_chunk_bytes = 64;
  world.set_tuning(t);
  const std::vector<float> expect = exact_pattern(1, 500);  // 2000 bytes
  run_ranks(world, [&](Comm& comm) {
    std::vector<float> data;
    if (comm.rank() == 0) data = expect;
    comm.bcast(data, 0);
    EXPECT_EQ(data, expect);
  });
}

// ---- reduce ----

TEST(CollectiveAlgorithms, ReduceParityAllAlgorithms) {
  for (const int p : kWorldSizes) {
    for (const std::size_t n : kVectorSizes) {
      for (const ReduceAlgo algo :
           {ReduceAlgo::kNaive, ReduceAlgo::kTree, ReduceAlgo::kRabenseifner}) {
        World world(p);
        world.set_tuning(forced(algo));
        const std::vector<float> expect = exact_sum(p, n);
        run_ranks(world, [&](Comm& comm) {
          std::vector<float> v = exact_pattern(comm.rank(), n);
          comm.reduce_sum(v, 0);
          if (comm.rank() == 0) {
            EXPECT_EQ(v, expect) << "p=" << p << " n=" << n
                                 << " algo=" << to_string(algo);
          } else {
            // Non-roots are zero-filled so stale reads are loud.
            EXPECT_EQ(v, std::vector<float>(n, 0.0f));
          }
        });
      }
    }
  }
}

TEST(CollectiveAlgorithms, ReduceToNonzeroRootAllAlgorithms) {
  for (const ReduceAlgo algo :
       {ReduceAlgo::kNaive, ReduceAlgo::kTree, ReduceAlgo::kRabenseifner}) {
    World world(6);
    world.set_tuning(forced(algo));
    const std::vector<float> expect = exact_sum(6, 40);
    run_ranks(world, [&](Comm& comm) {
      std::vector<float> v = exact_pattern(comm.rank(), 40);
      comm.reduce_sum(v, 4);
      if (comm.rank() == 4) {
        EXPECT_EQ(v, expect) << to_string(algo);
      }
    });
  }
}

TEST(CollectiveAlgorithms, TreeReduceBitwiseMatchesNaive) {
  // kTree reuses the naive tree's association, so even rounding-sensitive
  // inputs must come out bitwise identical.
  for (const int p : {2, 3, 5, 8, 13}) {
    std::vector<float> naive_out;
    std::vector<float> tree_out;
    for (const ReduceAlgo algo : {ReduceAlgo::kNaive, ReduceAlgo::kTree}) {
      World world(p);
      world.set_tuning(forced(algo));
      run_ranks(world, [&](Comm& comm) {
        std::vector<float> v = rough_pattern(comm.rank(), 257);
        comm.reduce_sum(v, 0);
        if (comm.rank() == 0) {
          (algo == ReduceAlgo::kNaive ? naive_out : tree_out) = v;
        }
      });
    }
    ASSERT_EQ(naive_out.size(), tree_out.size());
    for (std::size_t i = 0; i < naive_out.size(); ++i) {
      EXPECT_EQ(naive_out[i], tree_out[i]) << "p=" << p << " i=" << i;
    }
  }
}

TEST(CollectiveAlgorithms, ReduceIntAndDoubleTypes) {
  for (const ReduceAlgo algo :
       {ReduceAlgo::kNaive, ReduceAlgo::kTree, ReduceAlgo::kRabenseifner}) {
    World world(7);
    world.set_tuning(forced(algo));
    run_ranks(world, [&](Comm& comm) {
      std::vector<int> vi{comm.rank(), 1};
      comm.reduce_sum(vi, 0);
      std::vector<double> vd{static_cast<double>(comm.rank()) * 0.5};
      comm.reduce_sum(vd, 0);
      if (comm.rank() == 0) {
        EXPECT_EQ(vi, (std::vector<int>{21, 7})) << to_string(algo);
        EXPECT_DOUBLE_EQ(vd[0], 10.5) << to_string(algo);
      }
    });
  }
}

TEST(CollectiveAlgorithms, PairwiseFoldMatchesDistributedReduceBitwise) {
  // The serial mirror: folding the per-rank partials through PairwiseFold
  // must reproduce the distributed tree's bits exactly (the contract
  // SerialCompute and the FT master rely on).
  for (const int p : {1, 2, 3, 4, 6, 7, 13}) {
    std::vector<float> distributed;
    World world(p);
    run_ranks(world, [&](Comm& comm) {
      std::vector<float> v = rough_pattern(comm.rank(), 193);
      comm.reduce_sum(v, 0);
      if (comm.rank() == 0) distributed = v;
    });
    PairwiseFold<float> fold;
    for (int r = 0; r < p; ++r) fold.push(rough_pattern(r, 193));
    const std::vector<float> serial = fold.finish();
    ASSERT_EQ(serial.size(), distributed.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], distributed[i]) << "p=" << p << " i=" << i;
    }
  }
}

// ---- allreduce ----

TEST(CollectiveAlgorithms, AllreduceParityAllAlgorithms) {
  for (const int p : kWorldSizes) {
    for (const std::size_t n : kVectorSizes) {
      for (const AllreduceAlgo algo :
           {AllreduceAlgo::kNaive, AllreduceAlgo::kTreeBcast,
            AllreduceAlgo::kRecursiveDoubling, AllreduceAlgo::kRabenseifner}) {
        World world(p);
        world.set_tuning(forced(algo));
        const std::vector<float> expect = exact_sum(p, n);
        run_ranks(world, [&](Comm& comm) {
          std::vector<float> v = exact_pattern(comm.rank(), n);
          comm.allreduce_sum(v);
          EXPECT_EQ(v, expect) << "p=" << p << " n=" << n
                               << " algo=" << to_string(algo);
        });
      }
    }
  }
}

TEST(CollectiveAlgorithms, AllreduceRepeatIsBitwiseDeterministic) {
  for (const AllreduceAlgo algo :
       {AllreduceAlgo::kTreeBcast, AllreduceAlgo::kRecursiveDoubling,
        AllreduceAlgo::kRabenseifner}) {
    std::vector<std::vector<float>> results;
    for (int repeat = 0; repeat < 3; ++repeat) {
      World world(6);
      world.set_tuning(forced(algo));
      run_ranks(world, [&](Comm& comm) {
        std::vector<float> v = rough_pattern(comm.rank(), 311);
        comm.allreduce_sum(v);
        if (comm.rank() == 0) results.push_back(v);
      });
    }
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0], results[1]) << to_string(algo);
    EXPECT_EQ(results[1], results[2]) << to_string(algo);
  }
}

TEST(CollectiveAlgorithms, DoublingAllreduceIdenticalBitsOnEveryRank) {
  // Recursive doubling computes the sum redundantly on every rank; IEEE
  // addition is bitwise commutative, so all ranks must agree exactly.
  World world(8);
  world.set_tuning(forced(AllreduceAlgo::kRecursiveDoubling));
  std::vector<std::vector<float>> per_rank(8);
  run_ranks(world, [&](Comm& comm) {
    std::vector<float> v = rough_pattern(comm.rank(), 129);
    comm.allreduce_sum(v);
    per_rank[static_cast<std::size_t>(comm.rank())] = v;
  });
  for (int r = 1; r < 8; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], per_rank[0]) << r;
  }
}

// ---- reduce_scatter ----

TEST(CollectiveAlgorithms, ReduceScatterParity) {
  for (const int p : kWorldSizes) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{3},
                                std::size_t{64}, std::size_t{1000}}) {
      for (const ReduceScatterAlgo algo :
           {ReduceScatterAlgo::kNaive, ReduceScatterAlgo::kHalving,
            ReduceScatterAlgo::kPairwise}) {
        if (algo == ReduceScatterAlgo::kHalving && !is_pow2(p)) continue;
        World world(p);
        world.set_tuning(forced(algo));
        const std::vector<float> total = exact_sum(p, n);
        const SegmentLayout layout{n, p};
        run_ranks(world, [&](Comm& comm) {
          const std::vector<float> contrib = exact_pattern(comm.rank(), n);
          const std::vector<float> mine = comm.reduce_scatter_sum(contrib);
          const std::size_t off = layout.start(comm.rank());
          ASSERT_EQ(mine.size(), layout.len(comm.rank()))
              << "p=" << p << " n=" << n << " algo=" << to_string(algo);
          for (std::size_t i = 0; i < mine.size(); ++i) {
            EXPECT_EQ(mine[i], total[off + i])
                << "p=" << p << " n=" << n << " algo=" << to_string(algo);
          }
        });
      }
    }
  }
}

TEST(CollectiveAlgorithms, ReduceScatterFewerElementsThanRanks) {
  // n < P: trailing ranks own zero-length segments.
  World world(5);
  world.set_tuning(forced(ReduceScatterAlgo::kPairwise));
  run_ranks(world, [&](Comm& comm) {
    const std::vector<float> contrib{1.0f, 2.0f};
    const std::vector<float> mine = comm.reduce_scatter_sum(contrib);
    if (comm.rank() < 2) {
      ASSERT_EQ(mine.size(), 1u);
      EXPECT_EQ(mine[0], 5.0f * (comm.rank() + 1));
    } else {
      EXPECT_TRUE(mine.empty());
    }
  });
}

TEST(CollectiveAlgorithms, ForcedHalvingOnNonPowerOfTwoThrows) {
  World world(6);
  world.set_tuning(forced(ReduceScatterAlgo::kHalving));
  EXPECT_THROW(run_ranks(world,
                         [&](Comm& comm) {
                           std::vector<float> v(12, 1.0f);
                           comm.reduce_scatter_sum(v);
                         }),
               std::exception);
}

// ---- allgather ----

TEST(CollectiveAlgorithms, AllgatherParity) {
  for (const int p : kWorldSizes) {
    for (const std::size_t n : kVectorSizes) {
      for (const AllgatherAlgo algo :
           {AllgatherAlgo::kNaive, AllgatherAlgo::kRecursiveDoubling,
            AllgatherAlgo::kRing}) {
        if (algo == AllgatherAlgo::kRecursiveDoubling && !is_pow2(p)) {
          continue;
        }
        World world(p);
        world.set_tuning(forced(algo));
        std::vector<float> expect;
        for (int r = 0; r < p; ++r) {
          const std::vector<float> v = exact_pattern(r, n);
          expect.insert(expect.end(), v.begin(), v.end());
        }
        run_ranks(world, [&](Comm& comm) {
          const std::vector<float> mine = exact_pattern(comm.rank(), n);
          const std::vector<float> all = comm.allgather<float>(mine);
          EXPECT_EQ(all, expect) << "p=" << p << " n=" << n
                                 << " algo=" << to_string(algo);
        });
      }
    }
  }
}

TEST(CollectiveAlgorithms, ForcedDoublingAllgatherNonPowerOfTwoThrows) {
  World world(3);
  world.set_tuning(forced(AllgatherAlgo::kRecursiveDoubling));
  EXPECT_THROW(run_ranks(world,
                         [&](Comm& comm) {
                           std::vector<float> v(4, 1.0f);
                           comm.allgather<float>(v);
                         }),
               std::exception);
}

// ---- deadlines: every collective times out on a dead peer ----

// Runs `fn` on every live rank of a world where `dead` never participates,
// and asserts at least one surviving rank threw TimeoutError (a lone
// timeout is rethrown as-is; several aggregate into RankErrors).
template <typename Fn>
void expect_timeout(int p, int dead, const CollectiveTuning& tuning,
                    Fn&& fn) {
  World world(p);
  world.set_tuning(tuning);
  try {
    run_ranks(world, [&](Comm& comm) {
      if (comm.rank() == dead) return;  // silent death
      fn(comm);
    });
    FAIL() << "expected a timeout";
  } catch (const TimeoutError&) {
  } catch (const RankErrors& e) {
    bool saw_timeout = false;
    for (const auto& f : e.failures()) {
      if (f.what.find("timed out") != std::string::npos) saw_timeout = true;
    }
    EXPECT_TRUE(saw_timeout) << e.what();
  }
}

TEST(CollectiveDeadlines, BcastForTimesOutOnDeadRoot) {
  expect_timeout(3, 0, CollectiveTuning{}, [](Comm& comm) {
    std::vector<float> v;
    comm.bcast(v, 0, Deadline::in(0.05));
  });
}

TEST(CollectiveDeadlines, ReduceForTimesOutOnDeadChild) {
  for (const ReduceAlgo algo :
       {ReduceAlgo::kNaive, ReduceAlgo::kTree, ReduceAlgo::kRabenseifner}) {
    expect_timeout(4, 3, forced(algo), [](Comm& comm) {
      std::vector<float> v(8, 1.0f);
      comm.reduce_sum(v, 0, Deadline::in(0.05));
    });
  }
}

TEST(CollectiveDeadlines, AllreduceForTimesOutOnDeadPeer) {
  for (const AllreduceAlgo algo :
       {AllreduceAlgo::kNaive, AllreduceAlgo::kTreeBcast,
        AllreduceAlgo::kRecursiveDoubling, AllreduceAlgo::kRabenseifner}) {
    expect_timeout(4, 2, forced(algo), [](Comm& comm) {
      std::vector<float> v(8, 1.0f);
      comm.allreduce_sum(v, Deadline::in(0.05));
    });
  }
}

TEST(CollectiveDeadlines, ReduceScatterForTimesOutOnDeadPeer) {
  for (const ReduceScatterAlgo algo :
       {ReduceScatterAlgo::kNaive, ReduceScatterAlgo::kHalving,
        ReduceScatterAlgo::kPairwise}) {
    expect_timeout(4, 1, forced(algo), [](Comm& comm) {
      std::vector<float> v(8, 1.0f);
      comm.reduce_scatter_sum(v, Deadline::in(0.05));
    });
  }
}

TEST(CollectiveDeadlines, AllgatherForTimesOutOnDeadPeer) {
  for (const AllgatherAlgo algo :
       {AllgatherAlgo::kNaive, AllgatherAlgo::kRecursiveDoubling,
        AllgatherAlgo::kRing}) {
    expect_timeout(4, 3, forced(algo), [](Comm& comm) {
      std::vector<float> v(4, 1.0f);
      comm.allgather<float>(v, Deadline::in(0.05));
    });
  }
}

TEST(CollectiveDeadlines, ForVariantsCompleteWhenAllRanksLive) {
  World world(5);
  const std::vector<float> expect = exact_sum(5, 33);
  run_ranks(world, [&](Comm& comm) {
    std::vector<float> v = exact_pattern(comm.rank(), 33);
    comm.allreduce_sum(v, Deadline::in(5.0));
    EXPECT_EQ(v, expect);
    std::vector<float> r = exact_pattern(comm.rank(), 33);
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
  EXPECT_STREQ(to_string(CollOp::kReduceScatter), "reduce_scatter");
  EXPECT_STREQ(to_string(CollOp::kBarrier), "barrier");
}

}  // namespace
}  // namespace bgqhf::simmpi
