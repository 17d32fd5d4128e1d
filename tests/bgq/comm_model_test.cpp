#include "bgq/comm_model.h"

#include <gtest/gtest.h>

namespace bgqhf::bgq {
namespace {

constexpr std::size_t kWeights = 95u << 20;  // ~95 MB of parameters

TEST(CommModel, BcastGrowsWithPayload) {
  const CommModel comm(bgq_racks(1), 1024, 1);
  EXPECT_LT(comm.bcast_seconds(1 << 10), comm.bcast_seconds(1 << 20));
  EXPECT_LT(comm.bcast_seconds(1 << 20), comm.bcast_seconds(kWeights));
}

TEST(CommModel, BcastGrowsWithParticipants) {
  const CommModel small(bgq_racks(1), 256, 1);
  const CommModel large(bgq_racks(1), 1024, 1);
  EXPECT_LE(small.bcast_seconds(kWeights), large.bcast_seconds(kWeights));
}

TEST(CommModel, TorusBcastFarCheaperThanEthernetAtScale) {
  // The paper's core systems argument: "a Linux cluster ... will suffer
  // from several communication bottlenecks (collisions), this is one of
  // the main advantages of Blue Gene."
  const CommModel torus(bgq_racks(1), 1024, 1);
  MachineSpec eth = intel_cluster(1024);
  const CommModel ethernet(eth, 1024, 1);
  EXPECT_LT(torus.bcast_seconds(kWeights) * 5,
            ethernet.bcast_seconds(kWeights));
}

TEST(CommModel, ReduceCostsAtLeastBcast) {
  for (const auto& machine : {bgq_racks(1), intel_cluster(96)}) {
    const CommModel comm(machine, 96, 1);
    EXPECT_GE(comm.reduce_seconds(kWeights), comm.bcast_seconds(kWeights));
  }
}

TEST(CommModel, SocketSyncScalesLinearlyInWorkers) {
  const CommModel comm(bgq_racks(1), 1024, 1);
  const double t256 = comm.socket_sync_seconds(kWeights, 256);
  const double t1024 = comm.socket_sync_seconds(kWeights, 1024);
  EXPECT_NEAR(t1024 / t256, 4.0, 0.2);
}

TEST(CommModel, MpiBcastBeatsSocketsEverywhere) {
  // Sec. V-B's migration pays off at every scale, and more at larger ones.
  const CommModel small(bgq_racks(1), 64, 1);
  const CommModel large(bgq_racks(1), 4096, 4);
  const double adv_small =
      small.socket_sync_seconds(kWeights, 63) / small.bcast_seconds(kWeights);
  const double adv_large = large.socket_sync_seconds(kWeights, 4095) /
                           large.bcast_seconds(kWeights);
  EXPECT_GT(adv_small, 1.0);
  EXPECT_GT(adv_large, adv_small);
}

TEST(CommModel, MasterFanoutGrowsWithWorkers) {
  const CommModel comm(bgq_racks(1), 4096, 4);
  const double t1k = comm.master_fanout_seconds(1 << 20, 1024);
  const double t4k = comm.master_fanout_seconds(1 << 20, 4095);
  EXPECT_GT(t4k, t1k);
}

TEST(CommModel, HierarchicalGatherGrowsWithScaleSublinearly) {
  const CommModel c1(bgq_racks(1), 1024, 4);
  const CommModel c2(bgq_racks(2), 8192, 4);
  const double g1 = c1.hierarchical_gather_seconds(kWeights, 1023);
  const double g2 = c2.hierarchical_gather_seconds(kWeights, 8191);
  EXPECT_GT(g2, g1);          // more nodes -> more partials at the master
  EXPECT_LT(g2, 8.5 * g1);    // but 2-level aggregation keeps it bounded
}

TEST(CommModel, AllreduceSelectsTreeSmallRabenseifnerLarge) {
  // The size-based selection table: latency-optimal algorithms for short
  // vectors (the torus' hardware tree, a software cluster's recursive
  // doubling), bandwidth-optimal reduce_scatter+allgather for long ones.
  // This model is where algorithm selection lives; the in-process simmpi
  // runtime runs one tree algorithm per collective.
  const CommModel torus(bgq_racks(1), 1024, 1);
  EXPECT_STREQ(torus.allreduce_algorithm(64), "tree+bcast");
  EXPECT_STREQ(torus.allreduce_algorithm(kWeights), "rabenseifner");
  const CommModel ethernet(intel_cluster(1024), 1024, 1);
  EXPECT_STREQ(ethernet.allreduce_algorithm(64), "recursive-doubling");
  EXPECT_STREQ(ethernet.allreduce_algorithm(kWeights), "rabenseifner");
}

TEST(CommModel, AllreduceNeverWorseThanTreeComposition) {
  const CommModel comm(bgq_racks(1), 1024, 1);
  for (const std::size_t bytes : {std::size_t{64}, std::size_t{1} << 16,
                                  std::size_t{1} << 22, kWeights}) {
    EXPECT_LE(comm.allreduce_seconds(bytes),
              comm.reduce_seconds(bytes) + comm.bcast_seconds(bytes));
  }
}

TEST(CommModel, RabenseifnerAdvantageBiggerOnEthernet) {
  // The store-and-forward binomial tree moves depth*N bytes; halving +
  // doubling move ~2N. The torus tree is hardware-pipelined, so the
  // relative win there is modest.
  const CommModel torus(bgq_racks(1), 1024, 1);
  MachineSpec eth = intel_cluster(1024);
  const CommModel ethernet(eth, 1024, 1);
  const double torus_gain =
      (torus.reduce_seconds(kWeights) + torus.bcast_seconds(kWeights)) /
      torus.allreduce_seconds(kWeights);
  const double eth_gain = (ethernet.reduce_seconds(kWeights) +
                           ethernet.bcast_seconds(kWeights)) /
                          ethernet.allreduce_seconds(kWeights);
  EXPECT_GT(eth_gain, torus_gain);
  EXPECT_GT(eth_gain, 2.0);
}

TEST(CommModel, ReduceScatterAndAllgatherGrowWithPayload) {
  const CommModel comm(bgq_racks(1), 1024, 1);
  EXPECT_LT(comm.reduce_scatter_seconds(1 << 10),
            comm.reduce_scatter_seconds(kWeights));
  EXPECT_LT(comm.allgather_seconds(1 << 10),
            comm.allgather_seconds(kWeights));
  // reduce_scatter pays the combine arithmetic allgather does not.
  EXPECT_GT(comm.reduce_scatter_seconds(kWeights),
            comm.allgather_seconds(kWeights));
}

TEST(CommModel, BarrierIsLatencyOnly) {
  const CommModel comm(bgq_racks(1), 1024, 1);
  EXPECT_LT(comm.barrier_seconds(), comm.bcast_seconds(kWeights));
  EXPECT_LT(comm.barrier_seconds(), 1e-3);
}

TEST(CommModel, P2PIncludesBandwidthTerm) {
  const CommModel comm(bgq_racks(1), 1024, 1);
  const double small = comm.p2p_seconds(1 << 10);
  const double large = comm.p2p_seconds(64 << 20);
  EXPECT_GT(large, small * 100);
}

TEST(CommModel, EthernetContentionRaisesCollectiveCost) {
  MachineSpec no_contention = intel_cluster(96);
  no_contention.network.contention_coeff = 0.0;
  const CommModel quiet(no_contention, 96, 1);
  const CommModel noisy(intel_cluster(96), 96, 1);
  EXPECT_GT(noisy.bcast_seconds(kWeights), quiet.bcast_seconds(kWeights));
}

TEST(CommModel, InvalidParticipantsThrow) {
  EXPECT_THROW(CommModel(bgq_racks(1), 0, 1), std::invalid_argument);
}

TEST(CommModel, TreeDepthIsCeilLog2) {
  EXPECT_EQ(CommModel(bgq_racks(1), 1, 1).tree_depth(), 0);
  EXPECT_EQ(CommModel(bgq_racks(1), 2, 1).tree_depth(), 1);
  EXPECT_EQ(CommModel(bgq_racks(1), 1000, 1).tree_depth(), 10);
  EXPECT_EQ(CommModel(bgq_racks(1), 1024, 1).tree_depth(), 10);
}

}  // namespace
}  // namespace bgqhf::bgq
