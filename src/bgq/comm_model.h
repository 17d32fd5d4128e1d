// Communication cost model: torus MPI collectives vs. Ethernet trees vs.
// the pre-MPI socket scheme the application was migrated from (Sec. V-B).
#pragma once

#include <cstddef>

#include "bgq/machine.h"
#include "bgq/torus.h"

namespace bgqhf::bgq {

class CommModel {
 public:
  /// `participants` = MPI ranks taking part in collectives; they are packed
  /// `ranks_per_node` to a node of the machine.
  CommModel(const MachineSpec& machine, int participants, int ranks_per_node);

  int participants() const { return participants_; }

  /// MPI_Bcast of `bytes` from the root to all participants. Torus:
  /// pipelined hardware-assisted spanning tree (depth = network diameter,
  /// near-full link bandwidth). Ethernet: binomial software tree with
  /// store-and-forward per level and contention.
  double bcast_seconds(std::size_t bytes) const;

  /// MPI_Reduce of `bytes` to the root (same structure as bcast plus the
  /// combine arithmetic, which the torus offloads to the network logic).
  double reduce_seconds(std::size_t bytes) const;

  /// MPI_Reduce_scatter via recursive halving: ceil(log2 P) exchange
  /// rounds, round k moving and combining half the remaining vector, for
  /// ~bytes*(P-1)/P total wire traffic — the bandwidth-optimal half of a
  /// Rabenseifner allreduce.
  double reduce_scatter_seconds(std::size_t bytes) const;

  /// MPI_Allgather via recursive doubling (the same wire pattern as the
  /// halving reduce_scatter, mirrored, with no combine arithmetic).
  double allgather_seconds(std::size_t bytes) const;

  /// MPI_Allreduce via recursive doubling: log2(P) full-vector exchange
  /// rounds — the fewest latency terms of any allreduce, linear bandwidth.
  double recursive_doubling_seconds(std::size_t bytes) const;

  /// MPI_Allreduce: the cheapest of reduce+bcast (hardware-assisted on the
  /// torus), recursive doubling (latency-optimal), and Rabenseifner's
  /// reduce_scatter+allgather (bandwidth-optimal), per message size, as
  /// real MPI libraries select. The in-process simmpi runtime does not
  /// select: it runs one tree algorithm per collective (DESIGN.md §8).
  double allreduce_seconds(std::size_t bytes) const;
  /// Which algorithm allreduce_seconds() picks for this size: "tree+bcast",
  /// "recursive-doubling", or "rabenseifner" (the DESIGN.md table).
  const char* allreduce_algorithm(std::size_t bytes) const;

  /// Barrier (latency-only collective).
  double barrier_seconds() const;

  /// Point-to-point transfer of `bytes` over the average-distance path.
  double p2p_seconds(std::size_t bytes) const;

  /// The master sends `bytes_per_worker` to each of `workers` destinations
  /// back-to-back (the load_data phase): serialized on the master's
  /// injection bandwidth, plus per-message software cost.
  double master_fanout_seconds(std::size_t bytes_per_worker,
                               int workers) const;

  /// Gradient aggregation to the master in the one-layer master/worker
  /// architecture: ranks on a node combine locally, then the master
  /// receives one partial sum per node through its injection port
  /// (serialized), plus per-worker message overhead. This term grows with
  /// the partition size and is what bends the scaling curve past 4096.
  double hierarchical_gather_seconds(std::size_t bytes, int workers) const;

  /// Pre-MPI socket weight sync (the scheme Sec. V-B replaced): the master
  /// writes the full buffer once per worker over individually managed
  /// channels — no tree, no hardware assist, higher per-message cost.
  double socket_sync_seconds(std::size_t bytes, int workers) const;

  /// Tree depth used by the software collectives (ceil(log2 n)).
  int tree_depth() const;

 private:
  double contention_factor(int concurrent_senders) const;
  double link_seconds(std::size_t bytes, double bw_gb) const;

  MachineSpec machine_;
  int participants_;
  int ranks_per_node_;
  TorusDims dims_;
};

}  // namespace bgqhf::bgq
