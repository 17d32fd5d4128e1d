// Ablation for Sec. V-B: socket communication vs. MPI collectives.
//
// "In order to scale up the application, we abandoned the socket
// communication ... performance was improved by using the broadcast
// (MPI_Bcast) mechanism to take advantage of the optimized MPI
// collectives." This bench models a single weight synchronization under
// both schemes across rank counts, and the end-to-end training-time
// impact.
#include <cstdio>

#include "bench_main.h"
#include "bgq/comm_model.h"
#include "figures_common.h"

static int bench_main() {
  using namespace bgqhf;
  using namespace bgqhf::bench;

  const bgq::HfWorkload workload = bgq::HfWorkload::paper_50h_ce();
  const std::size_t bytes = workload.num_params() * sizeof(float);

  print_header("One weight sync: socket fan-out vs MPI_Bcast (BG/Q)");
  util::Table per_sync(
      {"ranks", "socket (s)", "MPI_Bcast (s)", "bcast advantage"});
  for (const int ranks : {64, 256, 1024, 4096}) {
    const bgq::CommModel comm(bgq::bgq_racks(4), ranks, 4);
    const double socket = comm.socket_sync_seconds(bytes, ranks - 1);
    const double bcast = comm.bcast_seconds(bytes);
    per_sync.add_row({std::to_string(ranks), util::Table::fmt(socket, 3),
                      util::Table::fmt(bcast, 4),
                      util::Table::fmt(socket / bcast, 0) + "x"});
  }
  std::printf("%s", per_sync.render().c_str());

  print_header("End-to-end modeled training time (50 h)");
  util::Table modeled({"config", "MPI collectives (h)", "sockets (h)",
                       "slowdown"});
  for (const ConfigTriple& c : breakdown_configs()) {
    bgq::RunConfig mpi =
        bgq::bgq_run(workload, c.ranks, c.ranks_per_node, c.threads_per_rank);
    bgq::RunConfig socket = mpi;
    socket.use_mpi_collectives = false;
    const double tm = bgq::simulate(mpi).total_seconds;
    const double ts = bgq::simulate(socket).total_seconds;
    modeled.add_row({label(c), util::Table::fmt(tm / 3600.0, 2),
                     util::Table::fmt(ts / 3600.0, 2),
                     util::Table::fmt(ts / tm, 1) + "x"});
  }
  std::printf("%s", modeled.render().c_str());

  print_header("Implicit-sync cooperative prefetch ablation (Sec. V-A3)");
  util::Table prefetch({"config", "with (h)", "without (h)", "gain"});
  for (const ConfigTriple& c : breakdown_configs()) {
    bgq::RunConfig on =
        bgq::bgq_run(workload, c.ranks, c.ranks_per_node, c.threads_per_rank);
    bgq::RunConfig off = on;
    off.implicit_sync = false;
    const double ton = bgq::simulate(on).total_seconds;
    const double toff = bgq::simulate(off).total_seconds;
    prefetch.add_row({label(c), util::Table::fmt(ton / 3600.0, 2),
                      util::Table::fmt(toff / 3600.0, 2),
                      util::Table::fmt(100.0 * (toff / ton - 1.0), 1) + "%"});
  }
  std::printf("%s", prefetch.render().c_str());
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
