// OSU-style micro-benchmarks of the in-process MPI runtime: point-to-point
// bandwidth and collective time vs. message size and rank count. These are
// host measurements of simmpi itself (the functional layer), useful for
// judging how much of a small functional run's wall time is runtime
// overhead versus compute.
// `--json` switches to machine-readable output: bcast and allreduce wall
// time per call over the rank/size grid BENCH_comm.json records, and the
// compressed allreduce against the exact one. A cell whose estimated
// resident bytes exceed the host's MemAvailable is reported as "skipped"
// instead of run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "simmpi/communicator.h"
#include "simmpi/compress.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace bgqhf;

double time_collective(int ranks, std::size_t floats, bool allreduce) {
  const int reps = floats >= 10'000'000 ? 4 : (floats >= 1'000'000 ? 15 : 100);
  simmpi::World world(ranks);
  double seconds = 0.0;
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    // All-zero contributions: the running sums stay bounded across reps,
    // so nothing but the collective itself sits in the timed region.
    std::vector<float> data(floats, 0.0f);
    const auto once = [&] {
      if (allreduce) {
        comm.allreduce_sum(data);
      } else {
        comm.bcast(data, 0);
      }
    };
    once();  // warmup: first-touch of payload buffers and mailboxes
    comm.barrier();
    util::Timer timer;
    for (int i = 0; i < reps; ++i) once();
    comm.barrier();
    if (comm.rank() == 0) seconds = timer.seconds();
  });
  return seconds / reps;
}

struct CompressedRun {
  double seconds = 0.0;        // per call, at the root
  double wire_mb = 0.0;        // whole-world wire bytes per call
  double ratio = 0.0;          // logical bytes / wire bytes, all ranks
};

// Times compressed_allreduce_blob in its steady-state regime: every call
// adds the same fresh rank-seeded contribution onto the persistent
// carrier outside the timed region, and a warmup loop lets the adaptive
// top-k threshold settle before measuring (in steady state the shipped
// mass must match the input mass, so the threshold climbs until the keep
// rate hits the target fraction). The contribution magnitudes are
// heavy-tailed (product of four uniforms — log-gamma, like real gradient
// entries); uniform-magnitude data would make every entry equally urgent
// and the transient ship-everything phase very long.
CompressedRun time_compressed_allreduce(int ranks, std::size_t floats) {
  // Even rep counts: the threshold controller settles into a small
  // period-2 limit cycle, so averaging over full periods keeps the
  // reported wire volume stable.
  const int reps = floats >= 10'000'000 ? 4 : 10;
  const int warmup = 12;
  simmpi::World world(ranks);
  CompressedRun out;
  std::vector<std::size_t> raw(static_cast<std::size_t>(ranks), 0);
  std::vector<std::size_t> wire(static_cast<std::size_t>(ranks), 0);
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    simmpi::CompressOptions opts;
    opts.mode = simmpi::CompressMode::kTopK;  // default topk_fraction
    simmpi::CompressState state;
    std::vector<float> fresh(floats);
    std::uint64_t s =
        0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(comm.rank() + 1);
    const auto next01 = [&s] {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<double>(s >> 11) / 9007199254740992.0;
    };
    for (auto& v : fresh) {
      const double mag = next01() * next01() * next01() * next01();
      v = static_cast<float>(next01() < 0.5 ? -mag : mag);
    }
    // Rotating the contribution by a per-call offset decorrelates the
    // per-entry increments across calls. Re-adding the *same* vector
    // every call would synchronize threshold crossings into avalanches
    // (whole cohorts of equal accumulated value shipping at once), a
    // regime real gradient sequences don't exhibit.
    std::vector<float> carrier(floats, 0.0f);
    int call = 0;
    const auto contribute = [&] {
      const std::size_t off =
          (static_cast<std::size_t>(call++) * 2654435761ULL) % floats;
      for (std::size_t j = 0; j < floats - off; ++j) {
        carrier[j] += fresh[j + off];
      }
      for (std::size_t j = floats - off; j < floats; ++j) {
        carrier[j] += fresh[j + off - floats];
      }
    };
    for (int i = 0; i < warmup; ++i) {
      contribute();
      (void)simmpi::compressed_allreduce_blob(comm, carrier, opts, state);
    }
    const simmpi::OpStats pre = comm.stats().op(simmpi::CollOp::kAllreduce);
    double seconds = 0.0;
    for (int i = 0; i < reps; ++i) {
      contribute();
      comm.barrier();
      util::Timer timer;
      (void)simmpi::compressed_allreduce_blob(comm, carrier, opts, state);
      comm.barrier();
      if (comm.rank() == 0) seconds += timer.seconds();
    }
    const simmpi::OpStats post = comm.stats().op(simmpi::CollOp::kAllreduce);
    const auto rank = static_cast<std::size_t>(comm.rank());
    raw[rank] = post.bytes - pre.bytes;
    wire[rank] = post.wire_bytes - pre.wire_bytes;
    if (comm.rank() == 0) out.seconds = seconds / reps;
  });
  // Whole-world wire traffic over the timed calls only: what actually
  // crossed the links versus the logical payload volume.
  std::size_t raw_total = 0;
  std::size_t wire_total = 0;
  for (std::size_t r = 0; r < raw.size(); ++r) {
    raw_total += raw[r];
    wire_total += wire[r];
  }
  out.wire_mb = static_cast<double>(wire_total) / reps / 1048576.0;
  out.ratio =
      static_cast<double>(raw_total) / static_cast<double>(wire_total);
  return out;
}

/// MemAvailable from /proc/meminfo in bytes; 0 when unreadable (no cell is
/// then skipped).
double mem_available_bytes() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  double kb = 0.0;
  std::string unit;
  while (in >> key >> kb >> unit) {
    if (key == "MemAvailable:") return kb * 1024.0;
  }
  return 0.0;
}

/// Full-length float vectors each rank keeps live in a cell: its own
/// buffer plus the one in flight (exact collectives); the fresh
/// contribution, carrier, error-feedback residual and decode buffer plus
/// the blob in flight (compressed allreduce).
constexpr double kLiveCopiesExact = 2.0;
constexpr double kLiveCopiesCompressed = 5.0;

/// Empty when a cell of `ranks` x `floats` with `copies` live vectors per
/// rank fits in MemAvailable; otherwise the reason it is skipped.
std::string too_big(int ranks, std::size_t floats, double copies) {
  const double needed = ranks * static_cast<double>(floats) * sizeof(float) *
                        copies;
  const double available = mem_available_bytes();
  if (available <= 0.0 || needed <= available) return {};
  char why[96];
  std::snprintf(why, sizeof why, "%.1f GB > %.1f GB", needed / 1e9,
                available / 1e9);
  return why;
}

int run_json() {
  std::printf("{\n  \"bench\": \"bench_simmpi_latency --json\",\n");
  std::printf(
      "  \"note\": \"in-process shared-memory runtime on this host; "
      "seconds per call at the root, closing barrier included\",\n");
  std::printf("  \"runs\": [\n");
  bool first = true;
  std::map<std::pair<int, std::size_t>, double> exact;
  for (const char* op : {"bcast", "allreduce"}) {
    const bool allreduce = std::strcmp(op, "allreduce") == 0;
    for (const int ranks : {4, 16, 64}) {
      for (const std::size_t floats :
           {std::size_t{1'000}, std::size_t{1'000'000},
            std::size_t{40'000'000}}) {
        std::printf("%s    {\"op\": \"%s\", \"ranks\": %d, \"floats\": %zu, ",
                    first ? "" : ",\n", op, ranks, floats);
        first = false;
        const std::string skip = too_big(ranks, floats, kLiveCopiesExact);
        if (!skip.empty()) {
          std::printf("\"skipped\": \"%s\"}", skip.c_str());
          std::fflush(stdout);
          continue;
        }
        const double s = time_collective(ranks, floats, allreduce);
        const double mb = floats * sizeof(float) / 1048576.0;
        if (allreduce) exact[{ranks, floats}] = s;
        std::printf("\"seconds_per_call\": %.6g, \"effective_mb_per_s\": %.1f}",
                    s, mb / s);
        std::fflush(stdout);
      }
    }
  }
  // Compressed allreduce against the exact allreduce measured above. The
  // "effective" bandwidth stays in logical bytes: it answers "how fast
  // did the global sum arrive", not "how many bytes moved".
  double gate_speedup = -1.0;  // negative: the gate cell was not run
  struct Cell {
    int ranks;
    std::size_t floats;
  };
  const Cell cells[] = {
      {4, 1'000'000},  {16, 1'000'000},  {64, 1'000'000},
      {4, 40'000'000}, {16, 40'000'000}, {64, 40'000'000},
  };
  for (const Cell& c : cells) {
    std::printf(
        ",\n    {\"op\": \"compressed_allreduce\", \"mode\": \"topk\", "
        "\"ranks\": %d, \"floats\": %zu, ",
        c.ranks, c.floats);
    std::string skip = too_big(c.ranks, c.floats, kLiveCopiesCompressed);
    const auto base = exact.find({c.ranks, c.floats});
    if (skip.empty() && base == exact.end()) {
      skip = "exact allreduce not measured";
    }
    if (!skip.empty()) {
      std::printf("\"skipped\": \"%s\"}", skip.c_str());
      std::fflush(stdout);
      continue;
    }
    const CompressedRun r = time_compressed_allreduce(c.ranks, c.floats);
    const double mb = c.floats * sizeof(float) / 1048576.0;
    const double speedup = base->second / r.seconds;
    if (c.ranks == 64 && c.floats == 40'000'000) gate_speedup = speedup;
    std::printf(
        "\"seconds_per_call\": %.6g, \"effective_mb_per_s\": %.1f, "
        "\"wire_mb_per_call\": %.2f, \"compression_ratio\": %.1f, "
        "\"speedup_vs_exact\": %.2f}",
        r.seconds, mb / r.seconds, r.wire_mb, r.ratio, speedup);
    std::fflush(stdout);
  }
  std::printf("\n  ],\n");
  if (gate_speedup < 0.0) {
    std::printf(
        "  \"compressed_acceptance\": {\n"
        "    \"topk_p64_40m_floats_effective_bw_vs_exact\": null,\n"
        "    \"required_min\": 4.0,\n"
        "    \"pass\": null,\n"
        "    \"skipped\": \"the topk 64-rank 40M-float cell was not run\"\n"
        "  }\n}\n");
    return 0;
  }
  std::printf(
      "  \"compressed_acceptance\": {\n"
      "    \"topk_p64_40m_floats_effective_bw_vs_exact\": %.2f,\n"
      "    \"required_min\": 4.0,\n"
      "    \"pass\": %s\n  }\n}\n",
      gate_speedup, gate_speedup >= 4.0 ? "true" : "false");
  return 0;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  using namespace bgqhf;
  if (argc > 1 && std::string(argv[1]) == "--json") return run_json();

  std::printf("\n=== simmpi point-to-point throughput (2 ranks) ===\n");
  util::Table p2p({"message bytes", "round trips/s", "MB/s (one way)"});
  for (const std::size_t bytes : {64u, 4096u, 262144u, 4194304u}) {
    const int reps = bytes >= 262144 ? 50 : 500;
    double seconds = 0.0;
    simmpi::run_world(2, [&](simmpi::Comm& comm) {
      std::vector<std::byte> payload(bytes);
      comm.barrier();
      util::Timer timer;
      for (int i = 0; i < reps; ++i) {
        if (comm.rank() == 0) {
          comm.send<std::byte>(payload, 1, 1);
          comm.recv<std::byte>(1, 2);
        } else {
          payload = comm.recv<std::byte>(0, 1);
          comm.send<std::byte>(payload, 0, 2);
        }
      }
      if (comm.rank() == 0) seconds = timer.seconds();
    });
    const double rtps = reps / seconds;
    p2p.add_row({std::to_string(bytes), util::Table::fmt(rtps, 0),
                 util::Table::fmt(2.0 * bytes * reps / seconds / 1048576.0,
                                  1)});
  }
  std::printf("%s", p2p.render().c_str());

  std::printf("\n=== simmpi collectives: time per call (microseconds) ===\n");
  util::Table coll({"ranks", "bcast 1MB", "reduce 1MB", "gather 64KB",
                    "barrier"});
  for (const int ranks : {2, 4, 8}) {
    const int reps = 30;
    double bcast_s = 0, reduce_s = 0, gather_s = 0, barrier_s = 0;
    simmpi::run_world(ranks, [&](simmpi::Comm& comm) {
      std::vector<float> big(262144);     // 1 MB
      std::vector<float> small(16384);    // 64 KB per rank
      comm.barrier();
      util::Timer t1;
      for (int i = 0; i < reps; ++i) comm.bcast(big, 0);
      if (comm.rank() == 0) bcast_s = t1.seconds();
      comm.barrier();
      util::Timer t2;
      for (int i = 0; i < reps; ++i) comm.reduce_sum(big, 0);
      if (comm.rank() == 0) reduce_s = t2.seconds();
      comm.barrier();
      util::Timer t3;
      for (int i = 0; i < reps; ++i) {
        comm.gather<float>(small, 0);
      }
      if (comm.rank() == 0) gather_s = t3.seconds();
      comm.barrier();
      util::Timer t4;
      for (int i = 0; i < reps; ++i) comm.barrier();
      if (comm.rank() == 0) barrier_s = t4.seconds();
    });
    coll.add_row({std::to_string(ranks),
                  util::Table::fmt(1e6 * bcast_s / reps, 0),
                  util::Table::fmt(1e6 * reduce_s / reps, 0),
                  util::Table::fmt(1e6 * gather_s / reps, 0),
                  util::Table::fmt(1e6 * barrier_s / reps, 0)});
  }
  std::printf("%s", coll.render().c_str());
  std::printf(
      "\n(shared-memory message passing on this host; the BG/Q numbers in "
      "the figure\nbenches come from the analytic model, not from these)\n");
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
