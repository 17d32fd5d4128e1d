// bench_datastore: does the shard prefetcher actually hide I/O?
//
// Stages a small multi-shard store in a temp directory, arms the
// deterministic slow-I/O fault (emulating a shared-filesystem fetch), then
// streams every utterance through ShardedSource twice with identical
// per-utterance compute:
//
//   baseline:  prefetch off — every shard load stalls the consumer;
//   prefetch:  background loader runs ahead — only the cold first shard
//              (and any load longer than the compute it hides behind)
//              stalls.
//
// The headline number is io_hidden_fraction = 1 - stall/io for the
// prefetch pass: how much of the (injected + real) shard I/O the loader
// overlapped with compute. The CI leg gates this at >= 0.9. Both passes
// also CRC the streamed bytes; the checksums must match each other — the
// prefetcher changes timing, never data.
//
//   bench_datastore            human-readable table
//   bench_datastore --json     machine-readable BENCH_data.json body
//   bench_datastore ci=1       exit nonzero unless hidden >= 0.9 and the
//                              two passes streamed identical bytes
//
// Flags: shards (default 24), delay_ms (injected per-shard I/O, default 2),
// overlap_factor (per-shard compute as a multiple of the worst-case
// per-shard delay, default 2), depth (prefetch depth, default 2).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_main.h"
#include "speech/source.h"
#include "speech/store/writer.h"
#include "util/checksum.h"
#include "util/config.h"

namespace {

using namespace bgqhf;
using Clock = std::chrono::steady_clock;

struct BenchSetup {
  std::string dir;
  std::size_t shards = 0;
  std::size_t utterances = 0;
  double delay_ms = 2.0;
  double compute_per_utt_s = 0.0;
  std::size_t depth = 2;
};

struct PassResult {
  speech::store::CacheStats stats;
  double wall_seconds = 0.0;
  std::uint32_t crc = 0;
  std::size_t frames = 0;
};

/// Deterministic consumer compute: spin the clock for `seconds`. Stands in
/// for the GEMM work a trainer does per utterance; spinning (not sleeping)
/// makes the overlap honest — the loader's I/O must fit behind real CPU
/// occupancy, which its sleep-based injected delay can (the sleep yields
/// the core).
void burn(double seconds) {
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
  }
}

PassResult run_pass(const BenchSetup& setup, bool prefetch) {
  speech::SourceOptions opts;
  opts.heldout_every_kth = 0;  // the whole store is one training stream
  opts.prefetch = prefetch;
  opts.prefetch_depth = setup.depth;
  opts.io_fault.delay_ms = setup.delay_ms;
  opts.io_fault.seed = 0xDA7A;
  speech::SourceSplit split = speech::open_sharded_split(setup.dir, opts);
  auto& source = static_cast<speech::ShardedSource&>(*split.train);

  PassResult result;
  const auto t0 = Clock::now();
  std::uint32_t crc = 0;
  source.visit([&](const speech::Utterance& utt) {
    crc = util::crc32(utt.features.data(),
                      utt.features.size() * sizeof(float), crc);
    crc = util::crc32(utt.labels.data(), utt.labels.size() * sizeof(int),
                      crc);
    result.frames += utt.num_frames();
    burn(setup.compute_per_utt_s);
  });
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  result.crc = crc;
  result.stats = source.cache_stats();
  return result;
}

double hidden_fraction(const PassResult& prefetch) {
  if (prefetch.stats.io_seconds <= 0.0) return 1.0;
  return 1.0 - prefetch.stats.stall_seconds / prefetch.stats.io_seconds;
}

void print_pass_json(const char* key, const PassResult& r, bool trailing) {
  std::printf("  \"%s\": {\n", key);
  std::printf("    \"wall_seconds\": %.6f,\n", r.wall_seconds);
  std::printf("    \"stall_seconds\": %.6f,\n", r.stats.stall_seconds);
  std::printf("    \"io_seconds\": %.6f,\n", r.stats.io_seconds);
  std::printf("    \"hits\": %llu,\n",
              static_cast<unsigned long long>(r.stats.hits));
  std::printf("    \"misses\": %llu,\n",
              static_cast<unsigned long long>(r.stats.misses));
  std::printf("    \"shards_loaded\": %llu,\n",
              static_cast<unsigned long long>(r.stats.shards_loaded));
  std::printf("    \"bytes_loaded\": %llu\n",
              static_cast<unsigned long long>(r.stats.bytes_loaded));
  std::printf("  }%s\n", trailing ? "," : "");
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const bool json = argc > 1 && std::string(argv[1]) == "--json";
  const util::Config cfg =
      util::Config::from_args(json ? argc - 1 : argc,
                              json ? argv + 1 : argv);

  const auto want_shards =
      static_cast<std::size_t>(cfg.get_int("shards", 24));
  const double delay_ms = cfg.get_double("delay_ms", 2.0);
  const double overlap_factor = cfg.get_double("overlap_factor", 2.0);
  const auto depth = static_cast<std::size_t>(cfg.get_int("depth", 2));
  const bool ci = cfg.get_bool("ci", false);
  for (const auto& key : cfg.unused_keys()) {
    std::fprintf(stderr, "unknown flag: %s\n", key.c_str());
    return 2;
  }

  // Stage the store: size the spec so records fill ~want_shards shards of
  // 64 KiB each (feature_dim=12 -> ~52 bytes/frame).
  BenchSetup setup;
  setup.dir = "/tmp/bgqhf_bench_datastore";
  setup.delay_ms = delay_ms;
  setup.depth = depth;
  speech::CorpusSpec spec;
  spec.feature_dim = 12;
  spec.num_states = 5;
  spec.mean_utt_seconds = 1.5;
  spec.seed = 7;
  const std::size_t shard_bytes = 64u << 10;
  spec.hours = static_cast<double>(want_shards * shard_bytes) /
               (52.0 * spec.frames_per_second * 3600.0);
  speech::store::WriterOptions wopts;
  wopts.target_shard_bytes = shard_bytes;
  const speech::store::CorpusIndex index =
      speech::store::generate_sharded_corpus(spec, setup.dir, wopts);
  setup.shards = index.shard_files.size();
  setup.utterances = index.num_utterances();

  // Per-shard consumer compute = overlap_factor x the worst-case injected
  // delay (delay_ms * 1.5), spread across the shard's utterances, so a
  // depth-1 window is always enough for the loader to stay ahead.
  const double compute_per_shard = overlap_factor * delay_ms * 1.5e-3;
  setup.compute_per_utt_s = compute_per_shard *
                            static_cast<double>(setup.shards) /
                            static_cast<double>(setup.utterances);

  const PassResult baseline = run_pass(setup, /*prefetch=*/false);
  const PassResult prefetch = run_pass(setup, /*prefetch=*/true);
  const double hidden = hidden_fraction(prefetch);
  const bool bytes_match = baseline.crc == prefetch.crc &&
                           baseline.frames == prefetch.frames;

  if (json) {
    std::printf("{\n  \"bench\": \"bench_datastore\",\n");
    std::printf("  \"shards\": %zu,\n", setup.shards);
    std::printf("  \"utterances\": %zu,\n", setup.utterances);
    std::printf("  \"prefetch_depth\": %zu,\n", setup.depth);
    std::printf("  \"delay_ms\": %.3f,\n", setup.delay_ms);
    print_pass_json("baseline", baseline, /*trailing=*/true);
    print_pass_json("prefetch", prefetch, /*trailing=*/true);
    std::printf("  \"bytes_match\": %s,\n", bytes_match ? "true" : "false");
    std::printf("  \"io_hidden_fraction\": %.4f\n}\n", hidden);
  } else {
    std::printf("datastore: %zu shards, %zu utterances, depth=%zu, "
                "injected delay %.1f ms/shard\n",
                setup.shards, setup.utterances, setup.depth, setup.delay_ms);
    std::printf("%-10s %10s %10s %10s %6s %6s\n", "pass", "wall_s",
                "stall_s", "io_s", "hit", "miss");
    const auto row = [](const char* name, const PassResult& r) {
      std::printf("%-10s %10.4f %10.4f %10.4f %6llu %6llu\n", name,
                  r.wall_seconds, r.stats.stall_seconds, r.stats.io_seconds,
                  static_cast<unsigned long long>(r.stats.hits),
                  static_cast<unsigned long long>(r.stats.misses));
    };
    row("baseline", baseline);
    row("prefetch", prefetch);
    std::printf("io hidden by prefetch: %.1f%%  (bytes %s)\n", hidden * 100.0,
                bytes_match ? "match" : "MISMATCH");
  }

  if (ci) {
    if (!bytes_match) {
      std::fprintf(stderr, "FAIL: passes streamed different bytes\n");
      return 1;
    }
    if (hidden < 0.9) {
      std::fprintf(stderr,
                   "FAIL: prefetch hid only %.1f%% of shard I/O (< 90%%)\n",
                   hidden * 100.0);
      return 1;
    }
    std::printf("CI gate passed: %.1f%% of shard I/O hidden\n",
                hidden * 100.0);
  }
  return 0;
}

int main(int argc, char** argv) {
  return bgqhf::bench::guarded_main([&] { return bench_main(argc, argv); });
}
