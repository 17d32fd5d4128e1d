// corpus_shard: stage and inspect sharded corpus stores.
//
// The paper's runs never synthesize data at training time — the corpus is
// prepared once on the I/O nodes and streamed in. This tool is that
// staging step for the BGQS1 store:
//
//   corpus_shard generate dir=STORE hours=0.02 [feature_dim=12 ...]
//       Stream-generate the spec's corpus straight into shards (O(shard)
//       memory; the identical utterance sequence the in-RAM generator
//       yields at the same seed).
//   corpus_shard info dir=STORE
//       Print the index summary (shards, utterances, frames) — reads the
//       index only, never shard data.
//   corpus_shard plan hours=400 [feature_dim=... mean_utt_seconds=...]
//       Dry-run sizing from the spec alone: frames, estimated bytes and
//       shard count for a store that was never generated. This is how the
//       400-hour configuration is sized without 400 hours of disk.
//
// Common generate/plan flags: hours, feature_dim, num_states,
// mean_utt_seconds, seed, shard_mb (target shard size). An unknown mode or
// flag exits 2 naming it.
#include <algorithm>
#include <cstdio>
#include <string>

#include "speech/corpus.h"
#include "speech/store/format.h"
#include "speech/store/writer.h"
#include "util/config.h"

namespace {

using namespace bgqhf;

speech::CorpusSpec spec_from(const util::Config& cfg) {
  speech::CorpusSpec spec;
  spec.hours = cfg.get_double("hours", 0.02);
  spec.feature_dim = static_cast<std::size_t>(cfg.get_int("feature_dim", 12));
  spec.num_states = static_cast<std::size_t>(cfg.get_int("num_states", 5));
  spec.mean_utt_seconds = cfg.get_double("mean_utt_seconds", 1.5);
  spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  return spec;
}

speech::store::WriterOptions writer_options(const util::Config& cfg) {
  speech::store::WriterOptions options;
  options.target_shard_bytes =
      static_cast<std::size_t>(cfg.get_double("shard_mb", 8.0) * (1 << 20));
  return options;
}

void print_index(const speech::store::CorpusIndex& index) {
  std::printf("shards:        %zu\n", index.shard_files.size());
  std::printf("utterances:    %zu\n", index.num_utterances());
  std::printf("total_frames:  %zu\n", index.total_frames());
  std::printf("feature_dim:   %zu\n", index.feature_dim);
  std::printf("num_states:    %zu\n", index.num_states);
}

int cmd_generate(const speech::CorpusSpec& spec, const std::string& dir,
                 const speech::store::WriterOptions& options) {
  const speech::store::CorpusIndex index =
      speech::store::generate_sharded_corpus(spec, dir, options);
  std::printf("generated store %s\n", dir.c_str());
  print_index(index);
  return 0;
}

int cmd_info(const std::string& dir) {
  print_index(speech::store::load_index(speech::store::index_path(dir)));
  return 0;
}

int cmd_plan(const speech::CorpusSpec& spec, std::size_t shard_bytes) {
  const std::size_t frames = speech::spec_total_frames(spec);
  // Per-frame record cost: one i32 label + feature_dim f32s; utterance
  // framing (24B header + 8B CRC frame + padding) amortizes over the mean
  // utterance length.
  const double frames_per_utt =
      spec.mean_utt_seconds * spec.frames_per_second;
  const double utts = frames / std::max(1.0, frames_per_utt);
  const double bytes = static_cast<double>(frames) *
                           (4.0 + 4.0 * static_cast<double>(spec.feature_dim)) +
                       utts * 32.0;
  std::printf("plan for hours=%.3f (nothing generated):\n", spec.hours);
  std::printf("total_frames:  %zu\n", frames);
  std::printf("utterances:    ~%.0f\n", utts);
  std::printf("store_bytes:   ~%.0f (%.2f GiB)\n", bytes,
              bytes / (1024.0 * 1024.0 * 1024.0));
  // generate writes at least one shard, however small the store.
  std::printf("shards:        ~%.0f at %zu bytes each\n",
              std::max(1.0, bytes / static_cast<double>(shard_bytes)),
              shard_bytes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: corpus_shard generate|info|plan "
                 "[dir=STORE] [key=value...]\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    if (mode != "generate" && mode != "info" && mode != "plan") {
      std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
      return 2;
    }
    const util::Config cfg = util::Config::from_args(argc - 1, argv + 1);
    const std::string dir =
        mode == "plan" ? std::string() : cfg.get_string("dir", "");
    if (mode != "plan" && dir.empty()) {
      std::fprintf(stderr, "%s: missing dir=STORE\n", mode.c_str());
      return 2;
    }
    speech::CorpusSpec spec;
    speech::store::WriterOptions options;
    if (mode != "info") {
      spec = spec_from(cfg);
      options = writer_options(cfg);
    }
    for (const auto& key : cfg.unused_keys()) {
      std::fprintf(stderr, "%s: unknown flag: %s\n", mode.c_str(),
                   key.c_str());
      return 2;
    }
    if (mode == "generate") return cmd_generate(spec, dir, options);
    if (mode == "plan") return cmd_plan(spec, options.target_shard_bytes);
    return cmd_info(dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corpus_shard %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
}
