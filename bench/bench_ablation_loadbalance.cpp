// Ablation for Sec. V-C: utterance-sorting load balance.
//
// Two views: (i) measured shard imbalance of the real partitioners on a
// synthetic corpus (library-level); (ii) modeled end-to-end training time
// with and without load balancing at increasing scale — "the effect is
// more apparent when the training data is scaled to larger sizes".
#include <cstdio>

#include "bench_main.h"
#include "figures_common.h"
#include "speech/corpus.h"
#include "speech/partition.h"

static int bench_main() {
  using namespace bgqhf;
  using namespace bgqhf::bench;

  // ---- (i) measured partitioner quality ----
  print_header("Measured shard imbalance (synthetic 0.5 h corpus)");
  speech::CorpusSpec spec;
  spec.hours = 0.5;
  spec.feature_dim = 4;  // features irrelevant here; keep generation cheap
  spec.num_states = 4;
  const speech::Corpus corpus = speech::generate_corpus(spec);
  std::vector<std::size_t> lengths;
  for (const auto& u : corpus.utterances) lengths.push_back(u.num_frames());

  util::Table measured({"workers", "naive max/mean", "sorted max/mean"});
  for (const std::size_t workers : {8u, 32u, 128u}) {
    const auto naive = speech::partition_utterances(
        lengths, workers, speech::PartitionStrategy::kNaiveEqualCount);
    const auto sorted = speech::partition_utterances(
        lengths, workers, speech::PartitionStrategy::kSortedBalanced);
    measured.add_row({std::to_string(workers),
                      util::Table::fmt(naive.imbalance(lengths), 3),
                      util::Table::fmt(sorted.imbalance(lengths), 3)});
  }
  std::printf("%s", measured.render().c_str());

  // ---- (ii) modeled end-to-end effect ----
  print_header("Modeled training time with/without load balance (50 h)");
  const bgq::HfWorkload workload = bgq::HfWorkload::paper_50h_ce();
  util::Table modeled({"config", "balanced (h)", "naive (h)", "slowdown"});
  for (const ConfigTriple& c : breakdown_configs()) {
    bgq::RunConfig balanced =
        bgq::bgq_run(workload, c.ranks, c.ranks_per_node, c.threads_per_rank);
    bgq::RunConfig naive = balanced;
    naive.load_balanced = false;
    const double tb = bgq::simulate(balanced).total_seconds;
    const double tn = bgq::simulate(naive).total_seconds;
    modeled.add_row({label(c), util::Table::fmt(tb / 3600.0, 2),
                     util::Table::fmt(tn / 3600.0, 2),
                     util::Table::fmt(tn / tb, 2) + "x"});
  }
  std::printf("%s", modeled.render().c_str());
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
