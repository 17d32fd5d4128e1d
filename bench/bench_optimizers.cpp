// Optimizer shoot-out on a common task: Algorithm-1 HF vs. the Related-
// Work alternatives it was chosen over (L-BFGS [15], Krylov subspace
// descent [22], mini-batch SGD). All second-order methods run through the
// same HfCompute primitives, so differences are the optimizers', not the
// infrastructure's.
#include <cstdio>
#include <memory>

#include "bench_main.h"
#include "figures_common.h"
#include "hf/ksd.h"
#include "hf/lbfgs.h"
#include "hf/sgd.h"
#include "hf/serial_compute.h"
#include "hf/speech_workload.h"
#include "hf/trainer.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

bgqhf::hf::TrainerConfig task() {
  bgqhf::hf::TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.01;
  cfg.corpus.feature_dim = 16;
  cfg.corpus.num_states = 6;
  cfg.corpus.mean_utt_seconds = 1.5;
  cfg.corpus.seed = 13;
  cfg.context = 2;
  cfg.hidden = {32};
  cfg.heldout_every_kth = 4;
  return cfg;
}

struct Entry {
  std::string name;
  double loss;
  double accuracy;
  double seconds;
  std::string budget;
};

Entry run_hf() {
  bgqhf::hf::TrainerConfig cfg = task();
  cfg.hf.max_iterations = 8;
  cfg.hf.hyper.cg_max_iters = 30;
  bgqhf::util::Timer t;
  const auto out = bgqhf::hf::train_serial(cfg);
  return {"HF (Algorithm 1)", out.hf.final_heldout_loss,
          out.hf.final_heldout_accuracy, t.seconds(), "8 HF iters"};
}

std::unique_ptr<bgqhf::hf::SerialCompute> make_compute(
    std::vector<float>* theta0) {
  using namespace bgqhf;
  hf::TrainerConfig cfg = task();
  hf::Shards shards = hf::build_shards(cfg);
  theta0->assign(shards.net.params().begin(), shards.net.params().end());
  // Every shard, like train_serial, so each optimizer sees all the data.
  std::vector<std::unique_ptr<hf::Workload>> wl;
  for (std::size_t i = 0; i < shards.train.size(); ++i) {
    wl.push_back(std::make_unique<hf::SpeechWorkload>(
        shards.net, std::move(shards.train[i]), std::move(shards.heldout[i]),
        i,
        hf::make_workload_options(cfg, shards.num_states,
                                  shards.advance_prob, nullptr)));
  }
  return std::make_unique<hf::SerialCompute>(std::move(wl));
}

Entry run_lbfgs() {
  std::vector<float> theta;
  auto compute = make_compute(&theta);
  bgqhf::hf::LbfgsOptions opts;
  opts.max_iterations = 25;
  bgqhf::util::Timer t;
  const auto result = bgqhf::hf::LbfgsOptimizer(opts).run(*compute, theta);
  return {"L-BFGS (m=10)", result.final_heldout_loss,
          result.final_heldout_accuracy, t.seconds(), "25 iters"};
}

Entry run_ksd() {
  std::vector<float> theta;
  auto compute = make_compute(&theta);
  bgqhf::hf::KsdOptions opts;
  opts.max_iterations = 8;
  opts.subspace_dim = 8;
  bgqhf::util::Timer t;
  const auto result = bgqhf::hf::KsdOptimizer(opts).run(*compute, theta);
  return {"Krylov subspace descent (k=8)", result.final_heldout_loss,
          result.final_heldout_accuracy, t.seconds(), "8 iters"};
}

Entry run_sgd() {
  using namespace bgqhf;
  hf::TrainerConfig cfg = task();
  hf::Shards shards = hf::build_shards(cfg);
  nn::Network net = shards.net;
  hf::SgdOptions opts;
  opts.epochs = 8;
  util::Timer t;
  const auto result =
      hf::train_sgd(net, speech::concat_datasets(shards.train),
                    speech::concat_datasets(shards.heldout), opts, nullptr);
  return {"mini-batch SGD", result.final_heldout_loss,
          result.final_heldout_accuracy, t.seconds(), "8 epochs"};
}

}  // namespace

static int bench_main() {
  using bgqhf::util::Table;
  std::printf("\n=== Optimizer comparison (identical task + init) ===\n");
  Table table({"optimizer", "final held-out CE", "accuracy", "wall (s)",
               "budget"});
  for (const Entry& e : {run_hf(), run_lbfgs(), run_ksd(), run_sgd()}) {
    table.add_row({e.name, Table::fmt(e.loss, 4),
                   Table::fmt(100 * e.accuracy, 1) + "%",
                   Table::fmt(e.seconds, 2), e.budget});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nAll second-order methods share the HfCompute primitives; on big "
      "data, HF's\nlarge-batch phases are the ones that parallelize to "
      "thousands of ranks (Sec. II/IV).\n");
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
