// Related-Work reproduction (Sec. II-A): HF vs. mini-batch SGD.
//
// Two views:
//  (i) measured, on a synthetic corpus: serial SGD and serial HF trained
//      on identical data — SGD is a strong serial baseline (the paper:
//      "training DNNs via SGD is still the most popular technique");
//  (ii) modeled: synchronous data-parallel SGD stops scaling after a
//      handful of workers because every update pays a full-gradient
//      allreduce ("parallelization of dense networks can actually be
//      slower than serial SGD" [9]), while HF's phases amortize the same
//      communication over the whole data set — the paper's reason to
//      choose HF for BG/Q.
#include <cstdio>

#include "bench_main.h"
#include "bgq/sgd_model.h"
#include "figures_common.h"
#include "hf/async_sgd.h"
#include "hf/distributed_sgd.h"
#include "hf/sgd.h"
#include "hf/trainer.h"
#include "util/timer.h"

static int bench_main() {
  using namespace bgqhf;
  using namespace bgqhf::bench;

  // ---- (i) measured serial comparison ----
  print_header("Measured: serial SGD vs serial HF (synthetic corpus)");
  hf::TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.01;
  cfg.corpus.feature_dim = 16;
  cfg.corpus.num_states = 6;
  cfg.corpus.mean_utt_seconds = 1.5;
  cfg.corpus.seed = 21;
  cfg.context = 2;
  cfg.hidden = {32};
  cfg.heldout_every_kth = 4;
  cfg.hf.max_iterations = 8;
  cfg.hf.hyper.cg_max_iters = 30;

  util::Timer hf_timer;
  const hf::TrainOutcome hf_out = hf::train_serial(cfg);
  const double hf_seconds = hf_timer.seconds();

  hf::Shards shards = hf::build_shards(cfg);
  nn::Network sgd_net = shards.net;  // same initialization
  hf::SgdOptions sgd_opts;
  sgd_opts.epochs = 8;
  sgd_opts.batch_frames = 256;
  util::Timer sgd_timer;
  const hf::SgdResult sgd_out =
      hf::train_sgd(sgd_net, speech::concat_datasets(shards.train),
                    speech::concat_datasets(shards.heldout), sgd_opts, nullptr);
  const double sgd_seconds = sgd_timer.seconds();

  util::Table measured({"optimizer", "final held-out CE", "accuracy",
                        "wall (s)", "data passes"});
  measured.add_row({"HF (Algorithm 1)",
                    util::Table::fmt(hf_out.hf.final_heldout_loss, 4),
                    util::Table::fmt(100 * hf_out.hf.final_heldout_accuracy,
                                     1) +
                        "%",
                    util::Table::fmt(hf_seconds, 2),
                    std::to_string(cfg.hf.max_iterations)});
  measured.add_row({"mini-batch SGD",
                    util::Table::fmt(sgd_out.final_heldout_loss, 4),
                    util::Table::fmt(100 * sgd_out.final_heldout_accuracy,
                                     1) +
                        "%",
                    util::Table::fmt(sgd_seconds, 2),
                    std::to_string(sgd_opts.epochs)});
  std::printf("%s", measured.render().c_str());

  // ---- (ii) measured synchronous parallel SGD (functional runtime) ----
  print_header("Measured: synchronous parallel SGD (allreduce per update)");
  util::Table dist({"workers", "held-out CE", "updates",
                    "allreduce MB moved", "wall (s)"});
  hf::SgdOptions dist_opts;
  dist_opts.epochs = 4;
  dist_opts.batch_frames = 128;
  for (const int workers : {1, 2, 4}) {
    hf::TrainerConfig dcfg = cfg;
    dcfg.workers = workers;
    const hf::DistributedSgdOutcome out =
        hf::train_sgd_distributed(dcfg, dist_opts);
    dist.add_row({std::to_string(workers),
                  util::Table::fmt(out.sgd.final_heldout_loss, 4),
                  std::to_string(out.sgd.updates),
                  util::Table::fmt(out.comm.collective_bytes() / 1048576.0, 1),
                  util::Table::fmt(out.seconds, 2)});
  }
  std::printf("%s", dist.render().c_str());
  std::printf(
      "\nEvery SGD update moves the full parameter vector through an "
      "allreduce;\nthe data volume grows with worker count and update "
      "count, not with useful work.\n");

  // ---- (iii) measured asynchronous parameter-server SGD ([14]) ----
  print_header("Measured: asynchronous parameter-server SGD (Downpour)");
  util::Table async({"workers", "held-out CE", "updates applied",
                     "p2p msgs", "wall (s)"});
  hf::AsyncSgdOptions async_opts;
  async_opts.sgd.batch_frames = 128;
  async_opts.steps_per_worker = 60;
  for (const int workers : {1, 2, 4}) {
    hf::TrainerConfig acfg = cfg;
    acfg.workers = workers;
    const hf::AsyncSgdOutcome out = hf::train_sgd_async(acfg, async_opts);
    async.add_row({std::to_string(workers),
                   util::Table::fmt(out.final_heldout_loss, 4),
                   std::to_string(out.updates_applied),
                   std::to_string(out.comm.p2p_messages()),
                   util::Table::fmt(out.seconds, 2)});
  }
  std::printf("%s", async.render().c_str());
  std::printf(
      "\nAsync SGD trades the deterministic trajectory for lock-free "
      "updates; gradients\nare applied stale, and every update still moves "
      "the full parameter vector twice\n(pull + push) through the server "
      "link — the contrast the paper draws with HF.\n");

  // ---- (iv) modeled parallel-SGD scaling ----
  print_header("Modeled: synchronous parallel SGD throughput (frames/s)");
  util::Table modeled({"ranks", "BG/Q frames/s", "Xeon-cluster frames/s"});
  bgq::SgdModelConfig bgq_cfg;
  bgq_cfg.machine = bgq::bgq_racks(1);
  bgq_cfg.ranks_per_node = 4;
  bgq_cfg.threads_per_rank = 16;
  bgq::SgdModelConfig xeon_cfg;
  xeon_cfg.machine = bgq::intel_cluster(96);
  xeon_cfg.ranks_per_node = 1;
  xeon_cfg.threads_per_rank = 8;
  for (const int ranks : {1, 2, 4, 8, 16, 32, 64}) {
    bgq_cfg.ranks = ranks;
    xeon_cfg.ranks = ranks;
    modeled.add_row(
        {std::to_string(ranks),
         util::Table::fmt(bgq::sgd_throughput(bgq_cfg).frames_per_second, 0),
         util::Table::fmt(bgq::sgd_throughput(xeon_cfg).frames_per_second,
                          0)});
  }
  std::printf("%s", modeled.render().c_str());

  const int bgq_limit = bgq::sgd_scaling_limit(bgq_cfg, 4096);
  const int xeon_limit = bgq::sgd_scaling_limit(xeon_cfg, 96);
  std::printf(
      "\nParallel SGD stops paying off at ~%d ranks on BG/Q and ~%d on the "
      "Ethernet cluster\n(HF scales to 4096: its bcast/reduce volume is "
      "amortized over full-data batches).\n",
      bgq_limit, xeon_limit);
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
