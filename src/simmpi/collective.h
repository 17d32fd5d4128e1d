// Shared pieces of the simmpi collectives: the Deadline every blocking op
// takes, the SumOp every reduction combines with, and PairwiseFold, the
// serial mirror of the reduce tree's combine order.
//
// Each collective has exactly one algorithm (communicator.h): binomial-tree
// bcast and reduce, reduce + bcast allreduce, gather + bcast allgather. In
// this in-process runtime the ranks are threads sharing one memory system,
// so wall time is total copying, and the zero-copy tree does the least of
// it at every size. The real-network choice between tree and Rabenseifner
// algorithms is priced by the analytic bgq::CommModel instead.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <vector>

#include "blas/dispatch.h"

namespace bgqhf::simmpi {

// ---- deadlines ----

/// An absolute point in time by which one operation must finish. Every
/// blocking simmpi op takes one (default never()); each internal receive
/// of a collective waits only until the same instant, so one stalled peer
/// cannot stretch an N-step collective to N timeouts.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  static Deadline never() { return Deadline(Clock::time_point::max()); }
  static Deadline in(double seconds) {
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
  }

  bool finite() const noexcept { return at_ != Clock::time_point::max(); }
  Clock::time_point at() const noexcept { return at_; }

 private:
  explicit Deadline(Clock::time_point at) : at_(at) {}
  Clock::time_point at_;
};

// ---- combine policies ----
//
// Element-wise combines used by every reduction algorithm. Float sums
// route through the dispatched SIMD level-1 kernels (blas/dispatch.h);
// y[i] += 1.0f * x[i] under FMA is exactly rounded, so the SIMD path is
// bitwise identical to the scalar one — reductions stay deterministic and
// kernel-independent. Accumulate wide sums (losses, frame counts) as
// double vectors: the fold itself is log-depth, and the scalar statistics
// the HF loop reduces are carried in double end to end.

struct SumOp {
  template <typename T>
  static void combine(T* acc, const T* src, std::size_t n) {
    if constexpr (std::is_same_v<T, float>) {
      blas::active_kernels().saxpy(1.0f, src, acc, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) acc[i] += src[i];
    }
  }
};

// ---- serial mirror of the tree combine order ----

/// Folds a sequence of equal-length partials with exactly the association
/// the binomial reduce tree uses at its root, without any communication.
///
/// SerialCompute and the fault-tolerant master fold through this so the
/// "no loss in accuracy" bitwise contract (serial == distributed == FT)
/// survives the gather->reduce migration: the distributed tree pairs
/// partial i with partial i^stride, and this helper reproduces that
/// pairing with a binary-counter merge (insert partials in slot order;
/// a carry merges two same-level subtrees, lower-slot subtree as the
/// accumulator; leftovers merge lowest level upward).
template <typename T>
class PairwiseFold {
 public:
  /// Insert the next slot's partial (slot order = rank order).
  void push(std::vector<T> partial) {
    std::size_t lvl = 0;
    for (; lvl < levels_.size() && levels_[lvl].has_value(); ++lvl) {
      std::vector<T> acc = std::move(*levels_[lvl]);
      levels_[lvl].reset();
      SumOp::combine(acc.data(), partial.data(),
                     acc.size() < partial.size() ? acc.size()
                                                 : partial.size());
      partial = std::move(acc);
    }
    if (lvl == levels_.size()) levels_.emplace_back();
    levels_[lvl] = std::move(partial);
  }

  /// Merge the leftover subtrees (lowest level upward) and return the
  /// total. The fold is then empty.
  std::vector<T> finish() {
    std::optional<std::vector<T>> acc;
    for (auto& level : levels_) {
      if (!level.has_value()) continue;
      if (!acc.has_value()) {
        acc = std::move(level);
      } else {
        // The higher level holds lower-slot ranks: it is the accumulator,
        // exactly as the tree's parent combines its later child into it.
        SumOp::combine(level->data(), acc->data(),
                       level->size() < acc->size() ? level->size()
                                                   : acc->size());
        acc = std::move(level);
      }
      level.reset();
    }
    levels_.clear();
    return acc.has_value() ? std::move(*acc) : std::vector<T>{};
  }

 private:
  std::vector<std::optional<std::vector<T>>> levels_;
};

}  // namespace bgqhf::simmpi
