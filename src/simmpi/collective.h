// Collective algorithm catalogue, size-based selection, and shared helpers
// for the simmpi collective engine.
//
// The paper attributes a large share of its BG/Q speedup to migrating from
// socket exchange onto optimized MPI collectives (Sec. IV); this header is
// the functional-runtime counterpart of that migration. Each collective has
// several algorithms (the naive seed composition is kept as the reference),
// and a CollectiveTuning picks one per call from the message size and rank
// count — mirroring the size-thresholded selection in MPICH and in the
// analytic bgq::CommModel.
//
// Two selection policies coexist deliberately:
//   * the analytic model (src/bgq/comm_model) prices algorithms with real
//     network parameters (alpha/beta, torus links, contention) and picks
//     Rabenseifner for large reductions, as real MPI libraries do;
//   * this in-process runtime is threads sharing one memory system, where
//     wall time is total memory traffic, not per-rank critical path. There
//     the zero-copy binomial tree (partials move into payloads, combines
//     read them in place, the bcast fans out one shared buffer) does the
//     least copying and wins at every size, so kAuto resolves to it.
// Both policies are visible and testable; DESIGN.md carries the table.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "blas/dispatch.h"

namespace bgqhf::simmpi {

// ---- algorithm catalogue ----

enum class BcastAlgo {
  kAuto = 0,
  kBinomial,   // binomial tree, one shared payload (seed algorithm)
  kPipelined,  // binomial tree over fixed-size chunks (pipelined)
  kFlat,       // root sends to every rank (star)
};

enum class ReduceAlgo {
  kAuto = 0,
  kNaive,        // seed path: serialize, binary tree, scalar combines
  kTree,         // same tree, zero-copy payload moves + SIMD combines
  kRabenseifner  // reduce_scatter(halving) + gather of segments to root
};

enum class AllreduceAlgo {
  kAuto = 0,
  kNaive,              // seed path: naive reduce to 0 + bcast
  kTreeBcast,          // zero-copy tree reduce + shared-payload bcast
  kRecursiveDoubling,  // log P exchange rounds, full vector each round
  kRabenseifner,       // reduce_scatter(halving) + allgather(doubling)
};

enum class AllgatherAlgo {
  kAuto = 0,
  kNaive,              // seed path: gather to 0 + bcast
  kRecursiveDoubling,  // block-doubling exchanges (power-of-two ranks)
  kRing,               // P-1 neighbour shifts, payload relay
};

enum class ReduceScatterAlgo {
  kAuto = 0,
  kNaive,    // reduce to 0 + scatter
  kHalving,  // recursive halving (power-of-two ranks)
  kPairwise, // pairwise exchange, any rank count
};

const char* to_string(BcastAlgo a);
const char* to_string(ReduceAlgo a);
const char* to_string(AllreduceAlgo a);
const char* to_string(AllgatherAlgo a);
const char* to_string(ReduceScatterAlgo a);

inline bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

// ---- tuning / selection ----

/// Thresholds and overrides for per-call algorithm selection. Held by the
/// World; every Comm in that world selects with the same tuning, so a
/// collective never mixes algorithms across ranks.
struct CollectiveTuning {
  // Messages at least this large broadcast in pipelined chunks.
  std::size_t bcast_pipeline_bytes = 1u << 22;
  std::size_t bcast_chunk_bytes = 1u << 20;
  // Small allgathers use log-depth exchanges; large ones keep the
  // shared-payload gather+bcast composition (cheapest in shared memory).
  std::size_t allgather_exchange_bytes = 1u << 16;

  // Forced algorithm overrides (kAuto = size-based selection).
  BcastAlgo bcast = BcastAlgo::kAuto;
  ReduceAlgo reduce = ReduceAlgo::kAuto;
  AllreduceAlgo allreduce = AllreduceAlgo::kAuto;
  AllgatherAlgo allgather = AllgatherAlgo::kAuto;
  ReduceScatterAlgo reduce_scatter = ReduceScatterAlgo::kAuto;

  /// The seed algorithms for every op — the parity/benchmark baseline.
  static CollectiveTuning naive() {
    CollectiveTuning t;
    t.bcast = BcastAlgo::kBinomial;
    t.reduce = ReduceAlgo::kNaive;
    t.allreduce = AllreduceAlgo::kNaive;
    t.allgather = AllgatherAlgo::kNaive;
    t.reduce_scatter = ReduceScatterAlgo::kNaive;
    return t;
  }

  /// BGQHF_COLL=naive (via util::RuntimeEnv) pins the seed algorithms
  /// (CI/debug escape hatch); anything else (or unset) keeps auto
  /// selection.
  static CollectiveTuning from_env();
};

/// Resolve kAuto to a concrete algorithm for this call shape. All ranks
/// call with identical (tuning, ranks, bytes), so they agree.
BcastAlgo select_bcast(const CollectiveTuning& t, int ranks,
                       std::size_t bytes);
ReduceAlgo select_reduce(const CollectiveTuning& t, int ranks,
                         std::size_t bytes);
AllreduceAlgo select_allreduce(const CollectiveTuning& t, int ranks,
                               std::size_t bytes);
AllgatherAlgo select_allgather(const CollectiveTuning& t, int ranks,
                               std::size_t bytes);
ReduceScatterAlgo select_reduce_scatter(const CollectiveTuning& t, int ranks,
                                        std::size_t bytes);

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

// ---- segment layout ----

/// Rank i owns elements [start, start+len) of an n-element vector split
/// across `ranks` segments: the n % ranks leftover elements go one each to
/// the lowest-index segments (MPI_Reduce_scatter_block-style layout).
struct SegmentLayout {
  std::size_t n = 0;
  int ranks = 1;

  std::size_t start(int i) const {
    const std::size_t q = n / static_cast<std::size_t>(ranks);
    const std::size_t r = n % static_cast<std::size_t>(ranks);
    const std::size_t u = static_cast<std::size_t>(i);
    return u * q + (u < r ? u : r);
  }
  std::size_t len(int i) const { return start(i + 1) - start(i); }
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
  template <typename T>
  static void combine_scalar(T& a, const T& b) {
    a += b;
  }
};

struct MaxOp {
  template <typename T>
  static void combine(T* acc, const T* src, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (src[i] > acc[i]) acc[i] = src[i];
    }
  }
  template <typename T>
  static void combine_scalar(T& a, const T& b) {
    if (b > a) a = b;
  }
};

struct MinOp {
  template <typename T>
  static void combine(T* acc, const T* src, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (src[i] < acc[i]) acc[i] = src[i];
    }
  }
  template <typename T>
  static void combine_scalar(T& a, const T& b) {
    if (b < a) a = b;
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
