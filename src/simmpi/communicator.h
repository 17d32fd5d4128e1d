// Communicator: the per-rank handle of the in-process MPI-subset runtime.
//
// Ranks are threads sharing a World; point-to-point operations are buffered
// (standard-mode) sends into the destination mailbox, so a send never
// deadlocks against a matching receive. The collectives are the few the
// paper's master/worker HF needs after its Sec. IV sockets->MPI migration,
// one algorithm each: a binomial-tree bcast that forwards one shared
// payload per tree edge, a zero-copy binomial-tree reduce, allreduce as
// reduce + bcast, allgather as gather + bcast, and flat gather/scatter.
// The reduce tree has a *fixed* combine order (mirrored serially by
// PairwiseFold), which keeps every reduction bitwise deterministic at a
// given rank count — the property behind the paper's "no loss in accuracy"
// claim for the distributed implementation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/span.h"
#include "simmpi/collective.h"
#include "simmpi/fault.h"
#include "simmpi/mailbox.h"
#include "simmpi/message.h"
#include "simmpi/stats.h"
#include "util/barrier.h"
#include "util/timer.h"

namespace bgqhf::simmpi {

/// One communicator's shared state: its members (group rank -> world
/// rank), its context id (stamped on every message, 0 = the world
/// communicator), its barrier, and its revoke/shrink agreement. Split and
/// shrink groups are interned in the World by member list, so every member
/// of one split shares one object.
struct CommGroup {
  CommGroup(std::vector<int> m, int ctx)
      : members(std::move(m)), context(ctx), barrier(members.size()) {}

  const std::vector<int> members;
  const int context;
  util::Barrier barrier;
  std::atomic<bool> revoked{false};

  // Guarded by mu: who revoked and why, and the shrink agreement.
  std::mutex mu;
  std::condition_variable cv;
  int revoker = -1;
  std::string reason;
  std::vector<int> arrived;              // world ranks inside shrink()
  std::shared_ptr<CommGroup> successor;  // set once the shrink decides
};

/// Shared state of one job: mailboxes, communicator groups, per-rank
/// statistics, and (optionally) a fault injector consulted on every
/// communication op.
class World {
 public:
  explicit World(int size);

  int size() const noexcept { return size_; }
  Mailbox& mailbox(int rank) { return *mailboxes_.at(rank); }
  CommStats& stats(int rank) { return stats_.at(rank); }
  const std::shared_ptr<CommGroup>& world_group() const {
    return world_group_;
  }

  /// Intern the group with exactly these members (world ranks, group-rank
  /// order). Every member of a split calls this with the identical list
  /// and receives the same CommGroup, so the group barrier counts the
  /// right parties. Identical member lists from independent splits share
  /// one group — barrier semantics depend only on membership — unless the
  /// interned one was revoked: a revoked context is never handed out again.
  std::shared_ptr<CommGroup> intern_group(const std::vector<int>& members);

  /// Mark `g` revoked by `revoker` (first caller's reason wins), drop its
  /// queued messages and wake every member's mailbox and barrier wait.
  void revoke(CommGroup& g, int revoker, const std::string& reason);
  /// A rank body threw: revoke every communicator `world_rank` belongs to
  /// and mark it departed, so peers blocked on it wake instead of hanging.
  void fail(int world_rank, const std::string& reason);
  /// The rank's body has returned or thrown (set by run_ranks). A shrink
  /// stops waiting for departed members.
  void depart(int world_rank) { departed_[world_rank] = true; }
  bool departed(int world_rank) const { return departed_[world_rank]; }
  /// The rank's body threw (set by fail() before it revokes anything).
  bool failed(int world_rank) const { return failed_[world_rank]; }

  /// Sum of all ranks' stats (call after the job joins).
  CommStats total_stats() const;

  /// Arm fault injection for this job. Call before run_ranks; a config
  /// with no active faults leaves the world fault-free.
  void install_faults(const FaultConfig& config);
  FaultInjector* faults() noexcept { return faults_.get(); }

 private:
  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<CommStats> stats_;
  std::unique_ptr<std::atomic<bool>[]> departed_;
  std::unique_ptr<std::atomic<bool>[]> failed_;
  std::unique_ptr<FaultInjector> faults_;
  std::shared_ptr<CommGroup> world_group_;
  std::mutex group_mu_;
  int next_context_ = 1;  // guarded by group_mu_
  std::map<std::vector<int>, std::shared_ptr<CommGroup>> groups_;
};

/// Reserved internal tag space for collectives (user tags must be >= 0,
/// matching MPI's requirement).
inline constexpr int kCollectiveTagBase = -1000;
inline constexpr int kTagGather = kCollectiveTagBase - 1;
inline constexpr int kTagScatter = kCollectiveTagBase - 2;
inline constexpr int kTagReduce = kCollectiveTagBase - 3;
inline constexpr int kTagBcast = kCollectiveTagBase - 4;
inline constexpr int kTagBarrier = kCollectiveTagBase - 5;  // timeouts only

/// Binomial-tree neighbourhood of `rank` for a tree rooted at `root`:
/// the parent (or -1 at the root) and the children in the order the
/// broadcast forwards to them (descending subtree size).
struct TreeShape {
  int parent = -1;
  std::vector<int> children;
};

inline TreeShape binomial_shape(int rank, int root, int n) {
  TreeShape s;
  const int rel = ((rank - root) % n + n) % n;
  int mask = 1;
  while (mask < n && (rel & mask) == 0) mask <<= 1;
  if (rel != 0) s.parent = (rel - mask + root) % n;
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (rel + m < n) s.children.push_back((rel + m + root) % n);
  }
  return s;
}

class Comm {
 public:
  Comm(World& world, int rank)
      : world_(&world),
        rank_(rank),
        world_rank_(rank),
        group_(world.world_group()) {}

  int rank() const noexcept { return rank_; }
  int size() const noexcept {
    return static_cast<int>(group_->members.size());
  }
  /// This rank's identity in the underlying World. Equal to rank() on the
  /// world communicator; on a split or shrunk communicator it is what
  /// stats, fault schedules, and trace attribution key on.
  int world_rank() const noexcept { return world_rank_; }
  /// World rank of member `r` of this communicator.
  int world_rank_of(int r) const {
    check_rank(r);
    return global(r);
  }
  CommStats& stats() { return world_->stats(world_rank_); }

  /// MPI_Comm_split: collective over this communicator. Ranks passing the
  /// same `color` land in one sub-communicator whose ranks are ordered by
  /// (key, then this communicator's rank); every collective, compression,
  /// and FT path runs unchanged inside the result. World-rank identities
  /// (per-rank stats, fault kill schedules, obs attribution) are
  /// preserved — only the rank numbering seen through the returned Comm
  /// changes. Splitting a split communicator composes. Each group has its
  /// own context id, so its traffic never matches its parent's.
  Comm split(int color, int key);

  // ---- failure handling (ULFM-style) ----

  /// MPI_Comm_revoke: mark this communicator failed for every member.
  /// Every pending and later op on it, on any member, throws Revoked
  /// carrying this rank and `reason`; queued messages are dropped.
  /// Idempotent; the first revoker's reason is kept.
  void revoke(const std::string& reason = {});

  /// MPI_Comm_shrink: revoke this communicator, then agree on the members
  /// that reach this call by `dl` (or until every member has either
  /// arrived or departed) and return them, in their old order, as a new
  /// communicator with a fresh context. A rank that arrives after the
  /// agreement was decided is not in it and gets Revoked.
  Comm shrink(const Deadline& dl);

  /// Attach a CRC32 to every payload this handle sends (once per shared
  /// payload, however many destinations it fans out to). Receivers check
  /// any CRC they find before using or forwarding the payload and throw
  /// CorruptMessage on a mismatch. Inherited by split/shrink results.
  void set_checksums(bool on) noexcept { checksums_ = on; }

  // ---- point to point ----
  //
  // Every blocking op takes one optional Deadline (default never): when it
  // passes first, the op throws TimeoutError carrying (rank, source, tag).

  /// Buffered send of a span of trivially copyable elements.
  template <typename T>
  void send(std::span<const T> data, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(dest);
    if (tag < 0) throw std::invalid_argument("simmpi: user tag must be >= 0");
    send_bytes(as_bytes_copy(data), dest, tag, /*collective=*/false);
  }

  /// Blocking receive; returns the payload as a vector<T>. Throws if the
  /// payload size is not a multiple of sizeof(T).
  template <typename T>
  std::vector<T> recv(int source, int tag,
                      const Deadline& dl = Deadline::never(),
                      Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Message m = receive(source, tag, dl, /*p2p=*/true);
    if (status != nullptr) {
      *status = Status{to_group(m.source), m.tag, m.size_bytes()};
    }
    return from_bytes<T>(m);
  }

  /// Blocking receive into a preallocated span; returns element count.
  template <typename T>
  std::size_t recv_into(std::span<T> out, int source, int tag,
                        const Deadline& dl = Deadline::never(),
                        Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Message m = receive(source, tag, dl, /*p2p=*/true);
    if (status != nullptr) {
      *status = Status{to_group(m.source), m.tag, m.size_bytes()};
    }
    const std::size_t n = m.size_bytes() / sizeof(T);
    if (n > out.size()) {
      throw std::length_error("simmpi: recv_into buffer too small");
    }
    if (n > 0) std::memcpy(out.data(), m.payload.data(), n * sizeof(T));
    return n;
  }

  /// Non-destructive probe.
  bool probe(int source, int tag) const {
    return world_->mailbox(world_rank_)
        .probe(translate_source(source), tag, group_->context);
  }

  // ---- collectives (all ranks must call, same arguments shape) ----

  void barrier(const Deadline& dl = Deadline::never());

  /// Broadcast `data` (resized on non-roots) down the binomial tree rooted
  /// at `root`. Each rank receives one payload from its parent and
  /// forwards that same shared buffer to each child, so the tree carries
  /// exactly one message per edge. A timeout names the tree parent that
  /// went silent.
  template <typename T>
  void bcast(std::vector<T>& data, int root,
             const Deadline& dl = Deadline::never()) {
    BGQHF_SPAN("collective", "bcast");
    util::Timer t;
    bcast_tree(data, root, dl);
    stats().add_op(CollOp::kBcast, data.size() * sizeof(T), t.seconds());
  }

  /// Element-wise sum reduction to `root` over the binomial tree. All ranks
  /// pass vectors of equal length; on root, `inout` holds the result
  /// afterwards (non-roots are zero-filled so accidental reads are loud in
  /// tests). The combine order is fixed, so the result is independent of
  /// thread timing, and PairwiseFold mirrors it serially. If the op throws,
  /// `inout` is left unspecified (it may already have moved into a send).
  template <typename T>
  void reduce_sum(std::vector<T>& inout, int root,
                  const Deadline& dl = Deadline::never()) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    BGQHF_SPAN("collective", "reduce");
    util::Timer t;
    const std::size_t count = inout.size();
    if (size() > 1) {
      auto total = tree_reduce_consume(std::move(inout), root, dl);
      if (total.has_value()) {
        inout = std::move(*total);
      } else {
        inout.assign(count, T{});
      }
    }
    stats().add_op(CollOp::kReduce, count * sizeof(T), t.seconds());
  }

  /// Allreduce: tree reduce to rank 0, then bcast, so every rank ends with
  /// the identical bits reduce_sum leaves on its root.
  template <typename T>
  void allreduce_sum(std::vector<T>& inout,
                     const Deadline& dl = Deadline::never()) {
    static_assert(std::is_trivially_copyable_v<T>);
    BGQHF_SPAN("collective", "allreduce");
    util::Timer t;
    const std::size_t bytes = inout.size() * sizeof(T);
    if (size() > 1) {
      auto total = tree_reduce_consume(std::move(inout), 0, dl);
      // Non-roots arrive empty and are resized by the broadcast; the
      // zero-fill a plain reduce performs would be dead stores here.
      if (total.has_value()) inout = std::move(*total);
      bcast_tree(inout, 0, dl);
    }
    stats().add_op(CollOp::kAllreduce, bytes, t.seconds());
  }

  /// Allgather: every rank contributes `mine` (equal sizes) and receives
  /// the rank-ordered concatenation (gather to rank 0, then bcast).
  template <typename T>
  std::vector<T> allgather(std::span<const T> mine,
                           const Deadline& dl = Deadline::never()) {
    static_assert(std::is_trivially_copyable_v<T>);
    BGQHF_SPAN("collective", "allgather");
    util::Timer t;
    std::vector<T> all = gather_core(mine, 0, dl);
    bcast_tree(all, 0, dl);
    stats().add_op(CollOp::kAllgather, all.size() * sizeof(T), t.seconds());
    return all;
  }

  /// Gather equal-size contributions to root; root receives them
  /// concatenated in rank order (deterministic), others get {}. A flat
  /// star, so a timeout names the first rank whose contribution is late.
  template <typename T>
  std::vector<T> gather(std::span<const T> mine, int root,
                        const Deadline& dl = Deadline::never()) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    BGQHF_SPAN("collective", "gather");
    util::Timer t;
    std::vector<T> all = gather_core(mine, root, dl);
    const std::size_t bytes =
        (rank_ == root ? all.size() : mine.size()) * sizeof(T);
    stats().add_op(CollOp::kGather, bytes, t.seconds());
    return all;
  }

  /// Scatter: root holds size()*per elements; each rank gets its slice.
  template <typename T>
  std::vector<T> scatter(const std::vector<T>& all, std::size_t per,
                         int root, const Deadline& dl = Deadline::never()) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    BGQHF_SPAN("collective", "scatter");
    util::Timer t;
    if (rank_ == root) {
      if (all.size() != per * static_cast<std::size_t>(size())) {
        throw std::length_error("simmpi: scatter size mismatch");
      }
      for (int r = 0; r < size(); ++r) {
        if (r == rank_) continue;
        std::span<const T> slice(all.data() + static_cast<std::size_t>(r) * per,
                                 per);
        send_bytes(as_bytes_copy(slice), r, kTagScatter,
                   /*collective=*/true);
      }
      std::vector<T> mine(all.begin() + static_cast<std::ptrdiff_t>(
                                            static_cast<std::size_t>(rank_) *
                                            per),
                          all.begin() + static_cast<std::ptrdiff_t>(
                                            (static_cast<std::size_t>(rank_) +
                                             1) *
                                            per));
      stats().add_op(CollOp::kScatter, all.size() * sizeof(T), t.seconds());
      return mine;
    }
    const Message m = recv_coll(root, kTagScatter, dl);
    stats().add_op(CollOp::kScatter, m.size_bytes(), t.seconds());
    return from_bytes<T>(m);
  }

  // ---- collective-engine internals exposed to the compression layer ----
  //
  // compress.cpp builds its collectives out of the same payload-level
  // primitives the in-header collectives use. These are NOT a user-facing
  // message API: no per-message stats, reserved (negative) tag space only.

  /// Enqueue a payload into `dest`'s mailbox (buffered; shares the backing
  /// buffer, so a blob can fan out to every child without copies).
  void coll_send_payload(Payload p, int dest, int tag) {
    if (tag >= 0) {
      throw std::invalid_argument("simmpi: collective tag must be < 0");
    }
    check_rank(dest);
    send_payload(std::move(p), dest, tag);
  }
  /// Blocking collective-internal receive.
  Message coll_recv(int source, int tag,
                    const Deadline& dl = Deadline::never()) {
    return recv_coll(source, tag, dl);
  }

 private:
  Comm(World& world, std::shared_ptr<CommGroup> group, int group_rank,
       bool checksums)
      : world_(&world),
        rank_(group_rank),
        world_rank_(group->members.at(static_cast<std::size_t>(group_rank))),
        group_(std::move(group)),
        checksums_(checksums) {}

  void check_rank(int r) const {
    if (r < 0 || r >= size()) {
      throw std::out_of_range("simmpi: rank out of range");
    }
  }

  // ---- group-rank translation ----
  //
  // Collective algorithms and user p2p calls operate purely in this
  // communicator's rank space; translation to world ranks happens at
  // exactly these boundaries (send destination, expected receive source,
  // message source stamp, barrier, stats, fault schedule).

  /// True on the world communicator, whose ranks are world ranks.
  bool identity() const noexcept { return group_->context == 0; }
  /// This communicator's rank -> world rank.
  int global(int r) const {
    return identity() ? r : group_->members[static_cast<std::size_t>(r)];
  }
  /// World rank -> this communicator's rank. Only ever called on sources
  /// that were translated through global(), so the member search cannot
  /// miss.
  int to_group(int world_rank) const {
    if (identity()) return world_rank;
    for (std::size_t i = 0; i < group_->members.size(); ++i) {
      if (group_->members[i] == world_rank) return static_cast<int>(i);
    }
    throw std::logic_error("simmpi: message source outside split group");
  }
  /// Expected-source translation for receives. Wildcard sources cannot be
  /// translated on a split communicator: a wildcard receive could not name
  /// the rank its status reports.
  int translate_source(int source) const {
    if (identity()) return source;
    if (source == kAnySource) {
      throw std::invalid_argument(
          "simmpi: kAnySource is not supported on split communicators");
    }
    return global(source);
  }

  template <typename T>
  static std::vector<std::byte> as_bytes_copy(std::span<const T> data) {
    std::vector<std::byte> bytes(data.size_bytes());
    if (!bytes.empty()) {
      std::memcpy(bytes.data(), data.data(), bytes.size());
    }
    return bytes;
  }

  template <typename T>
  static std::vector<T> from_bytes(const Message& m) {
    const std::size_t nbytes = m.size_bytes();
    if (nbytes % sizeof(T) != 0) {
      throw std::length_error("simmpi: payload not a multiple of sizeof(T)");
    }
    std::vector<T> out(nbytes / sizeof(T));
    if (nbytes > 0) std::memcpy(out.data(), m.payload.data(), nbytes);
    return out;
  }

  void send_bytes(std::vector<std::byte> bytes, int dest, int tag,
                  bool collective);
  /// Enqueue a payload (no per-message stats; collective internals).
  void send_payload(Payload p, int dest, int tag);
  /// The one receive funnel: waits on this communicator's context until a
  /// match arrives, `dl` passes (TimeoutError) or the communicator is
  /// revoked (Revoked); checks any CRC (CorruptMessage). `p2p` charges the
  /// per-message stats.
  Message receive(int source, int tag, const Deadline& dl, bool p2p);
  Message recv_coll(int source, int tag, const Deadline& dl) {
    return receive(source, tag, dl, /*p2p=*/false);
  }
  /// Attach the CRC once, before a payload fans out (checksums on only).
  void seal(Payload& p) const;
  /// Throw CorruptMessage if `m` carries a CRC its bytes do not match.
  void verify(const Message& m) const;
  /// Throw Revoked if this communicator has been revoked.
  void check_live() const;
  /// Route one message through the fault injector (if armed) into the
  /// destination mailbox. All delivery paths funnel through here.
  void deliver(Message m, int dest);
  /// Count one op against this rank's fault schedule (kill injection).
  /// Always the world rank: a kill targets a physical rank, whichever
  /// communicator it happens to be talking through.
  void fault_op() {
    if (FaultInjector* f = world_->faults()) f->on_op(world_rank_);
  }

  // ---- collective engine ----

  template <typename T>
  void bcast_tree(std::vector<T>& data, int root, const Deadline& dl) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    if (size() == 1) return;
    const TreeShape shape = binomial_shape(rank_, root, size());
    if (rank_ == root) {
      Payload p(as_bytes_copy(std::span<const T>(data)));
      seal(p);  // once, before the payload fans out
      for (const int child : shape.children) send_payload(p, child, kTagBcast);
      return;
    }
    const Message m = recv_coll(shape.parent, kTagBcast, dl);
    if (m.size_bytes() % sizeof(T) != 0) {
      throw std::length_error("simmpi: payload not a multiple of sizeof(T)");
    }
    // Forward first, so the subtree is not kept waiting on this copy.
    for (const int child : shape.children) {
      send_payload(m.payload, child, kTagBcast);
    }
    data.resize(m.size_bytes() / sizeof(T));
    if (!data.empty()) {
      std::memcpy(data.data(), m.payload.data(), m.size_bytes());
    }
  }

  /// Binomial-tree reduce in which the partial *moves* into the outgoing
  /// payload (no serialization copy) and receivers combine straight out of
  /// the incoming payload with the dispatched SIMD kernels. Returns the
  /// total on the root, nullopt elsewhere (the caller decides whether to
  /// zero-fill; allreduce overwrites instead).
  template <typename T>
  std::optional<std::vector<T>> tree_reduce_consume(std::vector<T> mine,
                                                    int root,
                                                    const Deadline& dl) {
    const int n = size();
    const int rel = (rank_ - root + n) % n;
    const std::size_t count = mine.size();
    for (int stride = 1; stride < n; stride <<= 1) {
      if (rel % (2 * stride) == stride) {
        const int dest = (rel - stride + root) % n;
        send_payload(Payload::adopt(std::move(mine)), dest, kTagReduce);
        return std::nullopt;
      }
      if (rel % (2 * stride) == 0 && rel + stride < n) {
        const int src = (rel + stride + root) % n;
        const Message m = recv_coll(src, kTagReduce, dl);
        if (m.size_bytes() != count * sizeof(T)) {
          throw std::length_error("simmpi: reduce size mismatch");
        }
        if (count > 0) {
          SumOp::combine(mine.data(), m.payload.template as<T>(), count);
        }
      }
    }
    return mine;
  }

  /// Star gather used by gather() and allgather().
  template <typename T>
  std::vector<T> gather_core(std::span<const T> mine, int root,
                             const Deadline& dl) {
    if (rank_ == root) {
      std::vector<T> all(mine.size() * static_cast<std::size_t>(size()));
      std::copy(mine.begin(), mine.end(),
                all.begin() + static_cast<std::ptrdiff_t>(rank_ * mine.size()));
      for (int r = 0; r < size(); ++r) {
        if (r == rank_) continue;
        const Message m = recv_coll(r, kTagGather, dl);
        if (m.size_bytes() != mine.size() * sizeof(T)) {
          throw std::length_error("simmpi: gather size mismatch");
        }
        if (m.size_bytes() > 0) {
          std::memcpy(all.data() + static_cast<std::size_t>(r) * mine.size(),
                      m.payload.data(), m.size_bytes());
        }
      }
      return all;
    }
    send_bytes(as_bytes_copy(mine), root, kTagGather, /*collective=*/true);
    return {};
  }

  World* world_;
  int rank_;        // rank within this communicator (== world when unsplit)
  int world_rank_;  // identity in the World (mailbox slot, stats, faults)
  std::shared_ptr<CommGroup> group_;
  bool checksums_ = false;
};

/// Spawn `size` rank threads, each running fn(comm). A rank whose body
/// throws revokes every communicator it belongs to, so peers blocked on it
/// (timed or not) wake with Revoked instead of hanging; an injected kill
/// (RankKilledError) stays silent, like a crashed process. After all ranks
/// join, the failures that are not mere Revoked consequences are reported:
/// a single one is rethrown with its original type, several are
/// aggregated into one RankErrors tagged with rank ids.
void run_ranks(World& world, const std::function<void(Comm&)>& fn);

/// Convenience: build a World of `size` and run fn on every rank.
void run_world(int size, const std::function<void(Comm&)>& fn);

}  // namespace bgqhf::simmpi
