// Communicator: the per-rank handle of the in-process MPI-subset runtime.
//
// Ranks are threads sharing a World; point-to-point operations are buffered
// (standard-mode) sends into the destination mailbox, so a send never
// deadlocks against a matching receive. Collectives route through an
// algorithm-selecting engine (collective.h): binomial-tree and
// chunked-pipelined broadcast, zero-copy tree reduce, recursive-halving
// reduce_scatter, recursive-doubling / ring allgather, and Rabenseifner
// allreduce — the catalogue the paper's Sec. IV sockets->MPI migration
// leans on. Every algorithm has a *fixed* combine order, which keeps every
// reduction bitwise deterministic at a given rank count — the property
// behind the paper's "no loss in accuracy" claim for the distributed
// implementation.
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
/// statistics, the collective tuning policy, and (optionally) a fault
/// injector consulted on every communication op.
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

  /// Sum of all ranks' stats (call after the job joins).
  CommStats total_stats() const;

  /// Arm fault injection for this job. Call before run_ranks; a config
  /// with no active faults leaves the world fault-free.
  void install_faults(const FaultConfig& config);
  FaultInjector* faults() noexcept { return faults_.get(); }

  /// Collective algorithm policy shared by every rank (set before
  /// run_ranks; all ranks must select identically for a collective to
  /// match up). Defaults honour BGQHF_COLL=naive.
  const CollectiveTuning& tuning() const noexcept { return tuning_; }
  void set_tuning(const CollectiveTuning& t) { tuning_ = t; }

 private:
  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<CommStats> stats_;
  std::unique_ptr<std::atomic<bool>[]> departed_;
  std::unique_ptr<FaultInjector> faults_;
  CollectiveTuning tuning_ = CollectiveTuning::from_env();
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
inline constexpr int kTagBcastTree = kCollectiveTagBase - 4;
inline constexpr int kTagBcastFlat = kCollectiveTagBase - 5;
inline constexpr int kTagBarrier = kCollectiveTagBase - 6;  // timeouts only
inline constexpr int kTagBcastChunk = kCollectiveTagBase - 7;
inline constexpr int kTagReduceScatter = kCollectiveTagBase - 8;
inline constexpr int kTagAllgather = kCollectiveTagBase - 9;
inline constexpr int kTagRedistribute = kCollectiveTagBase - 10;
inline constexpr int kTagPairwise = kCollectiveTagBase - 11;

/// Binomial-tree neighbourhood of `rank` for a tree rooted at `root`:
/// the parent (or -1 at the root) and the children in the order the seed
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
  const CollectiveTuning& tuning() const { return world_->tuning(); }

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

  // ---- nonblocking point-to-point ----
  //
  // "Efficiently overlapping computation and communication helps to
  // improve the performance" (Sec. V-C). Sends are buffered, so isend
  // completes immediately; irecv returns a handle that can be tested
  // without blocking and waited on when the data is finally needed.

  /// Immediate (buffered) send; returns once the message is enqueued.
  template <typename T>
  void isend(std::span<const T> data, int dest, int tag) {
    send(data, dest, tag);
  }

  /// Handle to a pending receive.
  template <typename T>
  class RecvRequest {
   public:
    /// Non-blocking completion test; once true, data() is valid.
    bool test() {
      if (done_) return true;
      auto msg = comm_->try_receive(source_, tag_);
      if (!msg.has_value()) return false;
      data_ = Comm::from_bytes<T>(*msg);
      // Charge the elapsed time since the request was posted: a poll that
      // finds data after 10 ms of overlap is 10 ms of latency the Fig. 4/5
      // MPI-time split must see, not 0.
      comm_->stats().add_p2p(msg->size_bytes(), posted_.seconds());
      done_ = true;
      return true;
    }
    /// Block until completion and return the payload.
    std::vector<T>& wait(const Deadline& dl = Deadline::never()) {
      if (!done_) {
        data_ = Comm::from_bytes<T>(
            comm_->receive(source_, tag_, dl, /*p2p=*/true));
        done_ = true;
      }
      return data_;
    }
    bool done() const { return done_; }
    std::vector<T>& data() { return data_; }

   private:
    friend class Comm;
    RecvRequest(Comm* comm, int source, int tag)
        : comm_(comm), source_(source), tag_(tag) {}
    Comm* comm_;
    int source_;
    int tag_;
    bool done_ = false;
    std::vector<T> data_;
    util::Timer posted_;  // running since irecv() posted the request
  };

  /// Post a nonblocking receive matching (source, tag).
  template <typename T>
  RecvRequest<T> irecv(int source, int tag) {
    translate_source(source);  // reject a wildcard on a split comm now
    return RecvRequest<T>(this, source, tag);
  }

  // ---- collectives (all ranks must call, same arguments shape) ----

  void barrier(const Deadline& dl = Deadline::never());

  /// Broadcast `data` (resized on non-roots). The root picks binomial or
  /// chunked-pipelined from the payload size (tuning thresholds) and
  /// announces the choice in a small header that flows down the same tree,
  /// so non-roots never need to know the size in advance. A timeout names
  /// the tree parent that went silent.
  template <typename T>
  void bcast(std::vector<T>& data, int root,
             const Deadline& dl = Deadline::never()) {
    BGQHF_SPAN("collective", "bcast");
    util::Timer t;
    bcast_impl(data, root, dl, tuning().bcast);
    stats().add_op(CollOp::kBcast, data.size() * sizeof(T), t.seconds());
  }

  /// Element-wise sum reduction to `root`. All ranks pass vectors of equal
  /// length; on root, `inout` holds the result afterwards (non-roots are
  /// zero-filled so accidental reads are loud in tests). Every algorithm
  /// uses a fixed combine order, so the result is independent of thread
  /// timing; the tree algorithms share one association, mirrored serially
  /// by PairwiseFold. If the op throws, `inout` is left unspecified (a
  /// tree reduce may already have moved it into a send).
  template <typename T>
  void reduce_sum(std::vector<T>& inout, int root,
                  const Deadline& dl = Deadline::never()) {
    reduce_op<SumOp>(inout, root, dl);
  }

  /// Element-wise max/min reductions (same deterministic trees).
  template <typename T>
  void reduce_max(std::vector<T>& inout, int root,
                  const Deadline& dl = Deadline::never()) {
    reduce_op<MaxOp>(inout, root, dl);
  }
  template <typename T>
  void reduce_min(std::vector<T>& inout, int root,
                  const Deadline& dl = Deadline::never()) {
    reduce_op<MinOp>(inout, root, dl);
  }

  /// Allreduce: every rank ends with the identical elementwise sum.
  template <typename T>
  void allreduce_sum(std::vector<T>& inout,
                     const Deadline& dl = Deadline::never()) {
    allreduce_op<SumOp>(inout, dl);
  }

  /// Reduce-scatter: element-wise sum of every rank's `contrib`, with rank
  /// i receiving segment i of the result (SegmentLayout{n, size()}).
  template <typename T>
  std::vector<T> reduce_scatter_sum(const std::vector<T>& contrib,
                                    const Deadline& dl = Deadline::never()) {
    return reduce_scatter_op<SumOp>(contrib, dl);
  }

  /// Allgather: every rank contributes `mine` (equal sizes) and receives
  /// the rank-ordered concatenation.
  template <typename T>
  std::vector<T> allgather(std::span<const T> mine,
                           const Deadline& dl = Deadline::never()) {
    return allgather_op(mine, dl);
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
    std::vector<T> all = gather_core(mine, root, dl, kTagGather);
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
  // primitives the in-header algorithms use. These are NOT a user-facing
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
  /// Non-blocking receive (RecvRequest::test); same checks.
  std::optional<Message> try_receive(int source, int tag);
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

  // ---- broadcast engine ----

  template <typename T>
  void bcast_impl(std::vector<T>& data, int root, const Deadline& dl,
                  BcastAlgo forced) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    const int n = size();
    if (n == 1) return;

    if (forced == BcastAlgo::kFlat) {
      if (rank_ == root) {
        Payload p(as_bytes_copy(std::span<const T>(data)));
        seal(p);
        for (int r = 0; r < n; ++r) {
          if (r != rank_) send_payload(p, r, kTagBcastFlat);
        }
      } else {
        const Message m = recv_coll(root, kTagBcastFlat, dl);
        data = from_bytes<T>(m);
      }
      return;
    }

    // Tree algorithms share one wire shape: a 16-byte header (total bytes,
    // chunk bytes) flows down the binomial tree, then ceil(total/chunk)
    // payload chunks follow on the same tree. Binomial is the one-chunk
    // special case; only the root needs the size to pick the algorithm.
    const TreeShape shape = binomial_shape(rank_, root, n);
    Payload whole;
    std::uint64_t hdr[2] = {0, 0};
    Payload hdr_payload;
    if (rank_ == root) {
      whole = Payload(as_bytes_copy(std::span<const T>(data)));
      BcastAlgo algo = forced;
      if (algo == BcastAlgo::kAuto) {
        algo = select_bcast(tuning(), n, whole.size());
      }
      std::size_t chunk = whole.size();
      if (algo == BcastAlgo::kPipelined) {
        chunk = tuning().bcast_chunk_bytes;
      }
      if (chunk == 0) chunk = 1;
      hdr[0] = whole.size();
      hdr[1] = chunk;
      std::vector<std::byte> hb(sizeof(hdr));
      std::memcpy(hb.data(), hdr, sizeof(hdr));
      hdr_payload = Payload(std::move(hb));
      seal(hdr_payload);
    } else {
      const Message m = recv_coll(shape.parent, kTagBcastTree, dl);
      if (m.size_bytes() != sizeof(hdr)) {
        throw std::length_error("simmpi: bcast header size mismatch");
      }
      std::memcpy(hdr, m.payload.data(), sizeof(hdr));
      hdr_payload = m.payload;
    }
    for (int child : shape.children) {
      send_payload(hdr_payload, child, kTagBcastTree);
    }

    const std::size_t total = hdr[0];
    const std::size_t chunk = hdr[1] == 0 ? 1 : hdr[1];
    if (rank_ != root) {
      if (total % sizeof(T) != 0) {
        throw std::length_error(
            "simmpi: payload not a multiple of sizeof(T)");
      }
      data.resize(total / sizeof(T));
    }
    std::byte* dest = reinterpret_cast<std::byte*>(data.data());
    for (std::size_t off = 0; off < total; off += chunk) {
      const std::size_t len = total - off < chunk ? total - off : chunk;
      Payload piece;
      if (rank_ == root) {
        piece = whole.view(off, len);
        seal(piece);
      } else {
        const Message m = recv_coll(shape.parent, kTagBcastChunk, dl);
        if (m.size_bytes() != len) {
          throw std::length_error("simmpi: bcast chunk size mismatch");
        }
        piece = m.payload;
      }
      for (int child : shape.children) {
        send_payload(piece, child, kTagBcastChunk);
      }
      if (rank_ != root && len > 0) {
        std::memcpy(dest + off, piece.data(), len);
      }
    }
  }

  // ---- reduce engine ----

  /// Seed-faithful binary-tree reduce: serialize the partial on every
  /// hop, deserialize on receive, scalar elementwise combine. Kept as the
  /// parity reference and the honest pre-PR benchmark baseline.
  template <typename Op, typename T>
  void reduce_naive(std::vector<T>& inout, int root, const Deadline& dl) {
    const int n = size();
    const int rel = (rank_ - root + n) % n;
    for (int stride = 1; stride < n; stride <<= 1) {
      if (rel % (2 * stride) == stride) {
        const int dest = (rel - stride + root) % n;
        send_bytes(as_bytes_copy(std::span<const T>(inout)), dest,
                   kTagReduce, /*collective=*/true);
        break;
      }
      if (rel % (2 * stride) == 0 && rel + stride < n) {
        const int src = (rel + stride + root) % n;
        const Message m = recv_coll(src, kTagReduce, dl);
        const std::vector<T> other = from_bytes<T>(m);
        if (other.size() != inout.size()) {
          throw std::length_error("simmpi: reduce size mismatch");
        }
        for (std::size_t i = 0; i < inout.size(); ++i) {
          Op::combine_scalar(inout[i], other[i]);
        }
      }
    }
    if (rel != 0) {
      std::fill(inout.begin(), inout.end(), T{});
    }
  }

  /// Zero-copy variant of the same tree: the partial *moves* into the
  /// outgoing payload (no serialization copy) and receivers combine
  /// straight out of the incoming payload with the dispatched SIMD
  /// kernels. Identical association to reduce_naive, so bitwise-equal
  /// results. Returns the total on the root, nullopt elsewhere (the
  /// caller decides whether to zero-fill; allreduce overwrites instead).
  template <typename Op, typename T>
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
          Op::combine(mine.data(), m.payload.template as<T>(), count);
        }
      }
    }
    return mine;
  }

  /// Non-power-of-two pre-fold shared by the halving/doubling algorithms:
  /// the first 2*rem even ranks fold their vector into their odd
  /// neighbour, leaving pof2 active participants with compacted ids.
  struct PrefoldInfo {
    bool active = true;
    int newrank = 0;
    int pof2 = 1;
    int rem = 0;
  };
  static int rab_real_rank(int newrank, int rem) {
    return newrank < rem ? 2 * newrank + 1 : newrank + rem;
  }
  template <typename Op, typename T>
  PrefoldInfo prefold_to_pof2(std::vector<T>& mine, const Deadline& dl,
                              int tag) {
    const int p = size();
    PrefoldInfo info;
    while (info.pof2 * 2 <= p) info.pof2 <<= 1;
    info.rem = p - info.pof2;
    if (rank_ < 2 * info.rem) {
      if ((rank_ & 1) == 0) {
        send_payload(Payload::adopt(std::move(mine)), rank_ + 1, tag);
        mine.clear();
        info.active = false;
        info.newrank = -1;
        return info;
      }
      const Message m = recv_coll(rank_ - 1, tag, dl);
      if (m.size_bytes() != mine.size() * sizeof(T)) {
        throw std::length_error("simmpi: reduce size mismatch");
      }
      // The lower slot is the accumulator, matching the convention used
      // everywhere else in the engine.
      std::vector<T> acc = from_bytes<T>(m);
      if (!acc.empty()) Op::combine(acc.data(), mine.data(), acc.size());
      mine = std::move(acc);
      info.newrank = rank_ / 2;
      return info;
    }
    info.newrank = rank_ - info.rem;
    return info;
  }

  /// Recursive-halving reduce-scatter over `nseg` segments among `nseg`
  /// participants with ids 0..nseg-1 (nseg a power of two; `rank_of` maps
  /// ids to real ranks). On exit this id's segment of `buf` is fully
  /// reduced; returns the owned segment index (== myid).
  template <typename Op, typename T, typename RankOf>
  int halving_scatter(std::vector<T>& buf, const SegmentLayout& layout,
                      int nseg, int myid, RankOf rank_of, const Deadline& dl,
                      int tag) {
    int lo = 0;
    int hi = nseg;
    for (int dist = nseg / 2; dist >= 1; dist >>= 1) {
      const int partner = rank_of(myid ^ dist);
      const int half = (hi - lo) / 2;
      const bool lower = (myid & dist) == 0;
      const int keep_lo = lower ? lo : lo + half;
      const int keep_hi = lower ? lo + half : hi;
      const int send_lo = lower ? lo + half : lo;
      const int send_hi = lower ? hi : lo + half;
      send_payload(
          Payload::adopt(std::vector<T>(
              buf.begin() + static_cast<std::ptrdiff_t>(layout.start(send_lo)),
              buf.begin() +
                  static_cast<std::ptrdiff_t>(layout.start(send_hi)))),
          partner, tag);
      const Message m = recv_coll(partner, tag, dl);
      const std::size_t len = layout.start(keep_hi) - layout.start(keep_lo);
      if (m.size_bytes() != len * sizeof(T)) {
        throw std::length_error("simmpi: reduce_scatter size mismatch");
      }
      if (len > 0) {
        Op::combine(buf.data() + layout.start(keep_lo),
                    m.payload.template as<T>(), len);
      }
      lo = keep_lo;
      hi = keep_hi;
    }
    return lo;
  }

  /// Recursive-doubling allgather over the same segment space: block
  /// exchanges double the owned range each round until every participant
  /// holds all `nseg` segments of `buf`.
  template <typename T, typename RankOf>
  void doubling_allgather(std::vector<T>& buf, const SegmentLayout& layout,
                          int nseg, int myid, RankOf rank_of,
                          const Deadline& dl, int tag) {
    for (int dist = 1; dist < nseg; dist <<= 1) {
      const int partner = rank_of(myid ^ dist);
      const int my_start = myid & ~(dist - 1);
      const int p_start = my_start ^ dist;
      send_payload(
          Payload::adopt(std::vector<T>(
              buf.begin() + static_cast<std::ptrdiff_t>(layout.start(my_start)),
              buf.begin() + static_cast<std::ptrdiff_t>(
                                layout.start(my_start + dist)))),
          partner, tag);
      const Message m = recv_coll(partner, tag, dl);
      const std::size_t off = layout.start(p_start);
      const std::size_t len = layout.start(p_start + dist) - off;
      if (m.size_bytes() != len * sizeof(T)) {
        throw std::length_error("simmpi: allgather size mismatch");
      }
      if (len > 0) {
        std::memcpy(buf.data() + off, m.payload.data(), len * sizeof(T));
      }
    }
  }

  /// Rabenseifner reduce-to-root: pre-fold to a power of two, recursive
  /// halving so each active participant owns one fully-reduced segment,
  /// then gather the segments to the root.
  template <typename Op, typename T>
  void reduce_rabenseifner(std::vector<T>& inout, int root,
                           const Deadline& dl) {
    const std::size_t count = inout.size();
    std::vector<T> buf = std::move(inout);
    const PrefoldInfo info =
        prefold_to_pof2<Op>(buf, dl, kTagReduceScatter);
    const SegmentLayout layout{count, info.pof2};
    const int rem = info.rem;
    int seg = -1;
    if (info.active) {
      seg = halving_scatter<Op>(buf, layout, info.pof2, info.newrank,
                                [rem](int id) { return rab_real_rank(id, rem); },
                                dl, kTagReduceScatter);
    }
    if (rank_ == root) {
      inout.assign(count, T{});
      for (int s = 0; s < info.pof2; ++s) {
        const int owner = rab_real_rank(s, rem);
        const std::size_t off = layout.start(s);
        const std::size_t len = layout.start(s + 1) - off;
        if (owner == rank_) {
          if (len > 0) {
            std::memcpy(inout.data() + off, buf.data() + off,
                        len * sizeof(T));
          }
          continue;
        }
        const Message m = recv_coll(owner, kTagRedistribute, dl);
        if (m.size_bytes() != len * sizeof(T)) {
          throw std::length_error("simmpi: reduce segment size mismatch");
        }
        if (len > 0) {
          std::memcpy(inout.data() + off, m.payload.data(), len * sizeof(T));
        }
      }
    } else {
      if (info.active && seg >= 0) {
        send_payload(Payload::adopt(std::vector<T>(
                         buf.begin() + static_cast<std::ptrdiff_t>(
                                           layout.start(seg)),
                         buf.begin() + static_cast<std::ptrdiff_t>(
                                           layout.start(seg + 1)))),
                     root, kTagRedistribute);
      }
      inout.assign(count, T{});
    }
  }

  /// Rabenseifner allreduce: pre-fold, halving reduce-scatter, doubling
  /// allgather among the active participants, then hand the full result
  /// back to the folded-away even ranks.
  template <typename Op, typename T>
  void allreduce_rabenseifner(std::vector<T>& inout, const Deadline& dl) {
    const std::size_t count = inout.size();
    const PrefoldInfo info =
        prefold_to_pof2<Op>(inout, dl, kTagReduceScatter);
    const SegmentLayout layout{count, info.pof2};
    const int rem = info.rem;
    if (info.active) {
      const auto rank_of = [rem](int id) { return rab_real_rank(id, rem); };
      halving_scatter<Op>(inout, layout, info.pof2, info.newrank, rank_of,
                          dl, kTagReduceScatter);
      doubling_allgather(inout, layout, info.pof2, info.newrank, rank_of,
                         dl, kTagAllgather);
    }
    if (rank_ < 2 * info.rem) {
      if ((rank_ & 1) != 0) {
        send_payload(Payload(as_bytes_copy(std::span<const T>(inout))),
                     rank_ - 1, kTagRedistribute);
      } else {
        const Message m = recv_coll(rank_ + 1, kTagRedistribute, dl);
        inout = from_bytes<T>(m);
        if (inout.size() != count) {
          throw std::length_error("simmpi: allreduce size mismatch");
        }
      }
    }
  }

  /// Recursive-doubling allreduce: pre-fold to a power of two, then log P
  /// full-vector exchange rounds. Both partners combine with the same
  /// pairing, so (IEEE addition being bitwise commutative) every rank
  /// finishes with identical bits.
  template <typename Op, typename T>
  void allreduce_doubling(std::vector<T>& inout, const Deadline& dl) {
    const std::size_t count = inout.size();
    const PrefoldInfo info =
        prefold_to_pof2<Op>(inout, dl, kTagReduceScatter);
    if (info.active) {
      const int rem = info.rem;
      for (int dist = 1; dist < info.pof2; dist <<= 1) {
        const int partner = rab_real_rank(info.newrank ^ dist, rem);
        send_payload(Payload(as_bytes_copy(std::span<const T>(inout))),
                     partner, kTagAllgather);
        const Message m = recv_coll(partner, kTagAllgather, dl);
        if (m.size_bytes() != count * sizeof(T)) {
          throw std::length_error("simmpi: allreduce size mismatch");
        }
        if (count > 0) {
          Op::combine(inout.data(), m.payload.template as<T>(), count);
        }
      }
    }
    if (rank_ < 2 * info.rem) {
      if ((rank_ & 1) != 0) {
        send_payload(Payload(as_bytes_copy(std::span<const T>(inout))),
                     rank_ - 1, kTagRedistribute);
      } else {
        const Message m = recv_coll(rank_ + 1, kTagRedistribute, dl);
        inout = from_bytes<T>(m);
      }
    }
  }

  template <typename Op, typename T>
  void reduce_op(std::vector<T>& inout, int root, const Deadline& dl) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    BGQHF_SPAN("collective", "reduce");
    util::Timer t;
    const std::size_t bytes = inout.size() * sizeof(T);
    if (size() > 1) {
      switch (select_reduce(tuning(), size(), bytes)) {
        case ReduceAlgo::kNaive:
          reduce_naive<Op>(inout, root, dl);
          break;
        case ReduceAlgo::kRabenseifner:
          reduce_rabenseifner<Op>(inout, root, dl);
          break;
        case ReduceAlgo::kTree:
        case ReduceAlgo::kAuto: {
          const std::size_t count = inout.size();
          auto total = tree_reduce_consume<Op>(std::move(inout), root, dl);
          if (total.has_value()) {
            inout = std::move(*total);
          } else {
            inout.assign(count, T{});
          }
          break;
        }
      }
    }
    stats().add_op(CollOp::kReduce, bytes, t.seconds());
  }

  template <typename Op, typename T>
  void allreduce_op(std::vector<T>& inout, const Deadline& dl) {
    static_assert(std::is_trivially_copyable_v<T>);
    BGQHF_SPAN("collective", "allreduce");
    util::Timer t;
    const std::size_t bytes = inout.size() * sizeof(T);
    if (size() > 1) {
      switch (select_allreduce(tuning(), size(), bytes)) {
        case AllreduceAlgo::kNaive:
          reduce_naive<Op>(inout, 0, dl);
          bcast_impl(inout, 0, dl, BcastAlgo::kBinomial);
          break;
        case AllreduceAlgo::kRecursiveDoubling:
          allreduce_doubling<Op>(inout, dl);
          break;
        case AllreduceAlgo::kRabenseifner:
          allreduce_rabenseifner<Op>(inout, dl);
          break;
        case AllreduceAlgo::kTreeBcast:
        case AllreduceAlgo::kAuto: {
          auto total = tree_reduce_consume<Op>(std::move(inout), 0, dl);
          if (total.has_value()) inout = std::move(*total);
          // Non-roots arrive empty and are resized by the broadcast; the
          // zero-fill a plain reduce performs would be dead stores here.
          bcast_impl(inout, 0, dl, BcastAlgo::kBinomial);
          break;
        }
      }
    }
    stats().add_op(CollOp::kAllreduce, bytes, t.seconds());
  }

  template <typename Op, typename T>
  std::vector<T> reduce_scatter_op(const std::vector<T>& contrib,
                                   const Deadline& dl) {
    static_assert(std::is_trivially_copyable_v<T>);
    BGQHF_SPAN("collective", "reduce_scatter");
    util::Timer t;
    const int p = size();
    const SegmentLayout layout{contrib.size(), p};
    std::vector<T> mine;
    if (p == 1) {
      mine = contrib;
    } else {
      const ReduceScatterAlgo algo =
          select_reduce_scatter(tuning(), p, contrib.size() * sizeof(T));
      if (algo == ReduceScatterAlgo::kHalving && !is_pow2(p)) {
        throw std::invalid_argument(
            "simmpi: halving reduce_scatter needs power-of-two ranks");
      }
      switch (algo) {
        case ReduceScatterAlgo::kNaive: {
          std::vector<T> tmp = contrib;
          reduce_naive<Op>(tmp, 0, dl);
          mine = scatter_segments(tmp, layout, dl);
          break;
        }
        case ReduceScatterAlgo::kHalving: {
          std::vector<T> buf = contrib;
          const int seg = halving_scatter<Op>(buf, layout, p, rank_,
                                              [](int id) { return id; }, dl,
                                              kTagReduceScatter);
          mine.assign(buf.begin() + static_cast<std::ptrdiff_t>(
                                        layout.start(seg)),
                      buf.begin() + static_cast<std::ptrdiff_t>(
                                        layout.start(seg + 1)));
          break;
        }
        case ReduceScatterAlgo::kPairwise:
        case ReduceScatterAlgo::kAuto: {
          // Pairwise exchange: in round k send the segment owned by
          // (rank+k) from my contribution and fold in the contribution
          // from (rank-k). Works for any rank count; the combine order
          // for my segment is the fixed sequence rank-1, rank-2, ...
          mine.assign(contrib.begin() + static_cast<std::ptrdiff_t>(
                                            layout.start(rank_)),
                      contrib.begin() + static_cast<std::ptrdiff_t>(
                                            layout.start(rank_ + 1)));
          for (int k = 1; k < p; ++k) {
            const int dst = (rank_ + k) % p;
            const int src = (rank_ - k + p) % p;
            send_payload(
                Payload::adopt(std::vector<T>(
                    contrib.begin() + static_cast<std::ptrdiff_t>(
                                          layout.start(dst)),
                    contrib.begin() + static_cast<std::ptrdiff_t>(
                                          layout.start(dst + 1)))),
                dst, kTagPairwise);
            const Message m = recv_coll(src, kTagPairwise, dl);
            if (m.size_bytes() != mine.size() * sizeof(T)) {
              throw std::length_error(
                  "simmpi: reduce_scatter size mismatch");
            }
            if (!mine.empty()) {
              Op::combine(mine.data(), m.payload.template as<T>(),
                          mine.size());
            }
          }
          break;
        }
      }
    }
    stats().add_op(CollOp::kReduceScatter, contrib.size() * sizeof(T),
                   t.seconds());
    return mine;
  }

  /// Root distributes the (possibly unequal) segments of `reduced`; every
  /// rank returns its own segment. Companion of the naive reduce_scatter.
  template <typename T>
  std::vector<T> scatter_segments(const std::vector<T>& reduced,
                                  const SegmentLayout& layout,
                                  const Deadline& dl) {
    if (rank_ == 0) {
      for (int r = 1; r < size(); ++r) {
        send_payload(
            Payload::adopt(std::vector<T>(
                reduced.begin() + static_cast<std::ptrdiff_t>(
                                      layout.start(r)),
                reduced.begin() + static_cast<std::ptrdiff_t>(
                                      layout.start(r + 1)))),
            r, kTagRedistribute);
      }
      return std::vector<T>(reduced.begin(),
                            reduced.begin() + static_cast<std::ptrdiff_t>(
                                                  layout.start(1)));
    }
    const Message m = recv_coll(0, kTagRedistribute, dl);
    return from_bytes<T>(m);
  }

  template <typename T>
  std::vector<T> allgather_op(std::span<const T> mine,
                              const Deadline& dl) {
    static_assert(std::is_trivially_copyable_v<T>);
    BGQHF_SPAN("collective", "allgather");
    util::Timer t;
    const int p = size();
    const std::size_t m = mine.size();
    std::vector<T> all;
    if (p == 1) {
      all.assign(mine.begin(), mine.end());
    } else {
      const AllgatherAlgo algo = select_allgather(tuning(), p, m * sizeof(T));
      if (algo == AllgatherAlgo::kRecursiveDoubling && !is_pow2(p)) {
        throw std::invalid_argument(
            "simmpi: recursive-doubling allgather needs power-of-two ranks");
      }
      switch (algo) {
        case AllgatherAlgo::kNaive:
          all = gather_core(mine, 0, dl, kTagGather);
          bcast_impl(all, 0, dl, BcastAlgo::kBinomial);
          break;
        case AllgatherAlgo::kRecursiveDoubling: {
          const SegmentLayout layout{m * static_cast<std::size_t>(p), p};
          all.assign(m * static_cast<std::size_t>(p), T{});
          std::copy(mine.begin(), mine.end(),
                    all.begin() + static_cast<std::ptrdiff_t>(
                                      layout.start(rank_)));
          doubling_allgather(all, layout, p, rank_,
                             [](int id) { return id; }, dl, kTagAllgather);
          break;
        }
        case AllgatherAlgo::kRing:
        case AllgatherAlgo::kAuto: {
          // Ring: P-1 neighbour shifts. The received payload is relayed
          // onward untouched, so each block is serialized exactly once.
          all.assign(m * static_cast<std::size_t>(p), T{});
          std::copy(mine.begin(), mine.end(),
                    all.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(rank_) * m));
          const int next = (rank_ + 1) % p;
          const int prev = (rank_ - 1 + p) % p;
          Payload relay =
              Payload::adopt(std::vector<T>(mine.begin(), mine.end()));
          for (int k = 0; k < p - 1; ++k) {
            send_payload(relay, next, kTagAllgather);
            const Message msg = recv_coll(prev, kTagAllgather, dl);
            if (msg.size_bytes() != m * sizeof(T)) {
              throw std::length_error("simmpi: allgather size mismatch");
            }
            const int block = (rank_ - 1 - k + 2 * p) % p;
            if (m > 0) {
              std::memcpy(all.data() + static_cast<std::size_t>(block) * m,
                          msg.payload.data(), m * sizeof(T));
            }
            relay = msg.payload;
          }
          break;
        }
      }
    }
    stats().add_op(CollOp::kAllgather, all.size() * sizeof(T), t.seconds());
    return all;
  }

  /// Star gather used by gather() and the naive allgather.
  template <typename T>
  std::vector<T> gather_core(std::span<const T> mine, int root,
                             const Deadline& dl, int tag) {
    if (rank_ == root) {
      std::vector<T> all(mine.size() * static_cast<std::size_t>(size()));
      std::copy(mine.begin(), mine.end(),
                all.begin() + static_cast<std::ptrdiff_t>(rank_ * mine.size()));
      for (int r = 0; r < size(); ++r) {
        if (r == rank_) continue;
        const Message m = recv_coll(r, tag, dl);
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
    send_bytes(as_bytes_copy(mine), root, tag, /*collective=*/true);
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
