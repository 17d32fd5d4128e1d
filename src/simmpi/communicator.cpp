#include "simmpi/communicator.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/span.h"

namespace bgqhf::simmpi {

World::World(int size)
    : size_(size), barrier_(static_cast<std::size_t>(size)), stats_(size) {
  if (size <= 0) throw std::invalid_argument("simmpi: world size must be > 0");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

CommStats World::total_stats() const {
  CommStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

void World::install_faults(const FaultConfig& config) {
  faults_ = config.any_active()
                ? std::make_unique<FaultInjector>(config, size_)
                : nullptr;
}

std::shared_ptr<CommGroup> World::intern_group(
    const std::vector<int>& members) {
  std::lock_guard<std::mutex> lock(group_mu_);
  auto& slot = groups_[members];
  if (slot == nullptr) slot = std::make_shared<CommGroup>(members);
  return slot;
}

void Comm::deliver(Message m, int dest) {
  FaultInjector* f = world_->faults();
  if (f != nullptr) {
    switch (f->on_send(world_rank_, m)) {
      case FaultAction::kDrop:
        return;  // lost in transit; only a deadline on the receiver sees it
      case FaultAction::kDelay:
        // Straggling sender: stall this rank's thread, preserving the
        // per-(source, tag) delivery order the mailbox guarantees.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(f->delay_seconds()));
        break;
      case FaultAction::kCorrupt:
      case FaultAction::kDeliver:
        break;
    }
  }
  world_->mailbox(dest).push(std::move(m));
}

void Comm::send_payload(Payload p, int dest, int tag) {
  fault_op();
  Message m;
  // World-space stamp: receivers on any communicator over this World can
  // tell who really sent the message, and split-comm receives translate
  // their expected source the same way (translate_source).
  m.source = world_rank_;
  m.tag = tag;
  m.payload = std::move(p);
  deliver(std::move(m), global(dest));
}

void Comm::send_bytes(std::vector<std::byte> bytes, int dest, int tag,
                      bool collective) {
  util::Timer t;
  const std::size_t n = bytes.size();
  send_payload(Payload(std::move(bytes)), dest, tag);
  if (!collective) stats().add_p2p(n, t.seconds());
}

void Comm::send_shared(const Payload& p, int dest, int tag) {
  check_rank(dest);
  if (tag < 0) throw std::invalid_argument("simmpi: user tag must be >= 0");
  util::Timer t;
  send_payload(p, dest, tag);
  stats().add_p2p(p.size(), t.seconds());
}

Payload Comm::recv_payload_for(int source, int tag, double timeout_seconds) {
  return recv_message_for(source, tag, timeout_seconds, /*collective=*/false)
      .payload;
}

Message Comm::recv_message(int source, int tag, bool collective) {
  fault_op();
  util::Timer t;
  Message m = world_->mailbox(world_rank_).pop(translate_source(source), tag);
  if (!collective) stats().add_p2p(m.size_bytes(), t.seconds());
  return m;
}

Message Comm::recv_message_for(int source, int tag, double timeout_seconds,
                               bool collective) {
  fault_op();
  util::Timer t;
  std::optional<Message> m = world_->mailbox(world_rank_).pop_for(
      translate_source(source), tag,
      std::chrono::duration<double>(timeout_seconds));
  // The error carries this communicator's rank space — that is what FT
  // callers compare against their worker ids.
  if (!m.has_value()) throw TimeoutError(rank_, source, tag);
  if (!collective) stats().add_p2p(m->size_bytes(), t.seconds());
  return std::move(*m);
}

Message Comm::recv_coll(int source, int tag, const Deadline& dl) {
  if (!dl.finite()) return recv_message(source, tag, /*collective=*/true);
  return recv_message_for(source, tag, dl.remaining(), /*collective=*/true);
}

void Comm::barrier() {
  BGQHF_SPAN("collective", "barrier");
  util::Timer t;
  if (group_ != nullptr) {
    group_->barrier.arrive_and_wait();
  } else {
    world_->barrier().arrive_and_wait();
  }
  stats().add_op(CollOp::kBarrier, 0, t.seconds());
}

Comm Comm::split(int color, int key) {
  BGQHF_SPAN("collective", "split");
  // Allgather (color, key, rank) triples over *this* communicator, so
  // splitting a split composes; members carry world ranks.
  const std::array<int, 3> mine{color, key, rank_};
  const std::vector<int> all =
      allgather(std::span<const int>(mine.data(), mine.size()));
  std::vector<std::array<int, 3>> sel;  // (key, rank-here, world rank)
  for (std::size_t i = 0; i + 2 < all.size(); i += 3) {
    if (all[i] != color) continue;
    sel.push_back({all[i + 1], all[i + 2], global(all[i + 2])});
  }
  // Group-rank order: (key, then current rank) — ranks are unique, so the
  // order is total and every member derives the identical list.
  std::sort(sel.begin(), sel.end());
  std::vector<int> members;
  members.reserve(sel.size());
  int my_group_rank = -1;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    members.push_back(sel[i][2]);
    if (sel[i][1] == rank_) my_group_rank = static_cast<int>(i);
  }
  if (my_group_rank < 0) {
    throw std::logic_error("simmpi: split lost its own rank");
  }
  return Comm(*world_, world_->intern_group(members), my_group_rank);
}

void run_ranks(World& world, const std::function<void(Comm&)>& fn) {
  const int n = world.size();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  // One slot per rank, written only by that rank's thread: every failure
  // is kept, not just whichever rank lost the race to a shared slot.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      obs::set_thread_rank(r);  // attributes this thread's trace events
      Comm comm(world, r);
      try {
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<RankErrors::Failure> failures;
  std::exception_ptr sole;
  for (int r = 0; r < n; ++r) {
    const auto& err = errors[static_cast<std::size_t>(r)];
    if (err == nullptr) continue;
    sole = err;
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      failures.push_back({r, e.what()});
    } catch (...) {
      failures.push_back({r, "(non-std exception)"});
    }
  }
  if (failures.empty()) return;
  // A lone failure keeps its concrete type (tests and recovery code match
  // on it); multiple failures aggregate into one rank-tagged error.
  if (failures.size() == 1) std::rethrow_exception(sole);
  throw RankErrors(std::move(failures));
}

void run_world(int size, const std::function<void(Comm&)>& fn) {
  World world(size);
  run_ranks(world, fn);
}

}  // namespace bgqhf::simmpi
