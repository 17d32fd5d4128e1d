#include "simmpi/communicator.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/span.h"
#include "util/checksum.h"

namespace bgqhf::simmpi {

World::World(int size)
    : size_(size),
      stats_(size > 0 ? static_cast<std::size_t>(size) : 0),
      departed_(size > 0 ? new std::atomic<bool>[static_cast<std::size_t>(
                               size)]()
                         : nullptr),
      failed_(size > 0 ? new std::atomic<bool>[static_cast<std::size_t>(
                             size)]()
                       : nullptr) {
  if (size <= 0) throw std::invalid_argument("simmpi: world size must be > 0");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  std::vector<int> all(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    all[static_cast<std::size_t>(r)] = r;
  }
  world_group_ = std::make_shared<CommGroup>(std::move(all), /*ctx=*/0);
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
  if (slot == nullptr || slot->revoked) {
    slot = std::make_shared<CommGroup>(members, next_context_++);
  }
  return slot;
}

void World::revoke(CommGroup& g, int revoker, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.revoked) return;
    g.revoker = revoker;
    g.reason = reason;
    // Set before any mailbox is woken: waiters re-read it under their
    // mailbox lock, which the wakeup below takes after this store.
    g.revoked = true;
  }
  for (const int m : g.members) mailbox(m).revoke(g.context);
  g.barrier.wake();
}

void World::fail(int world_rank, const std::string& reason) {
  failed_[world_rank] = true;  // before any revoke: see Comm::split
  std::vector<std::shared_ptr<CommGroup>> hit{world_group_};
  {
    std::lock_guard<std::mutex> lock(group_mu_);
    for (const auto& [members, g] : groups_) {
      if (std::find(members.begin(), members.end(), world_rank) !=
          members.end()) {
        hit.push_back(g);
      }
    }
  }
  for (const auto& g : hit) revoke(*g, world_rank, reason);
  depart(world_rank);
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

void Comm::check_live() const {
  if (!group_->revoked) return;
  std::lock_guard<std::mutex> lock(group_->mu);
  throw Revoked(rank_, group_->revoker, group_->reason);
}

void Comm::seal(Payload& p) const {
  if (checksums_ && !p.crc()) p.set_crc(util::crc32(p.data(), p.size()));
}

void Comm::verify(const Message& m) const {
  const std::optional<std::uint32_t> crc = m.payload.crc();
  if (crc && *crc != util::crc32(m.payload.data(), m.payload.size())) {
    throw CorruptMessage(rank_, to_group(m.source), m.tag);
  }
}

void Comm::send_payload(Payload p, int dest, int tag) {
  check_live();
  fault_op();
  seal(p);
  Message m;
  // World-space stamp: receivers on any communicator over this World can
  // tell who really sent the message, and split-comm receives translate
  // their expected source the same way (translate_source).
  m.source = world_rank_;
  m.tag = tag;
  m.context = group_->context;
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

Message Comm::receive(int source, int tag, const Deadline& dl, bool p2p) {
  check_live();
  fault_op();
  util::Timer t;
  std::optional<Message> m = world_->mailbox(world_rank_).pop(
      translate_source(source), tag, group_->context, dl.at(),
      group_->revoked);
  if (!m.has_value()) {
    check_live();
    // The error carries this communicator's rank space — that is what FT
    // callers compare against their worker ids.
    throw TimeoutError(rank_, source, tag);
  }
  verify(*m);
  if (p2p) stats().add_p2p(m->size_bytes(), t.seconds());
  return std::move(*m);
}

void Comm::barrier(const Deadline& dl) {
  BGQHF_SPAN("collective", "barrier");
  check_live();
  util::Timer t;
  if (!group_->barrier.arrive_and_wait(dl.at(), group_->revoked)) {
    check_live();
    throw TimeoutError(rank_, kAnySource, kTagBarrier);
  }
  stats().add_op(CollOp::kBarrier, 0, t.seconds());
}

void Comm::revoke(const std::string& reason) {
  world_->revoke(*group_, world_rank_, reason);
}

Comm Comm::shrink(const Deadline& dl) {
  BGQHF_SPAN("collective", "shrink");
  revoke();
  CommGroup& g = *group_;
  std::unique_lock<std::mutex> lock(g.mu);
  if (g.successor == nullptr) {
    g.arrived.push_back(world_rank_);
    g.cv.notify_all();
    const auto accounted = [&] {
      return std::all_of(g.members.begin(), g.members.end(), [&](int m) {
        return world_->departed(m) ||
               std::find(g.arrived.begin(), g.arrived.end(), m) !=
                   g.arrived.end();
      });
    };
    // Departures are not signalled on g.cv, so poll them.
    constexpr auto kPoll = std::chrono::milliseconds(2);
    while (g.successor == nullptr && !accounted() &&
           Deadline::Clock::now() < dl.at()) {
      g.cv.wait_until(lock, std::min(dl.at(), Deadline::Clock::now() + kPoll));
    }
    if (g.successor == nullptr) {
      // This rank decides for everyone: the arrivals, in old rank order.
      std::vector<int> survivors;
      for (const int m : g.members) {
        if (std::find(g.arrived.begin(), g.arrived.end(), m) !=
            g.arrived.end()) {
          survivors.push_back(m);
        }
      }
      g.successor = world_->intern_group(survivors);
      g.cv.notify_all();
    }
  }
  const std::vector<int>& next = g.successor->members;
  const auto me = std::find(next.begin(), next.end(), world_rank_);
  if (me == next.end()) {
    throw Revoked(rank_, g.revoker, "excluded from the shrink");
  }
  return Comm(*world_, g.successor, static_cast<int>(me - next.begin()),
              checksums_);
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
  std::shared_ptr<CommGroup> group = world_->intern_group(members);
  // A member that finished the split first and then failed has revoked the
  // group it interned, so a later member interns a fresh group that nobody
  // would ever revoke; revoke it here, or its ops wait on the dead member.
  for (const int m : members) {
    if (world_->failed(m)) {
      world_->revoke(*group, m, "member failed after the split");
      break;
    }
  }
  return Comm(*world_, std::move(group), my_group_rank, checksums_);
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
      } catch (const RankKilledError&) {
        // A killed rank dies silently; survivors find out by deadline.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        world.fail(r, e.what());
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        world.fail(r, "(non-std exception)");
      }
      world.depart(r);
    });
  }
  for (auto& t : threads) t.join();

  // A Revoked failure is the echo of another rank's failure; report the
  // originals when there are any.
  const auto is_revoked = [](const std::exception_ptr& err) {
    try {
      std::rethrow_exception(err);
    } catch (const Revoked&) {
      return true;
    } catch (...) {
      return false;
    }
  };
  const bool any_original =
      std::any_of(errors.begin(), errors.end(), [&](const auto& err) {
        return err != nullptr && !is_revoked(err);
      });
  std::vector<RankErrors::Failure> failures;
  std::exception_ptr sole;
  for (int r = 0; r < n; ++r) {
    const auto& err = errors[static_cast<std::size_t>(r)];
    if (err == nullptr || (any_original && is_revoked(err))) continue;
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
