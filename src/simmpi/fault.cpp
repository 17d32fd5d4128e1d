#include "simmpi/fault.h"

#include <algorithm>
#include <stdexcept>

#include "simmpi/message.h"

namespace bgqhf::simmpi {

FaultInjector::FaultInjector(FaultConfig config, int world_size)
    : config_(std::move(config)) {
  if (world_size <= 0) {
    throw std::invalid_argument("FaultInjector: world size must be > 0");
  }
  ranks_.resize(static_cast<std::size_t>(world_size));
  util::Rng root(config_.seed);
  for (int r = 0; r < world_size; ++r) {
    ranks_[static_cast<std::size_t>(r)].rng =
        root.fork(static_cast<std::uint64_t>(r));
  }
  for (const auto& kill : config_.kills) {
    if (kill.rank < 0 || kill.rank >= world_size) {
      throw std::out_of_range("FaultInjector: kill rank out of range");
    }
    auto& state = ranks_[static_cast<std::size_t>(kill.rank)];
    state.kill_scheduled = true;
    state.kill_after = kill.after_ops;
  }
  for (const auto& flip : config_.corrupt_sends) {
    if (flip.rank < 0 || flip.rank >= world_size) {
      throw std::out_of_range("FaultInjector: corrupt rank out of range");
    }
    ranks_[static_cast<std::size_t>(flip.rank)].corrupt_at.push_back(
        flip.send_index);
  }
}

void FaultInjector::on_op(int rank) {
  auto& state = ranks_.at(static_cast<std::size_t>(rank));
  if (state.killed) throw RankKilledError(rank);
  ++state.ops;
  if (state.kill_scheduled && state.ops > state.kill_after) {
    state.killed = true;
    throw RankKilledError(rank);
  }
}

FaultAction FaultInjector::on_send(int source, Message& m) {
  auto& state = ranks_.at(static_cast<std::size_t>(source));
  const std::size_t index = state.log.sends++;
  const bool scheduled_flip =
      std::find(state.corrupt_at.begin(), state.corrupt_at.end(), index) !=
      state.corrupt_at.end();
  FaultAction action = FaultAction::kDeliver;
  // One draw per fault class keeps the decision sequence stable when a
  // probability is toggled off between runs.
  const double drop_draw = state.rng.next_double();
  const double corrupt_draw = state.rng.next_double();
  const double delay_draw = state.rng.next_double();
  const double offset_draw = state.rng.next_double();
  if (drop_draw < config_.drop_probability) {
    action = FaultAction::kDrop;
    ++state.log.drops;
  } else if ((scheduled_flip || corrupt_draw < config_.corrupt_probability) &&
             m.size_bytes() > 0) {
    action = FaultAction::kCorrupt;
    ++state.log.corruptions;
    // Flip one bit at a seeded offset in a private copy: payloads are
    // shared between mailboxes (bcast fan-out and tree-reduce views), so
    // mutating in place would corrupt every recipient instead of this
    // delivery.
    std::vector<std::byte> corrupted(m.payload.data(),
                                     m.payload.data() + m.size_bytes());
    const std::size_t bit =
        static_cast<std::size_t>(offset_draw *
                                 static_cast<double>(m.size_bytes() * 8));
    corrupted[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    m.payload = Payload(std::move(corrupted));
  } else if (delay_draw < config_.delay_probability) {
    action = FaultAction::kDelay;
    ++state.log.delays;
  }
  state.log.actions.push_back(action);
  return action;
}

}  // namespace bgqhf::simmpi
