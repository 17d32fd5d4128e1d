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
  const auto schedule = [&](const std::vector<SendSchedule>& sends,
                            std::vector<std::size_t> RankState::*slot) {
    for (const auto& s : sends) {
      if (s.rank < 0 || s.rank >= world_size) {
        throw std::out_of_range("FaultInjector: scheduled rank out of range");
      }
      (ranks_[static_cast<std::size_t>(s.rank)].*slot).push_back(
          s.send_index);
    }
  };
  schedule(config_.drop_sends, &RankState::drop_at);
  schedule(config_.corrupt_sends, &RankState::corrupt_at);
  schedule(config_.delay_sends, &RankState::delay_at);
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
  const auto scheduled = [index](const std::vector<std::size_t>& at) {
    return std::find(at.begin(), at.end(), index) != at.end();
  };
  FaultAction action = FaultAction::kDeliver;
  // One draw per fault class keeps the decision sequence stable when a
  // probability is toggled off between runs.
  const double drop_draw = state.rng.next_double();
  const double corrupt_draw = state.rng.next_double();
  const double delay_draw = state.rng.next_double();
  const double offset_draw = state.rng.next_double();
  if (scheduled(state.drop_at) || drop_draw < config_.drop_probability) {
    action = FaultAction::kDrop;
    ++state.log.drops;
  } else if ((scheduled(state.corrupt_at) ||
              corrupt_draw < config_.corrupt_probability) &&
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
    const std::optional<std::uint32_t> crc = m.payload.crc();
    m.payload = Payload(std::move(corrupted));
    if (crc) m.payload.set_crc(*crc);
  } else if (scheduled(state.delay_at) ||
             delay_draw < config_.delay_probability) {
    action = FaultAction::kDelay;
    ++state.log.delays;
  }
  state.log.actions.push_back(action);
  return action;
}

}  // namespace bgqhf::simmpi
