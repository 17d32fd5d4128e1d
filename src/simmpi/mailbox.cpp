#include "simmpi/mailbox.h"

#include <algorithm>

namespace bgqhf::simmpi {

void Mailbox::push(Message m) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(m));
  }
  cv_.notify_all();
}

std::optional<Message> Mailbox::take(int source, int tag, int context) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, source, tag, context)) {
      Message m = std::move(*it);
      queue_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::pop(int source, int tag, int context,
                                    Clock::time_point deadline,
                                    const std::atomic<bool>& revoked) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (auto m = take(source, tag, context)) return m;
    // Checked under mu_: revoke() sets the flag before taking mu_ to
    // notify, so the wakeup cannot slip between this test and the wait.
    if (revoked.load()) return std::nullopt;
    if (deadline == Clock::time_point::max()) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One final scan: a push may have slipped in right at the deadline.
      return take(source, tag, context);
    }
  }
}

bool Mailbox::probe(int source, int tag, int context) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return matches(m, source, tag, context);
  });
}

void Mailbox::revoke(int context) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(queue_,
                  [context](const Message& m) { return m.context == context; });
  }
  cv_.notify_all();
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace bgqhf::simmpi
