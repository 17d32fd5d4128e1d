// Message envelope for the in-process MPI-subset runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace bgqhf::simmpi {

/// Wildcards mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Immutable, type-erased byte buffer with shared ownership.
///
/// Two properties the collective engine needs that a plain
/// shared_ptr<vector<byte>> cannot give:
///   * adopt(): a rank's vector<T> moves into the payload without a
///     serialization copy — tree reduces forward their partials for free;
///   * shared fan-out: a broadcast enqueues one buffer to many mailboxes.
class Payload {
 public:
  Payload() = default;

  /// Take ownership of raw bytes (the classic serialize-then-send path).
  explicit Payload(std::vector<std::byte> bytes) {
    auto owned = std::make_shared<std::vector<std::byte>>(std::move(bytes));
    data_ = owned->data();
    size_ = owned->size();
    owner_ = std::move(owned);
  }

  /// Move a typed vector into the payload with no copy. T must be
  /// trivially copyable; the bytes are the vector's object representation.
  template <typename T>
  static Payload adopt(std::vector<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    Payload p;
    auto owned = std::make_shared<std::vector<T>>(std::move(data));
    p.data_ = reinterpret_cast<const std::byte*>(owned->data());
    p.size_ = owned->size() * sizeof(T);
    p.owner_ = std::move(owned);
    return p;
  }

  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Reinterpret the bytes as a T array (size() / sizeof(T) elements).
  /// Valid for trivially copyable T; buffers originate from vector<T> or
  /// vector<byte>, both of which operator new aligns for any scalar type.
  template <typename T>
  const T* as() const noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    return reinterpret_cast<const T*>(data_);
  }

  /// CRC32 of the bytes, attached once by a sender with checksums on and
  /// carried along when a receiver forwards the payload (tree broadcast
  /// hops).
  std::optional<std::uint32_t> crc() const noexcept { return crc_; }
  void set_crc(std::uint32_t crc) noexcept { crc_ = crc; }

 private:
  std::shared_ptr<const void> owner_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::optional<std::uint32_t> crc_;
};

/// A buffered message: payload bytes plus the envelope used for matching.
/// Payloads are shared so a broadcast can enqueue one buffer to many
/// mailboxes without copying per destination. `context` names the
/// communicator the message was sent on (0 = the world communicator), so
/// traffic on a shrunk communicator never matches leftovers of the revoked
/// one it replaced.
struct Message {
  int source = 0;
  int tag = 0;
  int context = 0;
  Payload payload;

  std::size_t size_bytes() const { return payload.size(); }
};

/// Receive status (source/tag of the matched message, byte count).
struct Status {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

}  // namespace bgqhf::simmpi
