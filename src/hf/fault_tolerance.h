// Fault-tolerant master/worker protocol support.
//
// The baseline protocol (protocol.h) runs on tree collectives: fast, but a
// single lost message or dead rank starves a subtree and deadlocks
// Mailbox::pop forever. The fault-tolerant variant keeps the same command
// set and the same rank-order fold arithmetic (so fault-free runs are
// bitwise identical to the collective path) but moves every exchange onto
// flat, CRC-framed point-to-point messages with deadlines:
//
//   * master -> worker: command headers and payloads are framed
//     [crc | status | payload] (util::crc32) once per broadcast, and the
//     one frame is sent to every live worker;
//   * worker -> master: one framed reply per command, so a worker's
//     contribution and its loss statistics arrive atomically;
//   * the master retries timed-out replies with backoff, then excludes the
//     worker and reweights sums by the surviving data fraction;
//   * workers validate every payload checksum and report corruption
//     instead of silently training on garbage.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

#include "simmpi/communicator.h"
#include "util/checksum.h"

namespace bgqhf::hf {

struct FtOptions {
  /// Use the fault-tolerant flat protocol instead of tree collectives.
  bool enabled = false;
  /// Seconds the master waits for a worker reply before retrying.
  double reply_timeout = 1.0;
  /// Re-waits (with backoff) before a silent worker is declared dead.
  int max_retries = 2;
  /// Timeout multiplier per retry.
  double backoff = 1.5;
  /// Seconds a worker waits for the next command before concluding the
  /// master is gone and exiting its loop.
  double command_timeout = 30.0;
  /// Log worker exclusions and retries (BGQHF_WARN).
  bool verbose = true;
};

/// Status byte carried by every framed message.
enum class FtStatus : std::uint32_t {
  kOk = 0,
  /// Sender detected a corrupt payload and is withdrawing from the job.
  kCorruptPayload = 1,
};

/// A decoded framed message. `ok` is false when the CRC does not match or
/// the frame is structurally invalid — the payload must not be trusted.
/// `data` views the received buffer in place; `buffer` keeps it alive.
template <typename T>
struct FtFrame {
  std::span<const T> data;
  FtStatus status = FtStatus::kOk;
  bool ok = false;
  simmpi::Payload buffer;
};

/// Frame layout: [u32 crc | u32 status | payload bytes]; crc covers
/// everything after itself.
inline constexpr std::size_t kFtFrameHeaderBytes = 2 * sizeof(std::uint32_t);

/// Build one frame whose payload is the concatenation of `parts`: each part
/// is copied once, straight into the frame, and the frame is checksummed
/// once, however many destinations it is then sent to.
inline simmpi::Payload ft_frame(
    std::initializer_list<std::span<const std::byte>> parts,
    FtStatus status = FtStatus::kOk) {
  std::size_t bytes = kFtFrameHeaderBytes;
  for (const auto& part : parts) bytes += part.size();
  std::vector<std::byte> frame(bytes);
  const auto status_raw = static_cast<std::uint32_t>(status);
  std::memcpy(frame.data() + sizeof(std::uint32_t), &status_raw,
              sizeof(status_raw));
  std::byte* out = frame.data() + kFtFrameHeaderBytes;
  for (const auto& part : parts) {
    if (!part.empty()) std::memcpy(out, part.data(), part.size());
    out += part.size();
  }
  const std::uint32_t crc =
      util::crc32(frame.data() + sizeof(std::uint32_t),
                  frame.size() - sizeof(std::uint32_t));
  std::memcpy(frame.data(), &crc, sizeof(crc));
  return simmpi::Payload(std::move(frame));
}

template <typename T>
void ft_send(simmpi::Comm& comm, std::span<const T> payload, int dest,
             int tag, FtStatus status = FtStatus::kOk) {
  static_assert(std::is_trivially_copyable_v<T>);
  comm.send_shared(ft_frame({std::as_bytes(payload)}, status), dest, tag);
}

/// Receive and validate one frame. Propagates simmpi::TimeoutError when
/// nothing arrives within the deadline; a corrupt frame is *returned*
/// (ok = false), not thrown, so the caller decides the recovery policy.
template <typename T>
FtFrame<T> ft_recv_for(simmpi::Comm& comm, int source, int tag,
                       double timeout_seconds) {
  static_assert(std::is_trivially_copyable_v<T>);
  // Frames are heap buffers (aligned for any scalar) and the header is 8
  // bytes, so the payload is aligned for T in place.
  static_assert(alignof(T) <= kFtFrameHeaderBytes);
  FtFrame<T> out;
  out.buffer = comm.recv_payload_for(source, tag, timeout_seconds);
  const std::byte* frame = out.buffer.data();
  const std::size_t size = out.buffer.size();
  if (size < kFtFrameHeaderBytes) return out;
  std::uint32_t crc = 0;
  std::memcpy(&crc, frame, sizeof(crc));
  if (util::crc32(frame + sizeof(std::uint32_t),
                  size - sizeof(std::uint32_t)) != crc) {
    return out;
  }
  std::uint32_t status_raw = 0;
  std::memcpy(&status_raw, frame + sizeof(std::uint32_t), sizeof(status_raw));
  out.status = static_cast<FtStatus>(status_raw);
  const std::size_t payload_bytes = size - kFtFrameHeaderBytes;
  if (payload_bytes % sizeof(T) != 0) return out;
  out.data = std::span<const T>(
      reinterpret_cast<const T*>(frame + kFtFrameHeaderBytes),
      payload_bytes / sizeof(T));
  out.ok = true;
  return out;
}

/// Consume sizeof(T)*out.size() bytes from the front of `in` into `out`;
/// returns false (leaving `out` unspecified) if `in` is too short.
template <typename T>
bool consume_pod_span(std::span<const std::byte>& in, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t need = out.size() * sizeof(T);
  if (in.size() < need) return false;
  if (need > 0) std::memcpy(out.data(), in.data(), need);
  in = in.subspan(need);
  return true;
}

}  // namespace bgqhf::hf
