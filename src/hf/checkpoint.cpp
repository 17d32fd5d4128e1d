#include "hf/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "nn/network.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "simmpi/compress.h"
#include "util/checksum.h"

namespace bgqhf::hf {

const char* to_string(CheckpointFault fault) {
  switch (fault) {
    case CheckpointFault::kIo:
      return "checkpoint i/o error";
    case CheckpointFault::kCorrupt:
      return "checkpoint corrupt";
    case CheckpointFault::kBadMagic:
      return "checkpoint bad magic";
    case CheckpointFault::kBadVersion:
      return "checkpoint bad version";
    case CheckpointFault::kShapeMismatch:
      return "checkpoint shape mismatch";
    case CheckpointFault::kSeedMismatch:
      return "checkpoint seed mismatch";
  }
  return "checkpoint error";
}

namespace {

constexpr char kMagic[8] = {'B', 'G', 'Q', 'H', 'F', 'C', 'K', 'P'};
constexpr std::uint32_t kVersion = 1;

// In-memory weights blob (encode_weights_blob): distinct magic so a wire
// payload is never mistaken for (or fed to) the file-checkpoint loaders.
constexpr char kWeightsMagic[8] = {'B', 'G', 'Q', 'H', 'F', 'W', 'T', 'S'};

class Writer {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t old = bytes_.size();
    bytes_.resize(old + sizeof(T));
    std::memcpy(bytes_.data() + old, &v, sizeof(T));
  }
  template <typename T>
  void pod_vector(const std::vector<T>& v) {
    pod(static_cast<std::uint64_t>(v.size()));
    const std::size_t old = bytes_.size();
    bytes_.resize(old + v.size() * sizeof(T));
    if (!v.empty()) {
      std::memcpy(bytes_.data() + old, v.data(), v.size() * sizeof(T));
    }
  }
  std::vector<std::byte>& bytes() { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::byte>& bytes) : bytes_(bytes) {}
  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    if (pos_ + sizeof(T) > bytes_.size()) {
      throw CheckpointError(CheckpointFault::kCorrupt, "truncated file");
    }
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> pod_vector() {
    const auto n = static_cast<std::size_t>(pod<std::uint64_t>());
    if (pos_ + n * sizeof(T) > bytes_.size()) {
      throw CheckpointError(CheckpointFault::kCorrupt, "truncated file");
    }
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }
  /// Advance past `count` elements of T without materializing them.
  template <typename T>
  void skip(std::size_t count) {
    if (pos_ + count * sizeof(T) > bytes_.size()) {
      throw CheckpointError(CheckpointFault::kCorrupt, "truncated file");
    }
    pos_ += count * sizeof(T);
  }
  std::size_t pos() const { return pos_; }

 private:
  const std::vector<std::byte>& bytes_;
  std::size_t pos_ = 0;
};

void write_log(Writer& w, const HfIterationLog& log) {
  w.pod(static_cast<std::uint64_t>(log.iteration));
  w.pod(log.train_loss);
  w.pod(log.grad_norm);
  w.pod(static_cast<std::uint64_t>(log.cg_iterations));
  w.pod(static_cast<std::uint64_t>(log.num_iterates));
  w.pod(static_cast<std::uint64_t>(log.chosen_iterate));
  w.pod(log.q_dn);
  w.pod(log.rho);
  w.pod(log.lambda);
  w.pod(log.alpha);
  w.pod(log.heldout_before);
  w.pod(log.heldout_after);
  w.pod(static_cast<std::uint8_t>(log.failed ? 1 : 0));
  w.pod(static_cast<std::uint64_t>(log.heldout_evals));
}

/// Read the whole file, verify the CRC32 footer, and consume the magic and
/// version header; the returned Reader points at the first payload field.
std::vector<std::byte> read_validated(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CheckpointError(CheckpointFault::kIo, "cannot open " + path);
  }
  // Sized from the file once: one allocation instead of a growth chain,
  // whose realloc/mmap cost swings with the allocator's state.
  std::vector<std::byte> bytes;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > 0) bytes.resize(static_cast<std::size_t>(size));
    std::rewind(f);
  }
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);

  if (bytes.size() < sizeof(kMagic) + sizeof(std::uint32_t) * 2) {
    throw CheckpointError(CheckpointFault::kCorrupt,
                          "file too short: " + path);
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (util::crc32(bytes.data(), bytes.size() - sizeof(stored_crc)) !=
      stored_crc) {
    throw CheckpointError(CheckpointFault::kCorrupt,
                          "CRC mismatch (corrupt file): " + path);
  }
  return bytes;
}

void read_header(Reader& r, const std::string& path) {
  for (const char expected : kMagic) {
    if (r.pod<char>() != expected) {
      throw CheckpointError(CheckpointFault::kBadMagic, path);
    }
  }
  if (const auto v = r.pod<std::uint32_t>(); v != kVersion) {
    throw CheckpointError(
        CheckpointFault::kBadVersion,
        "version " + std::to_string(v) + " in " + path + " (want " +
            std::to_string(kVersion) + ")");
  }
}

HfIterationLog read_log(Reader& r) {
  HfIterationLog log;
  log.iteration = static_cast<std::size_t>(r.pod<std::uint64_t>());
  log.train_loss = r.pod<double>();
  log.grad_norm = r.pod<double>();
  log.cg_iterations = static_cast<std::size_t>(r.pod<std::uint64_t>());
  log.num_iterates = static_cast<std::size_t>(r.pod<std::uint64_t>());
  log.chosen_iterate = static_cast<std::size_t>(r.pod<std::uint64_t>());
  log.q_dn = r.pod<double>();
  log.rho = r.pod<double>();
  log.lambda = r.pod<double>();
  log.alpha = r.pod<double>();
  log.heldout_before = r.pod<double>();
  log.heldout_after = r.pod<double>();
  log.failed = r.pod<std::uint8_t>() != 0;
  log.heldout_evals = static_cast<std::size_t>(r.pod<std::uint64_t>());
  return log;
}

}  // namespace

void save_checkpoint(const TrainerCheckpoint& ckpt, const std::string& path) {
  BGQHF_SPAN("fault", "checkpoint_save");
  obs::global_add(obs::Schema::global().counter("hf.checkpoint.saves"));
  Writer w;
  for (const char c : kMagic) w.pod(c);
  w.pod(kVersion);
  w.pod(ckpt.completed_iterations);
  w.pod(ckpt.hf_seed);
  w.pod(ckpt.lambda);
  w.pod(ckpt.loss_prev);
  w.pod(ckpt.stall);
  if (ckpt.theta.size() != ckpt.d0.size()) {
    throw std::invalid_argument("checkpoint: theta/d0 size mismatch");
  }
  w.pod(static_cast<std::uint64_t>(ckpt.theta.size()));
  for (const float v : ckpt.theta) w.pod(v);
  for (const float v : ckpt.d0) w.pod(v);
  w.pod(static_cast<std::uint64_t>(ckpt.logs.size()));
  for (const auto& log : ckpt.logs) write_log(w, log);
  const std::uint32_t crc = util::crc32(w.bytes().data(), w.bytes().size());
  w.pod(crc);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + tmp);
  }
  const std::size_t written =
      std::fwrite(w.bytes().data(), 1, w.bytes().size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != w.bytes().size() || !flushed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
  }
}

TrainerCheckpoint load_checkpoint(const std::string& path) {
  BGQHF_SPAN("fault", "checkpoint_load");
  obs::global_add(obs::Schema::global().counter("hf.checkpoint.loads"));
  const std::vector<std::byte> bytes = read_validated(path);
  Reader r(bytes);
  read_header(r, path);
  TrainerCheckpoint ckpt;
  ckpt.completed_iterations = r.pod<std::uint64_t>();
  ckpt.hf_seed = r.pod<std::uint64_t>();
  ckpt.lambda = r.pod<double>();
  ckpt.loss_prev = r.pod<double>();
  ckpt.stall = r.pod<std::uint64_t>();
  const auto n_params = static_cast<std::size_t>(r.pod<std::uint64_t>());
  ckpt.theta.resize(n_params);
  for (auto& v : ckpt.theta) v = r.pod<float>();
  ckpt.d0.resize(n_params);
  for (auto& v : ckpt.d0) v = r.pod<float>();
  const auto n_logs = static_cast<std::size_t>(r.pod<std::uint64_t>());
  ckpt.logs.reserve(n_logs);
  for (std::size_t i = 0; i < n_logs; ++i) ckpt.logs.push_back(read_log(r));
  return ckpt;
}

CheckpointWeights load_checkpoint_weights(const std::string& path) {
  BGQHF_SPAN("serve", "checkpoint_load_weights");
  obs::global_add(
      obs::Schema::global().counter("hf.checkpoint.weight_loads"));
  const std::vector<std::byte> bytes = read_validated(path);
  Reader r(bytes);
  read_header(r, path);
  CheckpointWeights w;
  w.completed_iterations = r.pod<std::uint64_t>();
  w.hf_seed = r.pod<std::uint64_t>();
  r.pod<double>();         // lambda
  r.pod<double>();         // loss_prev
  r.pod<std::uint64_t>();  // stall
  const auto n_params = static_cast<std::size_t>(r.pod<std::uint64_t>());
  w.theta.resize(n_params);
  for (auto& v : w.theta) v = r.pod<float>();
  r.skip<float>(n_params);  // d0: CG-restart momentum, training-only
  return w;
}

std::vector<std::byte> encode_weights_blob(const CheckpointWeights& weights,
                                           WeightsWire wire) {
  obs::global_add(obs::Schema::global().counter("hf.checkpoint.encodes"));
  Writer w;
  for (const char c : kWeightsMagic) w.pod(c);
  w.pod(kVersion);
  w.pod(static_cast<std::uint32_t>(wire));
  w.pod(weights.completed_iterations);
  w.pod(weights.hf_seed);
  if (wire == WeightsWire::kBf16) {
    // Dense bf16 body through the compress codec (a fresh state per blob:
    // a one-shot exchange has no error-feedback stream to carry, the
    // rounding residual the carrier retains is discarded with the copy).
    simmpi::CompressOptions copts;
    copts.mode = simmpi::CompressMode::kBf16;
    copts.min_values = 0;
    simmpi::CompressState state;
    std::vector<float> carrier = weights.theta;
    const simmpi::Payload body = simmpi::compress(carrier, copts, state);
    std::vector<std::byte> bytes(body.data(), body.data() + body.size());
    w.pod_vector(bytes);
  } else {
    w.pod_vector(weights.theta);
  }
  const std::uint32_t crc = util::crc32(w.bytes().data(), w.bytes().size());
  w.pod(crc);
  return std::move(w.bytes());
}

CheckpointWeights decode_weights_blob(const std::vector<std::byte>& blob) {
  if (blob.size() < sizeof(kWeightsMagic) + sizeof(std::uint32_t) * 2) {
    throw CheckpointError(CheckpointFault::kCorrupt, "weights blob too short");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, blob.data() + blob.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (util::crc32(blob.data(), blob.size() - sizeof(stored_crc)) !=
      stored_crc) {
    throw CheckpointError(CheckpointFault::kCorrupt,
                          "weights blob CRC mismatch");
  }
  Reader r(blob);
  for (const char expected : kWeightsMagic) {
    if (r.pod<char>() != expected) {
      throw CheckpointError(CheckpointFault::kBadMagic, "weights blob");
    }
  }
  if (const auto v = r.pod<std::uint32_t>(); v != kVersion) {
    throw CheckpointError(CheckpointFault::kBadVersion,
                          "weights blob version " + std::to_string(v) +
                              " (want " + std::to_string(kVersion) + ")");
  }
  const auto wire = r.pod<std::uint32_t>();
  CheckpointWeights w;
  w.completed_iterations = r.pod<std::uint64_t>();
  w.hf_seed = r.pod<std::uint64_t>();
  switch (static_cast<WeightsWire>(wire)) {
    case WeightsWire::kF32:
      w.theta = r.pod_vector<float>();
      break;
    case WeightsWire::kBf16: {
      const std::vector<std::byte> body = r.pod_vector<std::byte>();
      w.theta.assign(simmpi::decoded_values(body), 0.0f);
      simmpi::decode_overwrite(body, w.theta);
      break;
    }
    default:
      throw CheckpointError(CheckpointFault::kCorrupt,
                            "weights blob wire tag " + std::to_string(wire));
  }
  return w;
}

void install_weights(const CheckpointWeights& weights, nn::Network& net) {
  if (weights.theta.size() != net.num_params()) {
    throw CheckpointError(
        CheckpointFault::kShapeMismatch,
        "checkpoint has " + std::to_string(weights.theta.size()) +
            " parameters, network wants " + std::to_string(net.num_params()));
  }
  net.set_params(weights.theta);
}

}  // namespace bgqhf::hf
