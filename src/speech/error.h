// Typed data-access errors.
//
// Every failure the corpus store and the DataSource implementations can
// hit — unreadable files, CRC mismatches, foreign or stale formats, shape
// disagreements between an index and its shards — throws DataError with a
// machine-checkable fault code, mirroring hf::CheckpointError. Callers
// (the trainer's staging path, the corpus_shard CLI) branch on fault()
// instead of parsing what() text.
#pragma once

#include <stdexcept>
#include <string>

namespace bgqhf::speech {

enum class DataFault {
  kIo,             // cannot open / short read / short write
  kCorrupt,        // CRC mismatch, truncated record, implausible counts
  kBadMagic,       // not a BGQS1 shard / BGQSIDX index
  kBadVersion,     // written by an incompatible format revision
  kShapeMismatch,  // record or shard disagrees with the index/corpus shape
};

inline const char* to_string(DataFault fault) {
  switch (fault) {
    case DataFault::kIo:
      return "data io error";
    case DataFault::kCorrupt:
      return "data corrupt";
    case DataFault::kBadMagic:
      return "data bad magic";
    case DataFault::kBadVersion:
      return "data bad version";
    case DataFault::kShapeMismatch:
      return "data shape mismatch";
  }
  return "data error";
}

/// Typed data error: load/decode failures throw this rather than a bare
/// std::runtime_error, so recovery paths can distinguish a missing file
/// from a damaged one. Derives std::runtime_error, so pre-redesign catch
/// sites keep working unchanged.
class DataError : public std::runtime_error {
 public:
  DataError(DataFault fault, const std::string& detail)
      : std::runtime_error(std::string(to_string(fault)) + ": " + detail),
        fault_(fault) {}

  DataFault fault() const noexcept { return fault_; }

 private:
  DataFault fault_;
};

}  // namespace bgqhf::speech
