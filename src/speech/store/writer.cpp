#include "speech/store/writer.h"

#include <sys/stat.h>

#include <cstdint>
#include <cstring>

namespace bgqhf::speech::store {

namespace {

std::string shard_file_name(const std::string& basename, std::size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-%05zu.bgqs", n);
  return basename + buf;
}

std::string join(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

void write_all(std::FILE* f, const void* data, std::size_t n,
               const std::string& path) {
  if (std::fwrite(data, 1, n, f) != n) {
    throw DataError(DataFault::kIo, "short write: " + path);
  }
}

template <typename T>
void write_pod(std::FILE* f, const T& v, const std::string& path) {
  write_all(f, &v, sizeof(T), path);
}

}  // namespace

ShardWriter::ShardWriter(std::string dir, std::size_t feature_dim,
                         std::size_t num_states, WriterOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  if (feature_dim == 0 || num_states == 0) {
    throw DataError(DataFault::kShapeMismatch,
                    "ShardWriter: feature_dim and num_states must be > 0");
  }
  index_.feature_dim = feature_dim;
  index_.num_states = num_states;
  // Best-effort create; an existing directory is fine, anything else shows
  // up as an open failure on the first shard.
  ::mkdir(dir_.c_str(), 0755);
  open_next_shard();
}

ShardWriter::~ShardWriter() {
  if (shard_ != nullptr) std::fclose(shard_);
}

void ShardWriter::open_next_shard() {
  shard_name_ = shard_file_name(options_.basename, index_.shard_files.size());
  const std::string path = join(dir_, shard_name_);
  shard_ = std::fopen(path.c_str(), "wb");
  if (shard_ == nullptr) {
    throw DataError(DataFault::kIo, "cannot open shard: " + path);
  }
  write_all(shard_, kShardMagic, sizeof(kShardMagic), path);
  write_pod(shard_, kShardVersion, path);
  write_pod(shard_, std::uint32_t{0}, path);
  write_pod(shard_, static_cast<std::uint64_t>(index_.feature_dim), path);
  write_pod(shard_, static_cast<std::uint64_t>(index_.num_states), path);
  write_pod(shard_, std::uint64_t{0}, path);  // num_records, patched at seal
  shard_offset_ = kShardHeaderBytes;
  shard_records_ = 0;
  index_.shard_files.push_back(shard_name_);
}

void ShardWriter::seal_shard() {
  const std::string path = join(dir_, shard_name_);
  // Patch the record count into the header (offset 32).
  if (std::fseek(shard_, 32, SEEK_SET) != 0) {
    throw DataError(DataFault::kIo, "seek failed: " + path);
  }
  write_pod(shard_, shard_records_, path);
  if (std::fclose(shard_) != 0) {
    shard_ = nullptr;
    throw DataError(DataFault::kIo, "close failed: " + path);
  }
  shard_ = nullptr;
}

void ShardWriter::add(const Utterance& utt) {
  if (finished_) {
    throw DataError(DataFault::kIo, "ShardWriter: add after finish");
  }
  if (shard_records_ > 0 && shard_offset_ >= options_.target_shard_bytes) {
    seal_shard();
    open_next_shard();
  }
  std::string record;
  record.reserve(record_bytes(utt, index_.feature_dim));
  append_record(record, utt, index_.feature_dim);

  IndexEntry entry;
  entry.id = utt.id;
  entry.shard = static_cast<std::uint32_t>(index_.shard_files.size() - 1);
  entry.speaker = utt.speaker;
  entry.offset = shard_offset_;
  entry.frames = utt.num_frames();
  write_all(shard_, record.data(), record.size(), join(dir_, shard_name_));
  shard_offset_ += record.size();
  bytes_written_ += record.size();
  ++shard_records_;
  index_.entries.push_back(entry);
}

CorpusIndex ShardWriter::finish() {
  if (finished_) {
    throw DataError(DataFault::kIo, "ShardWriter: finish called twice");
  }
  finished_ = true;
  seal_shard();
  save_index(index_, index_path(dir_));
  return index_;
}

CorpusIndex generate_sharded_corpus(const CorpusSpec& spec,
                                    const std::string& dir,
                                    WriterOptions options) {
  CorpusGenerator gen(spec);
  ShardWriter writer(dir, spec.feature_dim, spec.num_states,
                     std::move(options));
  while (auto utt = gen.next()) writer.add(*utt);
  return writer.finish();
}

}  // namespace bgqhf::speech::store
