#include "speech/corpus.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bgqhf::speech {

std::size_t Corpus::total_frames() const {
  std::size_t n = 0;
  for (const auto& u : utterances) n += u.num_frames();
  return n;
}

std::size_t spec_total_frames(const CorpusSpec& spec) {
  return static_cast<std::size_t>(spec.hours * 3600.0 *
                                  spec.frames_per_second);
}

CorpusGenerator::CorpusGenerator(const CorpusSpec& spec)
    : spec_(spec),
      len_rng_(0),
      path_rng_(0),
      noise_rng_(0) {
  if (spec.num_states == 0 || spec.feature_dim == 0) {
    throw std::invalid_argument("corpus: states and feature_dim must be > 0");
  }
  util::Rng rng(spec.seed);

  // Per-state acoustic means: well separated relative to the noise so the
  // classification task is learnable but not trivial.
  util::Rng mean_rng = rng.fork(0xACu);
  state_means_.resize(spec.num_states);
  for (auto& mean : state_means_) {
    mean.resize(spec.feature_dim);
    for (auto& v : mean) v = static_cast<float>(mean_rng.normal(0.0, 1.0));
  }

  target_frames_ = spec_total_frames(spec);
  // Log-normal duration with the requested arithmetic mean:
  // E[X] = exp(mu + sigma^2/2)  =>  mu = log(mean) - sigma^2/2.
  mu_ =
      std::log(spec.mean_utt_seconds) - 0.5 * spec.log_sigma * spec.log_sigma;

  len_rng_ = rng.fork(0x1Eu);
  path_rng_ = rng.fork(0x2Fu);
  noise_rng_ = rng.fork(0x3Du);
}

std::optional<Utterance> CorpusGenerator::next() {
  if (frames_so_far_ >= target_frames_) return std::nullopt;

  const double seconds = std::exp(len_rng_.normal(mu_, spec_.log_sigma));
  std::size_t frames = static_cast<std::size_t>(
      std::max(1.0, seconds * spec_.frames_per_second));
  frames = std::min(frames, target_frames_ - frames_so_far_ +
                                static_cast<std::size_t>(1));

  Utterance utt;
  utt.id = next_id_++;
  utt.speaker = static_cast<int>(path_rng_.below(1000));
  utt.features = blas::Matrix<float>(frames, spec_.feature_dim);
  utt.labels.resize(frames);

  // Left-to-right dwell process over states, wrapping so long utterances
  // revisit states (speech alignments do the same across phones).
  std::size_t state = path_rng_.below(spec_.num_states);
  const double advance_prob = 1.0 / spec_.state_dwell_frames;
  for (std::size_t t = 0; t < frames; ++t) {
    utt.labels[t] = static_cast<int>(state);
    const auto& mean = state_means_[state];
    for (std::size_t d = 0; d < spec_.feature_dim; ++d) {
      utt.features(t, d) = static_cast<float>(
          mean[d] + noise_rng_.normal(0.0, spec_.noise_stddev));
    }
    if (path_rng_.next_double() < advance_prob) {
      state = (state + 1) % spec_.num_states;
    }
  }

  frames_so_far_ += frames;
  return utt;
}

Corpus generate_corpus(const CorpusSpec& spec) {
  CorpusGenerator gen(spec);
  Corpus corpus;
  corpus.feature_dim = spec.feature_dim;
  corpus.num_states = spec.num_states;
  while (auto utt = gen.next()) {
    corpus.utterances.push_back(std::move(*utt));
  }
  return corpus;
}

}  // namespace bgqhf::speech
