// Shared main() guard: a malformed or unknown BGQHF_* knob ends a bench with
// one line naming it and exit status 1, not an uncaught-exception abort.
// The knobs are read up front, on the main thread: a first read inside a
// rank, serving or loader thread would throw where no handler can catch it.
#pragma once

#include <cstdio>

#include "util/config.h"

namespace bgqhf::bench {

template <typename Body>
int guarded_main(Body&& body) {
  try {
    util::RuntimeEnv::get();
    return body();
  } catch (const util::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

}  // namespace bgqhf::bench
