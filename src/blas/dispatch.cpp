#include "blas/dispatch.h"

#include <atomic>
#include <cmath>
#include <string>

#include "blas/kernels_avx2.h"
#include "blas/kernels_avx512.h"
#include "blas/kernels_reduced.h"
#include "blas/kernels_sse2.h"
#include "blas/microkernel.h"
#include "util/config.h"
#include "util/logging.h"

namespace bgqhf::blas {

namespace {

// Scalar level-1 reference implementations (the float specializations the
// table falls back to; templates in level1.h route through the table).
double sdot_scalar(const float* x, const float* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

void saxpy_scalar(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void sscal_scalar(float alpha, float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

std::size_t topk_select_scalar(float* carrier, std::size_t n, float tau,
                               std::uint32_t index_base, std::uint32_t* idx,
                               float* val) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = carrier[i];
    if (std::fabs(v) >= tau) {
      idx[k] = index_base + static_cast<std::uint32_t>(i);
      val[k] = v;
      carrier[i] = 0.0f;
      ++k;
    }
  }
  return k;
}

constexpr KernelTable kScalarTable{
    KernelKind::kScalar,      &microkernel<float>,     &sdot_scalar,
    &saxpy_scalar,            &sscal_scalar,           &topk_select_scalar,
    &int8_microkernel_scalar, &epilogue_tile_scalar};

#if defined(BGQHF_HAVE_SSE2_KERNELS)
constexpr KernelTable kSse2Table{
    KernelKind::kSse2,        &sgemm_microkernel_sse2, &sdot_sse2,
    &saxpy_sse2,              &sscal_sse2,             &topk_select_sse2,
    &int8_microkernel_scalar, &epilogue_tile_scalar};
#endif

#if defined(BGQHF_HAVE_AVX2_TU)
constexpr KernelTable kAvx2Table{
    KernelKind::kAvx2,        &sgemm_microkernel_avx2, &sdot_avx2,
    &saxpy_avx2,              &sscal_avx2,             &topk_select_avx2,
    &int8_microkernel_scalar, &epilogue_tile_avx2};
#endif

#if defined(BGQHF_HAVE_AVX512_TU) && defined(BGQHF_HAVE_AVX2_TU)
// The avx512 SGEMM kernel is bitwise identical to the avx2 one and the
// level-1 entries alias the avx2 functions, so auto-selecting this tier
// cannot perturb any fp32 result (the default-mode bitwise guarantee).
constexpr KernelTable kAvx512Table{
    KernelKind::kAvx512,      &sgemm_microkernel_avx512, &sdot_avx2,
    &saxpy_avx2,              &sscal_avx2,               &topk_select_avx2,
    &int8_microkernel_avx512, &epilogue_tile_avx512};
#endif

const KernelTable* table_for(KernelKind k) {
  switch (k) {
    case KernelKind::kScalar:
      return &kScalarTable;
    case KernelKind::kSse2:
#if defined(BGQHF_HAVE_SSE2_KERNELS)
      return &kSse2Table;
#else
      return nullptr;
#endif
    case KernelKind::kAvx2:
#if defined(BGQHF_HAVE_AVX2_TU)
      return &kAvx2Table;
#else
      return nullptr;
#endif
    case KernelKind::kAvx512:
#if defined(BGQHF_HAVE_AVX512_TU) && defined(BGQHF_HAVE_AVX2_TU)
      return &kAvx512Table;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool cpu_has_avx2_fma() {
#if defined(BGQHF_HAVE_AVX2_TU)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512_vnni() {
#if defined(BGQHF_HAVE_AVX512_TU)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

KernelKind resolve_from_env() {
  KernelKind chosen = detect_best_kernel();
  const std::string& force = util::RuntimeEnv::get().force_kernel;
  if (!force.empty() && force != "auto") {
    KernelKind requested;
    if (force == "scalar") {
      requested = KernelKind::kScalar;
    } else if (force == "sse2") {
      requested = KernelKind::kSse2;
    } else if (force == "avx2") {
      requested = KernelKind::kAvx2;
    } else if (force == "avx512") {
      requested = KernelKind::kAvx512;
    } else {
      // A name that is not a kernel at all is a typo, not a portability
      // situation — reject loudly (a silent scalar fallback once cost a CI
      // leg its entire point).
      throw util::ConfigError("BGQHF_FORCE_KERNEL", force,
                              "scalar|sse2|avx2|avx512|auto");
    }
    if (kernel_supported(requested)) {
      chosen = requested;
    } else {
      // Known kernel, unsupported CPU/build: fall back so one CI config
      // can run everywhere.
      BGQHF_WARN << "BGQHF_FORCE_KERNEL=" << force
                 << " unsupported on this CPU/build; falling back to "
                 << to_string(chosen);
    }
  }
  return chosen;
}

// Resolved once at first use; set_kernel_override swaps it for tests.
std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const char* to_string(KernelKind k) {
  switch (k) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kSse2:
      return "sse2";
    case KernelKind::kAvx2:
      return "avx2";
    case KernelKind::kAvx512:
      return "avx512";
  }
  return "?";
}

bool kernel_supported(KernelKind k) {
  if (table_for(k) == nullptr) return false;
  if (k == KernelKind::kAvx2) return cpu_has_avx2_fma();
  if (k == KernelKind::kAvx512) {
    return cpu_has_avx2_fma() && cpu_has_avx512_vnni();
  }
  return true;  // scalar always; sse2 is x86-64 baseline when compiled in
}

KernelKind detect_best_kernel() {
  if (kernel_supported(KernelKind::kAvx512)) return KernelKind::kAvx512;
  if (kernel_supported(KernelKind::kAvx2)) return KernelKind::kAvx2;
  if (kernel_supported(KernelKind::kSse2)) return KernelKind::kSse2;
  return KernelKind::kScalar;
}

const KernelTable& active_kernels() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = table_for(resolve_from_env());
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

bool set_kernel_override(KernelKind k) {
  if (!kernel_supported(k)) return false;
  g_active.store(table_for(k), std::memory_order_release);
  return true;
}

void reset_kernel_dispatch() {
  g_active.store(nullptr, std::memory_order_release);
}

}  // namespace bgqhf::blas
