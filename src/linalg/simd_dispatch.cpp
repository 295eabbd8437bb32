#include "linalg/simd_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "linalg/simd_kernels.hpp"

namespace gp::linalg::simd {

namespace {

Tier probe_cpu() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_cpu_init();
  // AVX-512 kernels use 512-bit and/or for |x| (VANDPD zmm is AVX512DQ).
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

/// Highest available tier <= request (availability = CPU + build support).
Tier clamp_to_available(Tier request) {
  for (int t = static_cast<int>(request); t > 0; --t) {
    if (tier_available(static_cast<Tier>(t))) return static_cast<Tier>(t);
  }
  return Tier::kScalar;
}

// -1 until the first active_tier() call resolves CPUID + GEOPLACE_SIMD. The
// first-use race is benign: every initializer computes the same value.
std::atomic<int> g_active{-1};

int init_active_tier() {
  Tier request = detected_tier();
  if (const char* env = std::getenv("GEOPLACE_SIMD")) {
    request = tier_from_name(env);
  }
  return static_cast<int>(clamp_to_available(request));
}

}  // namespace

Tier detected_tier() {
  static const Tier tier = probe_cpu();
  return tier;
}

bool tier_available(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return detected_tier() >= Tier::kAvx2 && avx2_table() != nullptr;
    case Tier::kAvx512:
      return detected_tier() >= Tier::kAvx512 && avx512_table() != nullptr;
  }
  return false;
}

Tier active_tier() {
  int t = g_active.load(std::memory_order_relaxed);
  if (t < 0) {
    t = init_active_tier();
    g_active.store(t, std::memory_order_relaxed);
  }
  return static_cast<Tier>(t);
}

Tier set_active_tier(Tier t) {
  const Tier chosen = clamp_to_available(t);
  g_active.store(static_cast<int>(chosen), std::memory_order_relaxed);
  return chosen;
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "scalar";
}

Tier tier_from_name(std::string_view name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "avx2") return Tier::kAvx2;
  if (name == "avx512") return Tier::kAvx512;
  require(false, "GEOPLACE_SIMD: unknown tier '" + std::string(name) +
                     "' (expected scalar|avx2|avx512)");
  return Tier::kScalar;
}

const KernelTable& kernels() {
  switch (active_tier()) {
    case Tier::kAvx512:
      return *avx512_table();
    case Tier::kAvx2:
      return *avx2_table();
    case Tier::kScalar:
      break;
  }
  return scalar_table();
}

}  // namespace gp::linalg::simd
