// Runtime SIMD dispatch for the linalg kernel layer.
//
// The library ships one portable scalar build plus explicitly vectorized
// kernel variants compiled in per-ISA translation units (simd_kernels_*.cpp,
// each with its own -m flags). At runtime the highest tier the CPU supports
// is selected once via CPUID; `GEOPLACE_SIMD=scalar|avx2|avx512` pins a tier
// for testing and cross-machine reproducibility (requests above what the
// hardware or the build supports clamp down, mirroring GEOPLACE_THREADS'
// leniency).
//
// The kernel contract (DESIGN.md §6): every kernel — the inf-norm family,
// the fused ADMM element-wise updates, the SELL SpMV, and the request path's
// exponential-draw kernel neg_log_div — is BIT-IDENTICAL across tiers.
#pragma once

#include <string_view>

namespace gp::linalg::simd {

/// Vectorization tiers, ordered. Numeric values are meaningful: a tier can
/// serve any request at or below it.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Highest tier the CPU supports (CPUID-probed once; kScalar off x86-64).
/// Independent of what this build compiled in — see tier_available().
Tier detected_tier();

/// True when `t` can actually execute here: the CPU supports it AND the
/// per-ISA translation unit was compiled in. kScalar is always available.
bool tier_available(Tier t);

/// The tier kernels currently dispatch to. Initialized on first use from
/// detected_tier(), clamped by GEOPLACE_SIMD when set.
Tier active_tier();

/// Pins the dispatch tier (clamped to the highest available tier <= t).
/// Returns the tier actually activated. For per-tier property tests and
/// benchmarks; the env override is the out-of-process face of this knob.
Tier set_active_tier(Tier t);

/// "scalar" | "avx2" | "avx512".
const char* tier_name(Tier t);

/// Inverse of tier_name; throws gp::Error on any other spelling.
Tier tier_from_name(std::string_view name);

}  // namespace gp::linalg::simd
