// Compute-backend selection for the hot numeric paths.
//
// A backend is a *kernel tier*, selected once per process and honored by
// every dispatching kernel (tensor GEMM / depthwise conv, the ISP's
// demosaic / CCM / tone-curve, the codec 8x8 DCT, and the NN layers'
// int8 inference path):
//
//   * kScalar — the portable reference loops. The accumulation orders of
//     these loops are the repo's reference semantics; every digest
//     baseline predating backends was produced by them.
//   * kAvx2   — hand-written AVX2/FMA kernels (kernels_avx2.cpp and the
//     per-library *_avx2.cpp TUs). Different accumulation order than
//     scalar — results differ in last-ULP ways, exactly the class of
//     divergence the paper studies across SoCs.
//   * kInt8   — a quantized inference tier (tensor/int8.h): per-channel
//     weight scales, per-sample activation scales, exact saturating int32
//     accumulation, deterministic requantization. NN conv/dense/depthwise
//     inference runs on int8 kernels; all other stages use the scalar
//     tier. A distinct numeric environment, not an approximation knob.
//     Its AVX2 quantizer is exact, so it runs wherever the build and the
//     CPU have AVX2, and int8 results do not depend on the host.
//
// Contract (DESIGN.md §15 is normative): within one backend, results are
// bit-exact across runs and across --threads settings; across backends
// they are expected to diverge, and that divergence is surfaced through
// the drift/flip-ledger machinery like any other device difference.
//
// Selection: set_active_backend() (benches: --backend FLAG, falling back
// to the EDGESTAB_BACKEND environment variable). Requesting an
// unavailable tier (e.g. avx2 on a host without AVX2, or in an
// EDGESTAB_AVX2=OFF build) falls back to scalar with a stderr note —
// dispatch never crashes on a host mismatch.
#pragma once

#include <string>

namespace edgestab {

enum class BackendKind {
  kScalar,
  kAvx2,
  kInt8,
};

/// True when the AVX2 kernel TUs were compiled in (CMake EDGESTAB_AVX2
/// and a toolchain that accepts -mavx2 -mfma).
#if defined(EDGESTAB_AVX2)
inline constexpr bool kAvx2CompiledIn = true;
#else
inline constexpr bool kAvx2CompiledIn = false;
#endif

/// Canonical lower-case name ("scalar" | "avx2" | "int8").
const char* backend_name(BackendKind kind);

/// Parse a backend name; returns false (and leaves `out` untouched) on an
/// unknown name. Accepts the canonical names only.
bool parse_backend(const std::string& name, BackendKind& out);

/// Whether this process can actually run the tier: compile-time presence
/// for avx2 plus a CPUID check. kScalar and kInt8 are always available.
bool backend_available(BackendKind kind);

/// True when the host CPU reports AVX2 + FMA support.
bool cpu_supports_avx2();

/// Process-wide active backend. Defaults to kScalar. Reads are lock-free
/// and safe from worker lanes; set it before spawning parallel work (the
/// bench harness sets it once at startup, before any pool use).
BackendKind active_backend();

/// Select a backend. If the requested tier is unavailable, falls back to
/// kScalar with a stderr note and returns kScalar; otherwise returns the
/// requested kind. Returns the effective backend either way.
BackendKind set_active_backend(BackendKind kind);

/// True when the active backend is kAvx2 — the single test every
/// dispatching kernel performs. (Availability was already enforced by
/// set_active_backend, so this is just an atomic load + compare.)
bool use_avx2();

/// True when the active backend is kInt8 (NN layers consult this to
/// route inference through the quantized kernels).
bool use_int8();

}  // namespace edgestab
