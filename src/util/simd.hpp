// Data-level kernel layer: the handful of flat-array sweeps that dominate
// the engine's hot paths (drain-sum gathers, MWA row/delta arithmetic,
// monitor conservation scans) live here as free functions over raw
// pointers.
//
// Layout rules (see docs/PERFORMANCE.md "Data-level kernels"):
//   * Kernels take restrict-qualified pointers + a length — no strides, no
//     AoS. Call sites are responsible for keeping state in flat arrays
//     (structure-of-arrays) so a kernel is a single linear or gather pass.
//   * All arithmetic is integer (i64/i32). Integer addition is associative,
//     so any order of summation, the vectorizer's included, gives the same
//     bits — which is what keeps the drain-sum pass and the BENCH_* JSON
//     bit-identical.
//   * Each kernel is one plain loop. The build's -ftree-vectorize and
//     -fvect-cost-model=dynamic flags (CMakeLists.txt) let the compiler
//     vectorize them at -O2: g++ 12 on the default x86-64 target
//     vectorizes sum, gather, sub and count_ne; minmax and sum_pos_diff
//     need a 64-bit compare that SSE2 lacks and stay scalar.
#pragma once

#include <cstddef>

#include "util/types.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define RIPS_RESTRICT __restrict__
#else
#define RIPS_RESTRICT
#endif

namespace rips::simd {

struct MinMax {
  i64 min;
  i64 max;
};

inline i64 sum_i64(const i64* RIPS_RESTRICT v, size_t n) {
  i64 s = 0;
  for (size_t i = 0; i < n; ++i) s += v[i];
  return s;
}

/// sum of values[idx[i]] — the drain-sum measuring pass (gather over the
/// task ids sitting on a queue) and weighted load collection.
inline i64 gather_sum_i64(const i64* RIPS_RESTRICT values,
                          const TaskId* RIPS_RESTRICT idx, size_t n) {
  i64 s = 0;
  for (size_t i = 0; i < n; ++i) s += values[idx[i]];
  return s;
}

/// out[i] = a[i] - b[i] — the MWA surplus vector delta = w - q.
inline void sub_i64(const i64* RIPS_RESTRICT a, const i64* RIPS_RESTRICT b,
                    i64* RIPS_RESTRICT out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

/// min/max over v (n == 0 returns {0, 0} — callers treat empty as "flat").
inline MinMax minmax_i64(const i64* RIPS_RESTRICT v, size_t n) {
  if (n == 0) return {0, 0};
  i64 lo = v[0];
  i64 hi = v[0];
  for (size_t i = 1; i < n; ++i) {
    if (v[i] < lo) lo = v[i];
    if (v[i] > hi) hi = v[i];
  }
  return {lo, hi};
}

/// sum of max(0, a[i] - b[i]) — the Theorem-2 minimum task-movement bound
/// (total surplus above quota).
inline i64 sum_pos_diff_i64(const i64* RIPS_RESTRICT a,
                            const i64* RIPS_RESTRICT b, size_t n) {
  i64 s = 0;
  for (size_t i = 0; i < n; ++i) {
    const i64 d = a[i] - b[i];
    if (d > 0) s += d;
  }
  return s;
}

/// count of positions where a[i] != b[i] — non-local execution accounting
/// (exec_node vs origin sweeps).
inline i64 count_ne_i32(const i32* RIPS_RESTRICT a, const i32* RIPS_RESTRICT b,
                        size_t n) {
  i64 c = 0;
  for (size_t i = 0; i < n; ++i) c += a[i] != b[i] ? 1 : 0;
  return c;
}

}  // namespace rips::simd
