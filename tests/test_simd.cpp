// The data-level kernel layer (util/simd.hpp) against references computed
// here with the standard library (std::accumulate, std::minmax_element,
// std::transform_reduce, std::transform). Integer sums are exact in any
// order, so each kernel must equal its reference for every size. These
// tests randomize sizes (including lengths just off the vector widths)
// and values, and pin the empty / single-element edges and a few
// hand-checked inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace rips {
namespace {

// Sizes around the vector widths: empty, single, the widths themselves,
// one off either side, and a few larger odd lengths.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                         31, 33, 63, 100, 255, 1000, 4097};

std::vector<i64> random_i64(Rng& rng, size_t n, i64 lo, i64 hi) {
  std::vector<i64> out(n);
  const u64 span = static_cast<u64>(hi - lo) + 1;
  for (size_t i = 0; i < n; ++i) {
    out[i] = lo + static_cast<i64>(rng.next_below(span));
  }
  return out;
}

TEST(SimdKernels, SumMatchesAccumulate) {
  Rng rng(0x51D0);
  for (size_t n : kSizes) {
    for (int round = 0; round < 4; ++round) {
      const auto v = random_i64(rng, n, -1'000'000'000, 1'000'000'000);
      EXPECT_EQ(simd::sum_i64(v.data(), n),
                std::accumulate(v.begin(), v.end(), i64{0}))
          << "n=" << n;
    }
  }
}

TEST(SimdKernels, SumEdgeCases) {
  EXPECT_EQ(simd::sum_i64(nullptr, 0), 0);
  const i64 one = -7;
  EXPECT_EQ(simd::sum_i64(&one, 1), -7);
}

TEST(SimdKernels, GatherSumMatchesAccumulate) {
  Rng rng(0x51D1);
  for (size_t n : kSizes) {
    for (int round = 0; round < 4; ++round) {
      const size_t table = n + 1 + rng.next_below(64);
      const auto values = random_i64(rng, table, 0, 1'000'000);
      std::vector<TaskId> idx(n);
      for (size_t i = 0; i < n; ++i) {
        idx[i] = static_cast<TaskId>(rng.next_below(table));
      }
      const i64 want = std::accumulate(
          idx.begin(), idx.end(), i64{0},
          [&](i64 s, TaskId t) { return s + values[t]; });
      EXPECT_EQ(simd::gather_sum_i64(values.data(), idx.data(), n), want)
          << "n=" << n;
    }
  }
}

TEST(SimdKernels, SubMatchesTransform) {
  Rng rng(0x51D2);
  for (size_t n : kSizes) {
    const auto a = random_i64(rng, n, -1'000'000, 1'000'000);
    const auto b = random_i64(rng, n, -1'000'000, 1'000'000);
    std::vector<i64> got(n, 123), want(n, 456);
    simd::sub_i64(a.data(), b.data(), got.data(), n);
    std::transform(a.begin(), a.end(), b.begin(), want.begin(),
                   std::minus<i64>());
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(SimdKernels, MinMaxMatchesMinmaxElement) {
  Rng rng(0x51D3);
  for (size_t n : kSizes) {
    if (n == 0) continue;  // the kernel's empty case is pinned below
    for (int round = 0; round < 4; ++round) {
      const auto v = random_i64(rng, n, -1'000'000'000, 1'000'000'000);
      const simd::MinMax got = simd::minmax_i64(v.data(), n);
      const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      EXPECT_EQ(got.min, *lo) << "n=" << n;
      EXPECT_EQ(got.max, *hi) << "n=" << n;
    }
  }
}

TEST(SimdKernels, MinMaxEmptyIsZeroZero) {
  const simd::MinMax mm = simd::minmax_i64(nullptr, 0);
  EXPECT_EQ(mm.min, 0);
  EXPECT_EQ(mm.max, 0);
}

TEST(SimdKernels, MinMaxSingleElementAndExtremes) {
  const i64 v = std::numeric_limits<i64>::min();
  const simd::MinMax mm = simd::minmax_i64(&v, 1);
  EXPECT_EQ(mm.min, v);
  EXPECT_EQ(mm.max, v);
  const std::vector<i64> both = {std::numeric_limits<i64>::max(),
                                 std::numeric_limits<i64>::min(), 0};
  const simd::MinMax mm2 = simd::minmax_i64(both.data(), both.size());
  EXPECT_EQ(mm2.min, std::numeric_limits<i64>::min());
  EXPECT_EQ(mm2.max, std::numeric_limits<i64>::max());
}

TEST(SimdKernels, SumPosDiffMatchesTransformReduce) {
  Rng rng(0x51D4);
  for (size_t n : kSizes) {
    for (int round = 0; round < 4; ++round) {
      const auto a = random_i64(rng, n, -1'000'000, 1'000'000);
      const auto b = random_i64(rng, n, -1'000'000, 1'000'000);
      const i64 want = std::transform_reduce(
          a.begin(), a.end(), b.begin(), i64{0}, std::plus<i64>(),
          [](i64 x, i64 y) { return std::max<i64>(0, x - y); });
      EXPECT_EQ(simd::sum_pos_diff_i64(a.data(), b.data(), n), want)
          << "n=" << n;
    }
  }
}

TEST(SimdKernels, SumPosDiffOnlyCountsSurplus) {
  const std::vector<i64> a = {5, 1, 7, 2};
  const std::vector<i64> b = {3, 4, 7, 3};
  // max(0,2) + max(0,-3) + max(0,0) + max(0,-1) = 2.
  EXPECT_EQ(simd::sum_pos_diff_i64(a.data(), b.data(), a.size()), 2);
}

TEST(SimdKernels, CountNeMatchesTransformReduce) {
  Rng rng(0x51D5);
  for (size_t n : kSizes) {
    for (int round = 0; round < 4; ++round) {
      std::vector<i32> a(n), b(n);
      for (size_t i = 0; i < n; ++i) {
        a[i] = static_cast<i32>(rng.next_below(4));
        // ~half match, half differ.
        b[i] = rng.next_below(2) == 0 ? a[i] : static_cast<i32>(
                                                   rng.next_below(4)) - 8;
      }
      const i64 want = std::transform_reduce(
          a.begin(), a.end(), b.begin(), i64{0}, std::plus<i64>(),
          [](i32 x, i32 y) { return i64{x != y ? 1 : 0}; });
      EXPECT_EQ(simd::count_ne_i32(a.data(), b.data(), n), want) << "n=" << n;
    }
  }
}

// Tiny hand-checked inputs, so a kernel and a reference cannot agree on a
// wrong answer unnoticed.
TEST(SimdKernels, HandChecked) {
  const std::vector<i64> v = {3, -1, 4, 1, -5, 9};
  EXPECT_EQ(simd::sum_i64(v.data(), v.size()), 11);
  const simd::MinMax mm = simd::minmax_i64(v.data(), v.size());
  EXPECT_EQ(mm.min, -5);
  EXPECT_EQ(mm.max, 9);
  const std::vector<TaskId> idx = {5, 0, 0};
  EXPECT_EQ(simd::gather_sum_i64(v.data(), idx.data(), idx.size()), 15);
  const std::vector<i32> x = {1, 2, 3};
  const std::vector<i32> y = {1, 9, 3};
  EXPECT_EQ(simd::count_ne_i32(x.data(), y.data(), 3), 1);
}

}  // namespace
}  // namespace rips
