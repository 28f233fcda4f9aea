// util/simd.h contract tests: every shim op is pinned lane-for-lane,
// bit-for-bit against the scalar reference semantics documented in the
// header, over the full IEEE edge-value grid (signed zeros, denormals,
// NaN, infinities), and the vectorized GridIndex radius scan is pinned
// against a brute-force reference.
#include "util/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "geo/grid_index.h"
#include "geo/point2.h"
#include "util/rng.h"

namespace mobipriv {
namespace {

using util::F64x4;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kQNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
constexpr double kMin = std::numeric_limits<double>::min();
constexpr double kMax = std::numeric_limits<double>::max();

/// The edge grid every binary op is exercised over (all pairs).
const std::vector<double>& EdgeValues() {
  static const std::vector<double> values = {
      +0.0,    -0.0,     1.0,     -1.0,    0.5,     -2.5,
      kDenorm, -kDenorm, kMin,    -kMin,   kMax,    -kMax,
      kInf,    -kInf,    kQNaN,   -kQNaN,  1e308,   -1e308,
      1e-308,  3.5,      -0.75,   1.0e16,  6371000.8};
  return values;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Lane-for-lane bitwise comparison of a shim result against 4 expected
/// scalars. Signed zeros must match exactly; when both sides are NaN the
/// lane passes — which NaN operand's sign/payload propagates through
/// arithmetic is unspecified by IEEE 754 and genuinely varies with the
/// compiler's operand order (addsd keeps the first source's NaN, and GCC
/// commutes freely), so pinning it would test register allocation, not
/// the shim. No kernel feeds NaN through arithmetic expecting a payload;
/// the contracts that matter on NaN are the quiet predicates, pinned
/// exactly below.
void ExpectLanes(F64x4 got, const double (&expect)[4], const char* op,
                 std::size_t case_index) {
  double lanes[4];
  got.Store(lanes);
  for (int k = 0; k < 4; ++k) {
    if (std::isnan(lanes[k]) && std::isnan(expect[k])) continue;
    EXPECT_EQ(Bits(lanes[k]), Bits(expect[k]))
        << op << " case " << case_index << " lane " << k << ": got "
        << lanes[k] << " want " << expect[k];
  }
}

/// Walks all pairs of edge values in groups of 4 and checks `got(a, b)`
/// against the scalar `ref(a, b)` per lane.
template <typename VecOp, typename ScalarRef>
void CheckBinaryOp(const char* name, VecOp&& got, ScalarRef&& ref) {
  const auto& edges = EdgeValues();
  std::vector<double> as, bs;
  for (double a : edges) {
    for (double b : edges) {
      as.push_back(a);
      bs.push_back(b);
    }
  }
  while (as.size() % 4 != 0) {
    as.push_back(1.0);
    bs.push_back(1.0);
  }
  for (std::size_t i = 0; i < as.size(); i += 4) {
    const F64x4 va = F64x4::Load(as.data() + i);
    const F64x4 vb = F64x4::Load(bs.data() + i);
    double expect[4];
    for (int k = 0; k < 4; ++k) expect[k] = ref(as[i + k], bs[i + k]);
    ExpectLanes(got(va, vb), expect, name, i);
  }
}

/// Same walk for unary ops.
template <typename VecOp, typename ScalarRef>
void CheckUnaryOp(const char* name, VecOp&& got, ScalarRef&& ref) {
  const auto& edges = EdgeValues();
  std::vector<double> as = edges;
  while (as.size() % 4 != 0) as.push_back(1.0);
  for (std::size_t i = 0; i < as.size(); i += 4) {
    const F64x4 va = F64x4::Load(as.data() + i);
    double expect[4];
    for (int k = 0; k < 4; ++k) expect[k] = ref(as[i + k]);
    ExpectLanes(got(va), expect, name, i);
  }
}

TEST(SimdShim, BackendIsReported) {
  // The constant must be one of the three spellings and agree with
  // kSimdEnabled; the parity CI job greps for "scalar" here.
  const std::string backend = util::kSimdBackend;
  EXPECT_TRUE(backend == "avx2" || backend == "neon" || backend == "scalar");
  EXPECT_EQ(backend != "scalar", util::kSimdEnabled);
  EXPECT_EQ(util::kSimdWidth, 4);
}

TEST(SimdShim, LoadStoreSetRoundTrip) {
  const double src[4] = {-0.0, kDenorm, kQNaN, -kInf};
  double dst[4] = {};
  F64x4::Load(src).Store(dst);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(Bits(dst[k]), Bits(src[k]));

  const F64x4 set = F64x4::Set(src[0], src[1], src[2], src[3]);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(Bits(set.Lane(k)), Bits(src[k]));

  const F64x4 ones = F64x4::Set1(-0.0);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(Bits(ones.Lane(k)), Bits(-0.0));

  const double flat[8] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  const F64x4 gathered = util::GatherAt(flat, 3);
  const double expect[4] = {4.0, 5.0, 6.0, 7.0};
  ExpectLanes(gathered, expect, "GatherAt", 0);
}

TEST(SimdShim, ArithmeticMatchesScalarBitForBit) {
  CheckBinaryOp(
      "add", [](F64x4 a, F64x4 b) { return a + b; },
      [](double a, double b) { return a + b; });
  CheckBinaryOp(
      "sub", [](F64x4 a, F64x4 b) { return a - b; },
      [](double a, double b) { return a - b; });
  CheckBinaryOp(
      "mul", [](F64x4 a, F64x4 b) { return a * b; },
      [](double a, double b) { return a * b; });
  CheckBinaryOp(
      "div", [](F64x4 a, F64x4 b) { return a / b; },
      [](double a, double b) { return a / b; });
}

TEST(SimdShim, UnaryOpsMatchScalarBitForBit) {
  CheckUnaryOp(
      "sqrt", [](F64x4 a) { return util::Sqrt(a); },
      [](double a) { return std::sqrt(a); });
  CheckUnaryOp(
      "floor", [](F64x4 a) { return util::Floor(a); },
      [](double a) { return std::floor(a); });
  CheckUnaryOp(
      "abs", [](F64x4 a) { return util::Abs(a); },
      [](double a) { return std::fabs(a); });
}

TEST(SimdShim, FmaIsSingleRounding) {
  CheckBinaryOp(
      "fma(a,b,1)",
      [](F64x4 a, F64x4 b) { return util::Fma(a, b, F64x4::Set1(1.0)); },
      [](double a, double b) { return std::fma(a, b, 1.0); });
  // The case that separates fused from unfused: a*b inexact, fma keeps
  // the low product bits that two roundings throw away.
  const double a = 1.0 + 0x1p-30;
  const double fused = std::fma(a, a, -1.0);
  const double unfused = a * a - 1.0;
  ASSERT_NE(Bits(fused), Bits(unfused));  // the distinction is real here
  EXPECT_EQ(Bits(util::Fma(F64x4::Set1(a), F64x4::Set1(a),
                           F64x4::Set1(-1.0))
                     .Lane(0)),
            Bits(fused));
}

TEST(SimdShim, MinMaxUseSecondOperandSemantics) {
  CheckBinaryOp(
      "min", [](F64x4 a, F64x4 b) { return util::Min(a, b); },
      [](double a, double b) { return a < b ? a : b; });
  CheckBinaryOp(
      "max", [](F64x4 a, F64x4 b) { return util::Max(a, b); },
      [](double a, double b) { return a > b ? a : b; });
  // Spot-check the documented asymmetries: b wins on NaN and equal zeros.
  EXPECT_EQ(Bits(util::Min(F64x4::Set1(kQNaN), F64x4::Set1(2.0)).Lane(0)),
            Bits(2.0));
  EXPECT_TRUE(std::isnan(
      util::Min(F64x4::Set1(2.0), F64x4::Set1(kQNaN)).Lane(0)));
  EXPECT_EQ(Bits(util::Min(F64x4::Set1(+0.0), F64x4::Set1(-0.0)).Lane(0)),
            Bits(-0.0));
  EXPECT_EQ(Bits(util::Min(F64x4::Set1(-0.0), F64x4::Set1(+0.0)).Lane(0)),
            Bits(+0.0));
}

TEST(SimdShim, ComparisonsAreQuietAndFullWidth) {
  const auto mask_of = [](bool p) {
    return p ? ~std::uint64_t{0} : std::uint64_t{0};
  };
  CheckBinaryOp(
      "cmple", [](F64x4 a, F64x4 b) { return util::CmpLe(a, b); },
      [&](double a, double b) {
        return std::bit_cast<double>(mask_of(a <= b));
      });
  CheckBinaryOp(
      "cmplt", [](F64x4 a, F64x4 b) { return util::CmpLt(a, b); },
      [&](double a, double b) {
        return std::bit_cast<double>(mask_of(a < b));
      });
  CheckBinaryOp(
      "cmpge", [](F64x4 a, F64x4 b) { return util::CmpGe(a, b); },
      [&](double a, double b) {
        return std::bit_cast<double>(mask_of(a >= b));
      });
}

TEST(SimdShim, MoveMaskSelectAndLogicOnMasks) {
  const F64x4 a = F64x4::Set(1.0, 5.0, kQNaN, -3.0);
  const F64x4 b = F64x4::Set(2.0, 4.0, 1.0, -3.0);
  const F64x4 le = util::CmpLe(a, b);  // lanes: T, F, F (NaN), T
  EXPECT_EQ(util::MoveMask(le), 0b1001);
  const F64x4 lt = util::CmpLt(a, b);  // lanes: T, F, F, F
  EXPECT_EQ(util::MoveMask(lt), 0b0001);

  EXPECT_EQ(util::MoveMask(util::And(le, lt)), 0b0001);
  EXPECT_EQ(util::MoveMask(util::Or(le, lt)), 0b1001);

  // The encounter scan's inverted predicate: NOT (r2 < d2) keeps lanes
  // where d2 <= r2 AND lanes where d2 is NaN — exactly the scalar
  // `if (d2 > r2) continue`.
  const F64x4 d2 = F64x4::Set(1.0, 9.0, kQNaN, 4.0);
  const F64x4 r2 = F64x4::Set1(4.0);
  const int kept = ~util::MoveMask(util::CmpLt(r2, d2)) & 0xF;
  EXPECT_EQ(kept, 0b1101);  // lane 1 (9 > 4) dropped, NaN lane kept

  const F64x4 sel = util::Select(le, F64x4::Set1(10.0), F64x4::Set1(20.0));
  const double expect[4] = {10.0, 20.0, 20.0, 10.0};
  ExpectLanes(sel, expect, "select", 0);

  // MoveMask reads sign bits on non-mask values too.
  EXPECT_EQ(util::MoveMask(F64x4::Set(-1.0, +0.0, -0.0, -kQNaN)), 0b1101);
}

TEST(GridIndexSimd, RadiusScanMatchesBruteForce) {
  // The vectorized ForEachInRadius inner loop against an O(n) reference:
  // same hit set, ascending-id visit order within each cell preserved.
  util::Rng rng(5);
  std::vector<geo::Point2> points;
  geo::GridIndex index(50.0);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const geo::Point2 p{(rng.NextDouble() - 0.5) * 400.0,
                        (rng.NextDouble() - 0.5) * 400.0};
    points.push_back(p);
    index.Insert(p, i);
  }
  const geo::Point2 center{12.5, -33.0};
  for (const double radius : {5.0, 50.0, 120.0}) {
    std::vector<std::uint64_t> got;
    index.ForEachInRadius(center, radius,
                          [&](std::uint64_t id, geo::Point2) {
                            got.push_back(id);
                          });
    std::vector<std::uint64_t> expect;
    for (std::uint64_t i = 0; i < points.size(); ++i) {
      const double dx = points[i].x - center.x;
      const double dy = points[i].y - center.y;
      if (dx * dx + dy * dy <= radius * radius) expect.push_back(i);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "radius " << radius;
    EXPECT_EQ(index.AnyWithin(center, radius), !expect.empty())
        << "radius " << radius;
  }
}

}  // namespace
}  // namespace mobipriv
