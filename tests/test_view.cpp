// Unit tests for mali::pk::View: layouts, extents/strides, ownership,
// fill/deep-copy, and offset arithmetic.

#include <gtest/gtest.h>

#include "portability/view.hpp"

namespace pk = mali::pk;

TEST(View, ExtentsAndSize) {
  pk::View<double, 3> v("v", 4, 5, 6);
  EXPECT_EQ(v.extent(0), 4u);
  EXPECT_EQ(v.extent(1), 5u);
  EXPECT_EQ(v.extent(2), 6u);
  EXPECT_EQ(v.extent(3), 1u);  // beyond rank
  EXPECT_EQ(v.size(), 120u);
  EXPECT_EQ(v.size_bytes(), 120u * sizeof(double));
  EXPECT_TRUE(v.allocated());
  EXPECT_EQ(v.label(), "v");
}

TEST(View, DefaultConstructedIsEmpty) {
  pk::View<int, 2> v;
  EXPECT_FALSE(v.allocated());
  EXPECT_EQ(v.size(), 0u);
}

TEST(View, ZeroInitialized) {
  pk::View<double, 2> v("v", 7, 3);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(v(i, j), 0.0);
  }
}

TEST(View, LayoutLeftStrides) {
  // Leftmost (cell) index has stride 1 — GPU-coalesced layout.
  pk::View<double, 3> v("v", 4, 5, 6);
  EXPECT_EQ(v.stride(0), 1u);
  EXPECT_EQ(v.stride(1), 4u);
  EXPECT_EQ(v.stride(2), 20u);
  EXPECT_EQ(&v(1, 0, 0) - &v(0, 0, 0), 1);
  EXPECT_EQ(&v(0, 1, 0) - &v(0, 0, 0), 4);
  EXPECT_EQ(&v(0, 0, 1) - &v(0, 0, 0), 20);
}

TEST(View, LayoutRightStrides) {
  pk::View<double, 3, pk::LayoutRight> v("v", 4, 5, 6);
  EXPECT_EQ(v.stride(0), 30u);
  EXPECT_EQ(v.stride(1), 6u);
  EXPECT_EQ(v.stride(2), 1u);
}

TEST(View, OffsetMatchesAddress) {
  pk::View<float, 4> v("v", 3, 4, 5, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 5; ++k) {
        for (std::size_t l = 0; l < 2; ++l) {
          EXPECT_EQ(v.data() + v.offset_of(i, j, k, l), &v(i, j, k, l));
        }
      }
    }
  }
}

TEST(View, OffsetsAreUnique) {
  pk::View<int, 3> v("v", 3, 4, 5);
  std::vector<bool> seen(v.size(), false);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 5; ++k) {
        const std::size_t off = v.offset_of(i, j, k);
        ASSERT_LT(off, v.size());
        EXPECT_FALSE(seen[off]);
        seen[off] = true;
      }
    }
  }
}

TEST(View, SharedOwnership) {
  pk::View<double, 1> a("a", 10);
  pk::View<double, 1> b = a;  // shallow copy, Kokkos semantics
  b(3) = 42.0;
  EXPECT_EQ(a(3), 42.0);
  EXPECT_TRUE(a.same_data(b));
}

TEST(View, Fill) {
  pk::View<double, 2> v("v", 3, 3);
  v.fill(2.5);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v.data()[i], 2.5);
}

TEST(View, DeepCopy) {
  pk::View<double, 2> a("a", 3, 4);
  pk::View<double, 2> b("b", 3, 4);
  a.fill(1.5);
  b.deep_copy_from(a);
  EXPECT_FALSE(a.same_data(b));
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b.data()[i], 1.5);
}

TEST(View, DeepCopySizeMismatchThrows) {
  pk::View<double, 1> a("a", 3);
  pk::View<double, 1> b("b", 4);
  EXPECT_THROW(b.deep_copy_from(a), mali::Error);
}

TEST(View, DeepCopyIsIndependentOfSource) {
  pk::View<double, 2> a("a", 3, 4);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = 10.0 * i + j;
  }
  pk::View<double, 2> b("b", 3, 4);
  b.deep_copy_from(a);
  a.fill(-1.0);  // later writes to the source must not reach the copy
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(b(i, j), 10.0 * i + j);
  }
  EXPECT_EQ(b.label(), "b");
}

TEST(View, DeepCopyRejectsPartialWindow) {
  // A partial cell window is strided in its parent's allocation, so a flat
  // copy into or out of it would touch the wrong elements.
  pk::View<double, 2> v("v", 6, 2);
  pk::View<double, 2> small("small", 2, 2);
  const auto part = v.window(1, 2);
  EXPECT_THROW(part.deep_copy_from(small), mali::Error);
  EXPECT_THROW(small.deep_copy_from(part), mali::Error);
  pk::View<double, 2> full_src("src", 6, 2);
  full_src.fill(4.0);
  v.window(0, 6).deep_copy_from(full_src);  // full window is contiguous
  EXPECT_EQ(v(5, 1), 4.0);
}

// Parameterized sweep: round-trip index <-> offset for many shapes.
class ViewShapeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ViewShapeTest, RowColumnRoundTrip) {
  const auto [rows, cols] = GetParam();
  pk::View<int, 2> v("v", rows, cols);
  int counter = 0;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) v(i, j) = counter++;
  }
  counter = 0;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) EXPECT_EQ(v(i, j), counter++);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ViewShapeTest,
                         ::testing::Combine(::testing::Values(1, 2, 7, 16),
                                            ::testing::Values(1, 3, 8, 33)));
