/**
 * @file
 * Unit tests for the histogram package.
 */

#include <gtest/gtest.h>

#include "stats/histogram.hh"

namespace tlbpf
{
namespace
{

TEST(SparseHistogram, CountsAndTotal)
{
    SparseHistogram h;
    h.sample(5);
    h.sample(5);
    h.sample(-3);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.countOf(5), 2u);
    EXPECT_EQ(h.countOf(-3), 1u);
    EXPECT_EQ(h.countOf(99), 0u);
    EXPECT_EQ(h.distinct(), 2u);
}

TEST(SparseHistogram, TopKOrdering)
{
    SparseHistogram h;
    h.sample(1, 5);
    h.sample(2, 10);
    h.sample(3, 1);
    auto top = h.topK(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].first, 2);
    EXPECT_EQ(top[1].first, 1);
}

TEST(SparseHistogram, Coverage)
{
    SparseHistogram h;
    h.sample(1, 80);
    h.sample(2, 20);
    EXPECT_DOUBLE_EQ(h.coverage(1), 0.8);
    EXPECT_DOUBLE_EQ(h.coverage(2), 1.0);
    h.reset();
    EXPECT_DOUBLE_EQ(h.coverage(1), 0.0);
}

TEST(BucketHistogram, BucketsAndOverflow)
{
    BucketHistogram h(10, 4); // [0,10) [10,20) [20,30) [30,40)
    h.sample(0);
    h.sample(9);
    h.sample(15);
    h.sample(100);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(BucketHistogram, Mean)
{
    BucketHistogram h(10, 10);
    h.sample(10);
    h.sample(20);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(BucketHistogram, Quantile)
{
    BucketHistogram h(10, 10);
    for (int i = 0; i < 90; ++i)
        h.sample(5);
    for (int i = 0; i < 10; ++i)
        h.sample(55);
    EXPECT_LE(h.quantile(0.5), 9u);
    EXPECT_GE(h.quantile(0.99), 50u);
}

TEST(BucketHistogram, ResetClears)
{
    BucketHistogram h(10, 2);
    h.sample(5);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

} // namespace
} // namespace tlbpf
