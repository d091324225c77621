/**
 * @file
 * Unit tests for the utility substrate: logging, RNG, bit helpers,
 * CLI parsing, CSV quoting, the ASCII table printer, and the
 * TLBPF_DCHECK invariant layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/bits.hh"
#include "util/check.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table_printer.hh"

namespace tlbpf
{
namespace
{

TEST(Logging, WarnIncrementsCounter)
{
    auto before = Logger::instance().warnCount();
    tlbpf_warn("test warning ", 42);
    EXPECT_EQ(Logger::instance().warnCount(), before + 1);
}

TEST(Logging, FormatConcatenatesArguments)
{
    EXPECT_EQ(detail::format("a", 1, "-", 2.5), "a1-2.5");
    EXPECT_EQ(detail::format(), "");
}

TEST(Logging, AssertFiresOnFalse)
{
    EXPECT_DEATH({ tlbpf_assert(1 == 2, "math broke"); }, "math broke");
}

TEST(Logging, FatalExitsWithCodeOne)
{
    EXPECT_EXIT({ tlbpf_fatal("bad config"); },
                ::testing::ExitedWithCode(1), "bad config");
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversSmallRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.nextBelow(4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(13);
    bool hit_lo = false;
    bool hit_hi = false;
    for (int i = 0; i < 500; ++i) {
        std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo = hit_lo || v == -3;
        hit_hi = hit_hi || v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(23);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(orig.begin(), orig.end());
    EXPECT_EQ(a, b);
}

TEST(Zipf, SamplesInRange)
{
    Rng rng(31);
    ZipfSampler zipf(100, 0.9);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(zipf.sample(rng), 100u);
}

TEST(Zipf, LowRanksMorePopular)
{
    Rng rng(37);
    ZipfSampler zipf(1000, 0.9);
    std::uint64_t low = 0;
    std::uint64_t high = 0;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t r = zipf.sample(rng);
        low += r < 10;
        high += r >= 500;
    }
    EXPECT_GT(low, high);
}

TEST(Bits, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo((1ull << 40) + 1));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(Bits, ZigZagRoundTrip)
{
    for (std::int64_t v :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
          std::int64_t{2}, std::int64_t{-2}, std::int64_t{1000000},
          std::int64_t{-1000000}, std::int64_t{INT64_MAX / 2},
          std::int64_t{INT64_MIN / 2}})
        EXPECT_EQ(zigZagDecode(zigZagEncode(v)), v);
}

TEST(Bits, ZigZagSmallMagnitudesGetSmallCodes)
{
    EXPECT_EQ(zigZagEncode(0), 0u);
    EXPECT_EQ(zigZagEncode(-1), 1u);
    EXPECT_EQ(zigZagEncode(1), 2u);
    EXPECT_EQ(zigZagEncode(-2), 3u);
    EXPECT_EQ(zigZagEncode(2), 4u);
}

/**
 * Successful-lookup probe lengths when @p keys are linearly probed
 * into 2^@p bits buckets by hashBucket: {mean, max}.
 */
std::pair<double, std::size_t>
probeLengths(const std::vector<std::uint64_t> &keys, unsigned bits)
{
    std::size_t mask = (std::size_t{1} << bits) - 1;
    std::vector<bool> used(mask + 1, false);
    std::size_t total = 0;
    std::size_t longest = 0;
    for (std::uint64_t key : keys) {
        std::size_t b = hashBucket(key, bits);
        EXPECT_LE(b, mask) << "key " << key << " bits " << bits;
        std::size_t len = 1;
        for (; used[b & mask]; ++b)
            ++len;
        used[b & mask] = true;
        total += len;
        longest = std::max(longest, len);
    }
    return {static_cast<double>(total) / keys.size(), longest};
}

// The key families the simulator's indexes see: consecutive VPNs,
// power-of-two strides, page-aligned kernel-half addresses and
// zigzagged signed distances.  Taking the product's low bits instead
// of its high bits piles a 2^k stride into 2^(bits-k) buckets, and
// every stride of 2^bits or more into one.
TEST(Bits, HashBucketSpreadsStructuredKeys)
{
    for (unsigned bits : {9u, 10u, 12u, 14u}) {
        for (std::size_t load_div : {4u, 2u}) {
            std::size_t n = (std::size_t{1} << bits) / load_div;
            std::vector<std::pair<std::string, std::vector<std::uint64_t>>>
                families;
            auto family = [&](std::string name, auto key_of) {
                std::vector<std::uint64_t> keys;
                for (std::size_t i = 0; i < n; ++i)
                    keys.push_back(key_of(static_cast<std::int64_t>(i)));
                families.emplace_back(std::move(name), std::move(keys));
            };
            family("consecutive VPNs",
                   [](std::int64_t i) { return (1ull << 20) + i; });
            for (unsigned k = 1; k <= 40; ++k)
                family("stride 2^" + std::to_string(k),
                       [k](std::int64_t i) {
                           return static_cast<std::uint64_t>(i) << k;
                       });
            family("high-half pages", [](std::int64_t i) {
                return 0xffff800000000000ull +
                       (static_cast<std::uint64_t>(i) << 12);
            });
            family("zigzag distances", [n](std::int64_t i) {
                return zigZagEncode(i - static_cast<std::int64_t>(n / 2));
            });
            // Uniform hashing averages 1.17 probes at load 1/4 and 1.5
            // at 1/2; the bounds leave room for the lattice effects of
            // multiplicative hashing on a few strides.
            double mean_bound = load_div == 4 ? 2.5 : 4.0;
            std::size_t max_bound = load_div == 4 ? 16 : 32;
            for (const auto &[name, keys] : families) {
                auto [mean, longest] = probeLengths(keys, bits);
                EXPECT_LE(mean, mean_bound)
                    << name << ", 2^" << bits << " buckets, load 1/"
                    << load_div;
                EXPECT_LE(longest, max_bound)
                    << name << ", 2^" << bits << " buckets, load 1/"
                    << load_div;
            }
        }
    }
}

TEST(Bits, DivisorMatchesHardwareDivision)
{
    std::vector<std::uint64_t> divisors = {
        1, 2, 3, 5, 7, 24, 40, 64, 100, 4095, 4096, 4097,
        (1ull << 32) - 1, 1ull << 32, (1ull << 32) + 1, 1ull << 63,
        (1ull << 63) + 1, UINT64_MAX - 1, UINT64_MAX};
    Rng rng(7);
    for (int i = 0; i < 200; ++i)
        divisors.push_back(rng.next() >> rng.nextBelow(64));
    std::vector<std::uint64_t> dividends = {
        0, 1, 2, 3, 4095, 4096, 4097, UINT32_MAX, 1ull << 32,
        1ull << 63, UINT64_MAX - 1, UINT64_MAX};
    for (int i = 0; i < 200; ++i)
        dividends.push_back(rng.next() >> rng.nextBelow(64));
    for (std::uint64_t d : divisors) {
        if (d == 0)
            continue;
        Divisor div(d);
        for (std::uint64_t n : dividends) {
            EXPECT_EQ(div.quotient(n), n / d) << n << " / " << d;
            // Around every multiple of d, where a rounding error shows.
            std::uint64_t q = n / d;
            for (std::uint64_t m : {q * d, q * d - 1, q * d + d - 1})
                ASSERT_EQ(div.quotient(m), m / d) << m << " / " << d;
        }
    }
}

TEST(Cli, ParsesEqualsAndSpaceForms)
{
    const char *argv[] = {"prog", "--refs=100", "--app", "mcf", "pos"};
    CliArgs args(5, argv, {"refs", "app"});
    EXPECT_EQ(args.getInt("refs", 0), 100);
    EXPECT_EQ(args.get("app"), "mcf");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Cli, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    CliArgs args(1, argv, {"refs"});
    EXPECT_FALSE(args.has("refs"));
    EXPECT_EQ(args.getInt("refs", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("refs", 2.5), 2.5);
    EXPECT_EQ(args.get("refs", "x"), "x");
}

TEST(Cli, UnknownOptionIsFatal)
{
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT({ CliArgs args(2, argv, {"refs"}); },
                ::testing::ExitedWithCode(1), "unknown option");
}

TEST(Cli, BadIntegerIsFatal)
{
    const char *argv[] = {"prog", "--refs=abc"};
    EXPECT_EXIT(
        {
            CliArgs args(2, argv, {"refs"});
            args.getInt("refs", 0);
        },
        ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(Cli, ParseIntList)
{
    auto v = parseIntList("32,64,128");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 32);
    EXPECT_EQ(v[2], 128);
    EXPECT_TRUE(parseIntList("").empty());
}

TEST(Cli, ParseStringList)
{
    auto v = parseStringList("a,b,,c");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1], "b");
}

TEST(Csv, QuotesOnlyWhenNeeded)
{
    EXPECT_EQ(CsvWriter::quote("plain"), "plain");
    EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream oss;
    table.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(TablePrinter, NumFormatting)
{
    EXPECT_EQ(TablePrinter::num(0.1234, 2), "0.12");
    EXPECT_EQ(TablePrinter::num(static_cast<std::int64_t>(-7)), "-7");
}

TEST(TablePrinter, ArityMismatchPanics)
{
    TablePrinter table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "row arity");
}

// ------------------------------------- TLBPF_DCHECK invariant layer

TEST(Check, PassingChecksAreSilent)
{
    ScopedCheckFailThrow guard;
    TLBPF_DCHECK(1 + 1 == 2);
    TLBPF_DCHECK_MSG(true, "never formatted");
}

/**
 * The compiled-out form must not evaluate its condition (so a DCHECK
 * can never perturb Release behavior); the compiled-in form must.
 */
TEST(Check, ConditionEvaluationMatchesBuildFlavor)
{
    int evaluations = 0;
    TLBPF_DCHECK((++evaluations, true));
    EXPECT_EQ(evaluations, dchecksEnabled() ? 1 : 0);
}

TEST(Check, FailureCarriesExpressionMessageAndLocation)
{
    if (!dchecksEnabled())
        GTEST_SKIP() << "TLBPF_DCHECK is compiled out of this build";
    ScopedCheckFailThrow guard;
    try {
        TLBPF_DCHECK_MSG(2 + 2 == 5, "math is ", "broken");
        FAIL() << "the check never fired";
    } catch (const CheckFailure &failure) {
        std::string what = failure.what();
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
        EXPECT_NE(what.find("math is broken"), std::string::npos)
            << what;
        EXPECT_NE(what.find("test_util.cc"), std::string::npos) << what;
    }
}

TEST(Check, ScopedThrowRestoresThePreviousHandlerOnExit)
{
    if (!dchecksEnabled())
        GTEST_SKIP() << "TLBPF_DCHECK is compiled out of this build";
    {
        ScopedCheckFailThrow outer;
        {
            ScopedCheckFailThrow inner;
            EXPECT_THROW(TLBPF_DCHECK(false), CheckFailure);
        }
        // The outer scope's throwing handler is back in place.
        EXPECT_THROW(TLBPF_DCHECK(false), CheckFailure);
    }
}

} // namespace
} // namespace tlbpf
