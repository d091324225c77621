/**
 * @file
 * Unit tests for the TLB and the prefetch buffer.
 */

#include <gtest/gtest.h>

#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"

namespace tlbpf
{
namespace
{

TEST(Tlb, MissThenHitAfterInsert)
{
    Tlb tlb({4, 0});
    EXPECT_FALSE(tlb.access(1));
    EXPECT_EQ(tlb.insert(1), std::nullopt);
    EXPECT_TRUE(tlb.access(1));
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_EQ(tlb.residentCount(), 1u);
}

TEST(Tlb, FullyAssociativeEvictsTrueLru)
{
    Tlb tlb({3, 0});
    tlb.insert(1);
    tlb.insert(2);
    tlb.insert(3);
    tlb.access(1); // 2 is now LRU
    auto evicted = tlb.insert(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 2u);
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_FALSE(tlb.contains(2));
}

TEST(Tlb, SetAssociativeConflictsWithinSet)
{
    // 4 entries, 2-way: 2 sets; even pages -> set 0, odd -> set 1.
    Tlb tlb({4, 2});
    tlb.insert(0);
    tlb.insert(2);
    tlb.insert(1); // odd set untouched by the evens
    auto evicted = tlb.insert(4); // third even page: evicts LRU even
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0u);
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_TRUE(tlb.contains(2));
}

TEST(Tlb, InsertIntoFreeWayEvictsNothing)
{
    Tlb tlb({4, 2});
    EXPECT_EQ(tlb.insert(0), std::nullopt);
    EXPECT_EQ(tlb.insert(2), std::nullopt);
    EXPECT_EQ(tlb.insert(1), std::nullopt);
    EXPECT_EQ(tlb.insert(3), std::nullopt);
}

TEST(Tlb, AccessRefreshesLru)
{
    Tlb tlb({2, 0});
    tlb.insert(1);
    tlb.insert(2);
    tlb.access(1);
    EXPECT_EQ(*tlb.insert(3), 2u);
}

TEST(Tlb, FlushEmptiesEverything)
{
    Tlb tlb({4, 0});
    tlb.insert(1);
    tlb.insert(2);
    tlb.flush();
    EXPECT_EQ(tlb.residentCount(), 0u);
    EXPECT_FALSE(tlb.contains(1));
    EXPECT_EQ(tlb.insert(1), std::nullopt);
}

TEST(Tlb, DoubleInsertPanics)
{
    Tlb tlb({4, 0});
    tlb.insert(1);
    EXPECT_DEATH(tlb.insert(1), "double insert");
}

// The indexed geometry catches a resident VPN without a probe of its
// own: either it is the LRU victim about to be replaced, or it sits on
// the probe chain the index walks to add the new entry.
TEST(Tlb, DoubleInsertPanicsInIndexedSets)
{
    for (TlbConfig config : {TlbConfig{128, 0}, TlbConfig{128, 32}}) {
        Tlb partial(config);
        partial.insert(5);
        partial.insert(7);
        EXPECT_DEATH(partial.insert(5), "double insert");

        Tlb full(config);
        for (Vpn vpn = 0; vpn < config.entries; ++vpn)
            full.insert(vpn);
        // Page 0 is its set's LRU entry, so it is also the victim.
        EXPECT_DEATH(full.insert(0), "double insert");
        EXPECT_TRUE(full.access(0));
        EXPECT_DEATH(full.insert(0), "double insert");
    }
}

TEST(Tlb, BadGeometryIsRejected)
{
    EXPECT_DEATH(Tlb({100, 3}), "multiple of associativity");
    EXPECT_DEATH(Tlb({96, 2}), "power of two");
}

TEST(Tlb, PaperConfigurationsConstruct)
{
    for (std::uint32_t entries : {64u, 128u, 256u}) {
        for (std::uint32_t assoc : {0u, 2u, 4u}) {
            Tlb tlb({entries, assoc});
            EXPECT_EQ(tlb.config().entries, entries);
        }
    }
}

TEST(PrefetchBuffer, HitRemovesEntry)
{
    PrefetchBuffer pb(4);
    pb.insertIfAbsent(10, 123);
    EXPECT_TRUE(pb.contains(10));
    Tick ready = 0;
    EXPECT_TRUE(pb.hitAndPromote(10, ready));
    EXPECT_EQ(ready, 123u);
    EXPECT_FALSE(pb.contains(10));
    EXPECT_FALSE(pb.hitAndPromote(10, ready));
    EXPECT_EQ(pb.hits(), 1u);
}

TEST(PrefetchBuffer, EvictsLruWhenFull)
{
    PrefetchBuffer pb(2);
    pb.insertIfAbsent(1);
    pb.insertIfAbsent(2);
    pb.insertIfAbsent(3); // evicts 1
    EXPECT_FALSE(pb.contains(1));
    EXPECT_TRUE(pb.contains(2));
    EXPECT_TRUE(pb.contains(3));
    EXPECT_EQ(pb.evictedUnused(), 1u);
    EXPECT_EQ(pb.size(), 2u);
}

TEST(PrefetchBuffer, DuplicateInsertLeavesRecencyAndReadyTimeAlone)
{
    PrefetchBuffer pb(2);
    EXPECT_TRUE(pb.insertIfAbsent(1, 100));
    EXPECT_TRUE(pb.insertIfAbsent(2, 200));
    EXPECT_FALSE(pb.insertIfAbsent(1, 500)); // 1 stays LRU
    EXPECT_TRUE(pb.insertIfAbsent(3, 300));  // evicts 1
    EXPECT_FALSE(pb.contains(1));
    EXPECT_TRUE(pb.contains(2));
    Tick ready = 0;
    EXPECT_TRUE(pb.hitAndPromote(2, ready));
    EXPECT_EQ(ready, 200u);
    // The refused duplicate is not counted as an insert.
    EXPECT_EQ(pb.inserts(), 3u);
    EXPECT_EQ(pb.evictedUnused(), 1u);
}

TEST(PrefetchBuffer, HitThenReinsertStartsAtMru)
{
    PrefetchBuffer pb(2);
    pb.insertIfAbsent(1, 100);
    pb.insertIfAbsent(2, 200);
    Tick ready = 0;
    EXPECT_TRUE(pb.hitAndPromote(1, ready)); // 1 leaves for the TLB
    EXPECT_TRUE(pb.insertIfAbsent(1, 500));  // back in, at MRU
    EXPECT_TRUE(pb.insertIfAbsent(3, 300));  // evicts 2
    EXPECT_FALSE(pb.contains(2));
    EXPECT_TRUE(pb.hitAndPromote(1, ready));
    EXPECT_EQ(ready, 500u);
    EXPECT_EQ(pb.hits(), 2u);
}

TEST(PrefetchBuffer, FlushDropsAll)
{
    PrefetchBuffer pb(4);
    pb.insertIfAbsent(1);
    pb.insertIfAbsent(2);
    pb.flush();
    EXPECT_EQ(pb.size(), 0u);
    EXPECT_FALSE(pb.contains(1));
}

TEST(PrefetchBuffer, CapacityNeverExceeded)
{
    PrefetchBuffer pb(3);
    for (Vpn v = 0; v < 100; ++v) {
        pb.insertIfAbsent(v);
        EXPECT_LE(pb.size(), 3u);
    }
    EXPECT_EQ(pb.evictedUnused(), 97u);
}

} // namespace
} // namespace tlbpf
