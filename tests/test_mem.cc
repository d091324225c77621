/**
 * @file
 * Unit tests for the memory substrate: page table, the RP recency
 * stack threaded through it, and the prefetch channel timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "mem/page_table.hh"
#include "mem/prefetch_channel.hh"
#include "util/random.hh"
#include "util/snapshot.hh"

namespace tlbpf
{
namespace
{

TEST(PageTable, AllocatesOnFirstTouch)
{
    PageTable pt;
    EXPECT_EQ(pt.find(42), nullptr);
    PageTableEntry &pte = pt.lookup(42);
    EXPECT_EQ(pt.size(), 1u);
    EXPECT_EQ(pt.find(42), &pte);
    EXPECT_FALSE(pte.inStack);
}

TEST(PageTable, LookupIsIdempotent)
{
    PageTable pt;
    Pfn pfn = pt.lookup(7).pfn;
    EXPECT_EQ(pt.lookup(7).pfn, pfn);
    EXPECT_EQ(pt.size(), 1u);
}

TEST(PageTable, DistinctPagesGetDistinctFrames)
{
    PageTable pt;
    EXPECT_NE(pt.lookup(1).pfn, pt.lookup(2).pfn);
}

TEST(PageTable, RecencyOverheadCountsTwoWordsPerPte)
{
    PageTable pt;
    pt.lookup(1);
    pt.lookup(2);
    EXPECT_EQ(pt.recencyOverheadBytes(), 32u);
}

TEST(PageTable, ClearDropsEverything)
{
    PageTable pt;
    pt.lookup(1);
    pt.clear();
    EXPECT_EQ(pt.size(), 0u);
    EXPECT_EQ(pt.find(1), nullptr);
}

/**
 * PageTable against a std::unordered_map model through several
 * grow()s, clear() and a snapshot round trip: lookup allocates with
 * the same frame and default links, find agrees on presence and
 * contents, unionSize counts the model union, the snapshot bytes are
 * the model's entries in ascending-VPN order, and an entry reference
 * taken before growth still names the same entry after it.
 */
TEST(PageTable, MatchesAnUnorderedMapModel)
{
    using Model = std::unordered_map<Vpn, PageTableEntry>;
    auto same = [](const PageTableEntry &a, const PageTableEntry &b) {
        return a.pfn == b.pfn && a.next == b.next && a.prev == b.prev &&
               a.inStack == b.inStack;
    };
    auto modelBytes = [](const Model &model) {
        std::vector<Vpn> vpns;
        for (const auto &[vpn, pte] : model)
            vpns.push_back(vpn);
        std::sort(vpns.begin(), vpns.end());
        SnapshotWriter out;
        out.u64(vpns.size());
        for (Vpn vpn : vpns) {
            const PageTableEntry &pte = model.at(vpn);
            out.u64(vpn);
            out.u64(pte.pfn);
            out.u64(pte.next);
            out.u64(pte.prev);
            out.boolean(pte.inStack);
        }
        return out.take();
    };
    auto snapshot = [](const PageTable &pt) {
        SnapshotWriter out;
        pt.snapshotState(out);
        return out.take();
    };
    // Keys from the families the simulator feeds it: consecutive and
    // strided pages, kernel-half pages and random 52-bit VPNs.
    Rng rng(11);
    auto drawVpn = [&rng](std::uint64_t i) -> Vpn {
        switch (i % 4) {
        case 0: return (1ull << 20) + i;
        case 1: return i << 9;
        case 2: return (0xffff800000000000ull >> 12) + 3 * i;
        default: return rng.next() >> 12;
        }
    };

    PageTable pt;
    PageTable other;
    Model model;
    Model otherModel;
    constexpr Vpn kFirst = 12345;
    PageTableEntry *early = &pt.lookup(kFirst);
    model[kFirst] = *early;
    for (int round = 0; round < 2; ++round) {
        // 10000 pages: the 1024-bucket map doubles several times.
        for (std::uint64_t i = 0; i < 10000; ++i) {
            Vpn vpn = drawVpn(i + round * 7);
            bool fresh = !model.count(vpn);
            ASSERT_EQ(pt.find(vpn) == nullptr, fresh) << vpn;
            PageTableEntry &pte = pt.lookup(vpn);
            if (fresh) {
                ASSERT_EQ(pte.pfn, mix64(vpn) & ((1ull << 40) - 1));
                ASSERT_EQ(pte.next, kNoPage);
                ASSERT_EQ(pte.prev, kNoPage);
                ASSERT_FALSE(pte.inStack);
                model[vpn] = pte;
            }
            ASSERT_TRUE(same(pte, model[vpn])) << vpn;
            if (rng.nextBelow(3) == 0) {
                pte.next = rng.next();
                pte.prev = rng.next();
                pte.inStack = rng.nextBelow(2) == 1;
                model[vpn] = pte;
            }
            ASSERT_EQ(pt.find(vpn), &pte);
            if (i % 3 == 0)
                otherModel.emplace(vpn, other.lookup(vpn));
            Vpn absent = drawVpn(i) ^ (1ull << 60);
            if (!model.count(absent)) {
                ASSERT_EQ(pt.find(absent), nullptr);
            }
        }
        ASSERT_EQ(pt.size(), model.size());
        ASSERT_EQ(&pt.lookup(kFirst), early);
        early->next = 99 + round;
        model[kFirst] = *early;
        ASSERT_EQ(pt.find(kFirst)->next, 99u + round);
        for (const auto &[vpn, pte] : model)
            ASSERT_TRUE(same(*pt.find(vpn), pte)) << vpn;

        Model both = model;
        both.insert(otherModel.begin(), otherModel.end());
        EXPECT_EQ(pt.unionSize(other), both.size());
        EXPECT_EQ(other.unionSize(pt), both.size());
        EXPECT_EQ(other.unionSize(other), otherModel.size());

        std::vector<std::uint8_t> bytes = snapshot(pt);
        ASSERT_EQ(bytes, modelBytes(model));
        for (PageTable *into : {&other, &pt}) {
            SnapshotReader in(bytes);
            into->restoreState(in);
            EXPECT_TRUE(in.atEnd());
            EXPECT_EQ(snapshot(*into), bytes);
            EXPECT_EQ(into->size(), model.size());
        }
        otherModel = model;

        // clear() keeps the pool's storage: refilled entries must
        // still start from default links.
        if (round == 0) {
            for (PageTable *table : {&pt, &other}) {
                table->clear();
                EXPECT_EQ(table->size(), 0u);
                for (const auto &[vpn, pte] : model)
                    ASSERT_EQ(table->find(vpn), nullptr);
                EXPECT_EQ(snapshot(*table), modelBytes({}));
            }
            model.clear();
            otherModel.clear();
            early = &pt.lookup(kFirst);
            EXPECT_EQ(early->next, kNoPage);
            EXPECT_FALSE(early->inStack);
            model[kFirst] = *early;
        }
    }
}

class RecencyStackTest : public ::testing::Test
{
  protected:
    PageTable pt;
    RecencyStack stack{pt};
};

TEST_F(RecencyStackTest, StartsEmpty)
{
    EXPECT_EQ(stack.top(), kNoPage);
    EXPECT_EQ(stack.linkedCount(), 0u);
}

TEST_F(RecencyStackTest, PushOnEvictionOnly)
{
    // Miss to page 1 with no TLB eviction: nothing enters the stack.
    auto res = stack.onMiss(1, kNoPage);
    EXPECT_EQ(res.numNeighbors, 0u);
    EXPECT_EQ(res.pointerOps, 0u);
    EXPECT_EQ(stack.linkedCount(), 0u);

    // Miss to page 2 evicting page 1: page 1 goes on top.
    res = stack.onMiss(2, 1);
    EXPECT_EQ(stack.top(), 1u);
    EXPECT_EQ(stack.linkedCount(), 1u);
    EXPECT_TRUE(stack.contains(1));
    EXPECT_GE(res.pointerOps, 1u);
}

TEST_F(RecencyStackTest, NeighborsReportedOnUnlink)
{
    // Build stack: evictions 1, 2, 3 (3 on top).
    stack.onMiss(100, 1);
    stack.onMiss(101, 2);
    stack.onMiss(102, 3);
    EXPECT_EQ(stack.linkedCount(), 3u);
    EXPECT_EQ(stack.top(), 3u);

    // Miss to 2 (middle of stack): neighbours are 3 (prev) and 1
    // (next); 2 leaves the stack, and evicted 102 is pushed.
    auto res = stack.onMiss(2, 102);
    ASSERT_EQ(res.numNeighbors, 2u);
    EXPECT_EQ(res.neighbors[0], 3u);
    EXPECT_EQ(res.neighbors[1], 1u);
    EXPECT_FALSE(stack.contains(2));
    EXPECT_TRUE(stack.contains(102));
    EXPECT_EQ(stack.top(), 102u);
    // Middle unlink (2 writes) + push onto non-empty stack (2 writes).
    EXPECT_EQ(res.pointerOps, 4u);
}

TEST_F(RecencyStackTest, UnlinkHeadHasOneNeighbor)
{
    stack.onMiss(100, 1);
    stack.onMiss(101, 2); // stack: 2, 1
    auto res = stack.onMiss(2, kNoPage);
    ASSERT_EQ(res.numNeighbors, 1u);
    EXPECT_EQ(res.neighbors[0], 1u);
    EXPECT_EQ(stack.top(), 1u);
}

TEST_F(RecencyStackTest, UnlinkTailHasOneNeighbor)
{
    stack.onMiss(100, 1);
    stack.onMiss(101, 2); // stack: 2, 1
    auto res = stack.onMiss(1, kNoPage);
    ASSERT_EQ(res.numNeighbors, 1u);
    EXPECT_EQ(res.neighbors[0], 2u);
}

TEST_F(RecencyStackTest, TemporalNeighborhoodPredictsRepeatedOrder)
{
    // Evict pages in the order 10, 11, 12, 13 (a scan), then miss on
    // 11: its stack neighbours are exactly its eviction-time
    // neighbours 12 and 10 — the mechanism's core bet.
    stack.onMiss(100, 10);
    stack.onMiss(101, 11);
    stack.onMiss(102, 12);
    stack.onMiss(103, 13);
    auto res = stack.onMiss(11, kNoPage);
    ASSERT_EQ(res.numNeighbors, 2u);
    EXPECT_EQ(res.neighbors[0], 12u);
    EXPECT_EQ(res.neighbors[1], 10u);
}

TEST_F(RecencyStackTest, ResetUnlinksAll)
{
    stack.onMiss(100, 1);
    stack.onMiss(101, 2);
    stack.reset();
    EXPECT_EQ(stack.top(), kNoPage);
    EXPECT_EQ(stack.linkedCount(), 0u);
    EXPECT_FALSE(stack.contains(1));
    EXPECT_FALSE(stack.contains(2));
    // Stack is usable again after reset.
    stack.onMiss(102, 3);
    EXPECT_EQ(stack.top(), 3u);
}

TEST_F(RecencyStackTest, DoublePushPanics)
{
    stack.onMiss(100, 1);
    EXPECT_DEATH(stack.onMiss(101, 1), "already in recency stack");
}

TEST(PrefetchChannel, OpsSerialise)
{
    PrefetchChannel ch(50);
    auto first = ch.issue(0, 2);
    EXPECT_EQ(first.start, 0u);
    EXPECT_EQ(first.done, 100u);
    auto second = ch.issue(10, 1); // queued behind the first batch
    EXPECT_EQ(second.start, 100u);
    EXPECT_EQ(second.done, 150u);
    EXPECT_EQ(ch.totalOps(), 3u);
}

TEST(PrefetchChannel, IdleChannelStartsImmediately)
{
    PrefetchChannel ch(50);
    ch.issue(0, 1);
    auto late = ch.issue(500, 1);
    EXPECT_EQ(late.start, 500u);
    EXPECT_EQ(late.done, 550u);
}

TEST(PrefetchChannel, BusyAt)
{
    PrefetchChannel ch(50);
    EXPECT_FALSE(ch.busyAt(0));
    ch.issue(0, 1);
    EXPECT_TRUE(ch.busyAt(0));
    EXPECT_TRUE(ch.busyAt(49));
    EXPECT_FALSE(ch.busyAt(50));
}

TEST(PrefetchChannel, BusyCyclesAccumulate)
{
    PrefetchChannel ch(50);
    ch.issue(0, 1);
    ch.issue(100, 1);
    EXPECT_EQ(ch.busyCycles(), 100u);
}

TEST(PrefetchChannel, ResetClearsState)
{
    PrefetchChannel ch(50);
    ch.issue(0, 3);
    ch.reset();
    EXPECT_EQ(ch.totalOps(), 0u);
    EXPECT_EQ(ch.busyUntil(), 0u);
    EXPECT_FALSE(ch.busyAt(0));
}

TEST(PrefetchChannel, ZeroOpsIsFree)
{
    PrefetchChannel ch(50);
    auto res = ch.issue(7, 0);
    EXPECT_EQ(res.start, res.done);
    EXPECT_FALSE(ch.busyAt(7));
}

} // namespace
} // namespace tlbpf
