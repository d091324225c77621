/**
 * @file
 * Unit and parameterised tests for the generic prediction table and
 * the per-row SlotLru payload, plus a differential test of the
 * indexed wide-set path against a linear-scan reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/prediction_table.hh"
#include "util/random.hh"

namespace tlbpf
{
namespace
{

struct Payload
{
    int value = 0;
};

TEST(PredictionTable, MissThenHit)
{
    PredictionTable<Payload> table({8, TableAssoc::Direct});
    EXPECT_EQ(table.find(5), nullptr);
    table.findOrInsert(5).value = 7;
    Payload *p = table.find(5);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->value, 7);
    EXPECT_EQ(table.hits(), 1u);
    EXPECT_EQ(table.misses(), 1u);
}

TEST(PredictionTable, DirectMappedConflictEvicts)
{
    PredictionTable<Payload> table({4, TableAssoc::Direct});
    table.findOrInsert(1).value = 10;
    table.findOrInsert(5).value = 50; // 5 % 4 == 1: same row
    EXPECT_EQ(table.find(1), nullptr);
    ASSERT_NE(table.find(5), nullptr);
    EXPECT_EQ(table.find(5)->value, 50);
    EXPECT_EQ(table.evictions(), 1u);
}

TEST(PredictionTable, TwoWayHoldsConflictingPair)
{
    PredictionTable<Payload> table({4, TableAssoc::TwoWay}); // 2 sets
    table.findOrInsert(0).value = 1;
    table.findOrInsert(2).value = 2; // 2 % 2 == 0: same set, way 2
    EXPECT_NE(table.find(0), nullptr);
    EXPECT_NE(table.find(2), nullptr);
    table.findOrInsert(4).value = 3; // evicts LRU of set 0
    EXPECT_EQ(table.occupancy(), 2u);
}

TEST(PredictionTable, SetLruRespectsAccessOrder)
{
    PredictionTable<Payload> table({4, TableAssoc::TwoWay});
    table.findOrInsert(0);
    table.findOrInsert(2);
    table.find(0);           // 2 becomes LRU in set 0
    table.findOrInsert(4);   // evicts 2
    EXPECT_NE(table.find(0), nullptr);
    EXPECT_EQ(table.find(2), nullptr);
    EXPECT_NE(table.find(4), nullptr);
}

TEST(PredictionTable, FullyAssociativeUsesAllRows)
{
    PredictionTable<Payload> table({4, TableAssoc::Full});
    for (std::uint64_t k = 0; k < 4; ++k)
        table.findOrInsert(k * 4); // all alias to set 0 in D mapping
    EXPECT_EQ(table.occupancy(), 4u);
    EXPECT_EQ(table.evictions(), 0u);
    table.findOrInsert(100);
    EXPECT_EQ(table.evictions(), 1u);
}

TEST(PredictionTable, PeekDoesNotDisturbState)
{
    PredictionTable<Payload> table({4, TableAssoc::Direct});
    table.findOrInsert(1);
    std::uint64_t hits = table.hits();
    EXPECT_NE(table.peek(1), nullptr);
    EXPECT_EQ(table.peek(3), nullptr);
    EXPECT_EQ(table.hits(), hits);
}

TEST(PredictionTable, ResetClearsRowsAndCounters)
{
    PredictionTable<Payload> table({4, TableAssoc::Direct});
    table.findOrInsert(1);
    table.reset();
    EXPECT_EQ(table.occupancy(), 0u);
    EXPECT_EQ(table.find(1), nullptr);
    EXPECT_EQ(table.hits(), 0u);
    EXPECT_EQ(table.misses(), 0u); // plain find() never counts misses
}

TEST(PredictionTable, ReinsertAfterEvictionGetsFreshPayload)
{
    PredictionTable<Payload> table({2, TableAssoc::Direct});
    table.findOrInsert(0).value = 99;
    table.findOrInsert(2); // evicts key 0
    EXPECT_EQ(table.findOrInsert(0).value, 0);
}

/** Geometry sweep: the invariants must hold for every paper config. */
class TableGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 TableAssoc>>
{
};

TEST_P(TableGeometry, OccupancyBoundedAndKeysFindable)
{
    auto [rows, assoc] = GetParam();
    PredictionTable<Payload> table({rows, assoc});
    // Insert 4x the capacity with scattered keys.
    for (std::uint64_t k = 0; k < rows * 4ull; ++k) {
        table.findOrInsert(k * 7 + 1).value = static_cast<int>(k);
        EXPECT_LE(table.occupancy(), rows);
    }
    // A freshly inserted key is immediately findable.
    table.findOrInsert(999999).value = -1;
    ASSERT_NE(table.find(999999), nullptr);
    EXPECT_EQ(table.find(999999)->value, -1);
}

TEST_P(TableGeometry, WaysMatchAssoc)
{
    auto [rows, assoc] = GetParam();
    TableConfig config{rows, assoc};
    if (assoc == TableAssoc::Full) {
        EXPECT_EQ(config.ways(), rows);
        EXPECT_EQ(config.numSets(), 1u);
    } else {
        EXPECT_EQ(config.ways(), static_cast<std::uint32_t>(assoc));
        EXPECT_EQ(config.numSets() * config.ways(), rows);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, TableGeometry,
    ::testing::Combine(::testing::Values(32u, 64u, 128u, 256u, 512u,
                                         1024u),
                       ::testing::Values(TableAssoc::Direct,
                                         TableAssoc::TwoWay,
                                         TableAssoc::FourWay,
                                         TableAssoc::Full)));

/**
 * The table's contract as a plain linear scan: every lookup walks the
 * key's set, and the victim is the first free way, else the way with
 * the smallest use clock.  It serializes the same byte format, so the
 * real table's snapshots can be compared against it byte for byte.
 */
class ScanTable
{
  public:
    explicit ScanTable(const TableConfig &config)
        : _config(config), _rows(config.rows)
    {
    }

    Payload *
    find(std::uint64_t key)
    {
        Row *row = findRow(key);
        if (!row)
            return nullptr;
        row->lastUse = ++_clock;
        ++_hits;
        return &row->payload;
    }

    const Payload *
    peek(std::uint64_t key)
    {
        Row *row = findRow(key);
        return row ? &row->payload : nullptr;
    }

    Payload &
    findOrInsert(std::uint64_t key)
    {
        if (Payload *p = find(key))
            return *p;
        ++_misses;
        Row *victim = nullptr;
        for (std::size_t w = 0; w < _config.ways(); ++w) {
            Row &row = _rows[base(key) + w];
            if (!row.valid) {
                victim = &row;
                break;
            }
            if (!victim || row.lastUse < victim->lastUse)
                victim = &row;
        }
        if (victim->valid)
            ++_evictions;
        *victim = Row{key, ++_clock, true, Payload{}};
        return victim->payload;
    }

    void
    reset()
    {
        for (Row &row : _rows)
            row.valid = false;
        _clock = _hits = _misses = _evictions = 0;
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }

    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const Row &row : _rows)
            n += row.valid ? 1 : 0;
        return n;
    }

    std::vector<std::uint8_t>
    snapshot() const
    {
        SnapshotWriter out;
        out.u64(_clock);
        out.u64(_hits);
        out.u64(_misses);
        out.u64(_evictions);
        out.u64(_rows.size());
        for (const Row &row : _rows) {
            out.boolean(row.valid);
            if (!row.valid)
                continue;
            out.u64(row.key);
            out.u64(row.lastUse);
            out.u64(static_cast<std::uint64_t>(row.payload.value));
        }
        return out.take();
    }

  private:
    struct Row
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        Payload payload{};
    };

    std::size_t
    base(std::uint64_t key) const
    {
        return (key & (_config.numSets() - 1)) * _config.ways();
    }

    Row *
    findRow(std::uint64_t key)
    {
        for (std::size_t w = 0; w < _config.ways(); ++w) {
            Row &row = _rows[base(key) + w];
            if (row.valid && row.key == key)
                return &row;
        }
        return nullptr;
    }

    TableConfig _config;
    std::vector<Row> _rows;
    std::uint64_t _clock = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

std::vector<std::uint8_t>
snapshotOf(const PredictionTable<Payload> &table)
{
    SnapshotWriter out;
    table.snapshotState(out, [](SnapshotWriter &w, const Payload &p) {
        w.u64(static_cast<std::uint64_t>(p.value));
    });
    return out.take();
}

void
restoreInto(PredictionTable<Payload> &table,
            const std::vector<std::uint8_t> &bytes)
{
    SnapshotReader in(bytes);
    table.restoreState(in, [](SnapshotReader &r, Payload &p) {
        p.value = static_cast<int>(r.u64());
    });
    ASSERT_TRUE(in.atEnd());
}

/** Compare a returned row against the model's: both absent, or equal. */
void
expectSameRow(const Payload *got, const Payload *want)
{
    ASSERT_EQ(got == nullptr, want == nullptr);
    if (got) {
        EXPECT_EQ(got->value, want->value);
    }
}

class WideSetDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 TableAssoc>>
{
};

/**
 * Seeded random find/findOrInsert/peek/reset sequences, with a
 * snapshot restored into a fresh table mid-sequence: the indexed
 * table must match the scan model at every step, counters, occupancy
 * and snapshot bytes included.
 */
TEST_P(WideSetDifferential, MatchesLinearScanModel)
{
    auto [rows, assoc] = GetParam();
    const TableConfig config{rows, assoc};
    // Long enough to fill the widest table and keep evicting.
    const std::uint64_t steps = std::max<std::uint64_t>(3000, 12ull * rows);
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        Rng rng(seed * 7919 + rows);
        auto table = std::make_unique<PredictionTable<Payload>>(config);
        ScanTable model(config);
        // Twice the capacity: hits, fills and evictions all occur.
        const std::uint64_t key_space = 2ull * rows;
        bool evicted = false;
        for (std::uint64_t step = 0; step < steps; ++step) {
            SCOPED_TRACE(::testing::Message()
                         << "rows " << rows << " assoc "
                         << assocLabel(assoc) << " seed " << seed
                         << " step " << step);
            std::uint64_t key = rng.nextBelow(key_space) * 3 + 1;
            // About 1.5 resets per sequence, so tables refill.
            std::uint64_t op = rng.nextBelow(2 * steps) < 3
                                   ? 100
                                   : rng.nextBelow(100);
            if (op < 45) {
                int value = static_cast<int>(rng.nextBelow(1000));
                Payload &got = table->findOrInsert(key);
                Payload &want = model.findOrInsert(key);
                ASSERT_EQ(got.value, want.value);
                got.value = want.value = value;
            } else if (op < 80) {
                expectSameRow(table->find(key), model.find(key));
            } else if (op < 100) {
                expectSameRow(table->peek(key), model.peek(key));
            } else {
                table->reset();
                model.reset();
            }
            if (step == steps / 2) {
                auto fresh =
                    std::make_unique<PredictionTable<Payload>>(config);
                restoreInto(*fresh, snapshotOf(*table));
                table = std::move(fresh);
            }
            ASSERT_EQ(table->hits(), model.hits());
            ASSERT_EQ(table->misses(), model.misses());
            ASSERT_EQ(table->evictions(), model.evictions());
            ASSERT_EQ(table->occupancy(), model.occupancy());
            ASSERT_EQ(snapshotOf(*table), model.snapshot());
            evicted = evicted || model.evictions() > 0;
        }
        EXPECT_TRUE(evicted) << "sequence never filled the table";
    }
}

INSTANTIATE_TEST_SUITE_P(
    FullAndControl, WideSetDifferential,
    ::testing::Values(std::make_tuple(16u, TableAssoc::Full),
                      std::make_tuple(32u, TableAssoc::Full),
                      std::make_tuple(256u, TableAssoc::Full),
                      std::make_tuple(1024u, TableAssoc::Full),
                      std::make_tuple(64u, TableAssoc::FourWay)));

/**
 * Hand-built table checkpoint: the header, then (valid, key) per
 * row, -1 marking an empty row, each valid row with use clock
 * 1, 2, ... and a zero payload.
 */
std::vector<std::uint8_t>
checkpointWithKeys(const std::vector<std::int64_t> &keys)
{
    SnapshotWriter out;
    out.u64(keys.size()); // clock
    out.u64(0);
    out.u64(keys.size());
    out.u64(0);
    out.u64(keys.size());
    std::uint64_t clock = 0;
    for (std::int64_t key : keys) {
        out.boolean(key >= 0);
        if (key < 0)
            continue;
        out.u64(static_cast<std::uint64_t>(key));
        out.u64(++clock);
        out.u64(0);
    }
    return out.take();
}

TEST(PredictionTableRestore, AcceptsWellFormedCheckpoint)
{
    // 8 rows, 4-way: set 0 holds even keys, set 1 odd keys.
    PredictionTable<Payload> table({8, TableAssoc::FourWay});
    restoreInto(table, checkpointWithKeys({2, 4, -1, -1, 1, -1, -1, -1}));
    EXPECT_EQ(table.occupancy(), 3u);
    EXPECT_NE(table.peek(4), nullptr);
}

TEST(PredictionTableRestore, RejectsDuplicateKey)
{
    PredictionTable<Payload> narrow({8, TableAssoc::FourWay});
    EXPECT_THROW(restoreInto(narrow, checkpointWithKeys(
                                         {2, 2, -1, -1, -1, -1, -1, -1})),
                 std::invalid_argument);
    std::vector<std::int64_t> keys(32, -1);
    keys[3] = 77;
    keys[20] = 77;
    PredictionTable<Payload> wide({32, TableAssoc::Full});
    EXPECT_THROW(restoreInto(wide, checkpointWithKeys(keys)),
                 std::invalid_argument);
}

TEST(PredictionTableRestore, RejectsKeyInWrongSet)
{
    // Key 3 is odd, so it belongs in set 1 (rows 4-7), not set 0.
    PredictionTable<Payload> table({8, TableAssoc::FourWay});
    EXPECT_THROW(restoreInto(table, checkpointWithKeys(
                                        {2, 3, -1, -1, -1, -1, -1, -1})),
                 std::invalid_argument);
}

TEST(AssocLabel, RoundTrips)
{
    for (TableAssoc assoc : {TableAssoc::Direct, TableAssoc::TwoWay,
                             TableAssoc::FourWay, TableAssoc::Full})
        EXPECT_EQ(parseAssoc(assocLabel(assoc)), assoc);
    EXPECT_EXIT(parseAssoc("8"), ::testing::ExitedWithCode(1),
                "bad table associativity");
}

TEST(SlotLru, InsertsAtFront)
{
    SlotLru<int> slots(3);
    slots.addOrPromote(1);
    slots.addOrPromote(2);
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0], 2);
    EXPECT_EQ(slots[1], 1);
}

TEST(SlotLru, PromoteMovesToFrontWithoutGrowth)
{
    SlotLru<int> slots(3);
    slots.addOrPromote(1);
    slots.addOrPromote(2);
    slots.addOrPromote(3);
    slots.addOrPromote(1);
    ASSERT_EQ(slots.size(), 3u);
    EXPECT_EQ(slots[0], 1);
    EXPECT_EQ(slots[1], 3);
    EXPECT_EQ(slots[2], 2);
}

TEST(SlotLru, EvictsLruWhenFull)
{
    SlotLru<int> slots(2);
    slots.addOrPromote(1);
    slots.addOrPromote(2);
    slots.addOrPromote(3); // evicts 1
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0], 3);
    EXPECT_EQ(slots[1], 2);
}

TEST(SlotLru, SetCapacityShrinksFromLruEnd)
{
    SlotLru<int> slots(4);
    slots.addOrPromote(1);
    slots.addOrPromote(2);
    slots.addOrPromote(3);
    slots.setCapacity(2);
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0], 3);
    EXPECT_EQ(slots[1], 2);
}

TEST(SlotLru, ClearEmpties)
{
    SlotLru<int> slots(2);
    slots.addOrPromote(1);
    slots.clear();
    EXPECT_EQ(slots.size(), 0u);
}

} // namespace
} // namespace tlbpf
