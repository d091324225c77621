/**
 * @file
 * Property-based tests (parameterised sweeps) over the simulator's
 * core invariants:
 *
 *  P1. Prefetching never changes the TLB miss sequence (the buffer is
 *      outside the TLB) — for every scheme, geometry and workload.
 *  P2. Counter sanity: pbHits <= misses <= refs; accuracy in [0,1].
 *  P3. The TLB behaves exactly like a reference LRU model.
 *  P4. Determinism: identical runs produce identical counters.
 *  P5. Larger prefetch buffers never hurt... is NOT an invariant (an
 *      aggressive scheme can pollute); what must hold is that the
 *      buffer never exceeds capacity — checked in P2's sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/distance_predictor.hh"
#include "sim/experiment.hh"
#include "sim/functional_sim.hh"
#include "tlb/tlb.hh"
#include "trace/ref_stream.hh"
#include "util/random.hh"
#include "util/snapshot.hh"

namespace tlbpf
{
namespace
{

/** Mixed synthetic stream exercising strides, reuse and randomness. */
std::vector<MemRef>
mixedStream(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<MemRef> refs;
    refs.reserve(n);
    Vpn page = 1000;
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.nextBelow(4)) {
          case 0:
            page += 1; // sequential
            break;
          case 1:
            page = 1000 + rng.nextBelow(40); // hot set
            break;
          case 2:
            page += 17; // stride
            break;
          default:
            page = 5000 + rng.nextBelow(5000); // cold randomness
            break;
        }
        refs.push_back(MemRef{page * kDefaultPageBytes,
                              0x4000 + (rng.nextBelow(8) * 4), false,
                              i * 2});
    }
    return refs;
}

struct SweepParam
{
    const char *mech;
    std::uint32_t tlbEntries;
    std::uint32_t tlbAssoc;
    std::uint32_t pbEntries;
};

class SchemeSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(SchemeSweep, MissSequenceInvariantAndCounterSanity)
{
    const SweepParam &param = GetParam();
    SimConfig config;
    config.tlb = TlbConfig{param.tlbEntries, param.tlbAssoc};
    config.pbEntries = param.pbEntries;

    MechanismSpec none = MechanismSpec::none();
    MechanismSpec spec = MechanismSpec::parse(param.mech);

    auto refs = mixedStream(param.tlbEntries * 7919 + param.pbEntries,
                            20000);
    VectorStream s1(refs);
    VectorStream s2(refs);

    SimResult base = simulate(config, none, s1);
    SimResult with = simulate(config, spec, s2);

    // P1: prefetching cannot change what the TLB misses on.
    EXPECT_EQ(with.misses, base.misses);
    EXPECT_EQ(with.refs, base.refs);

    // P2: counter sanity.
    EXPECT_LE(with.pbHits, with.misses);
    EXPECT_LE(with.misses, with.refs);
    EXPECT_EQ(with.pbHits + with.demandFetches, with.misses);
    EXPECT_GE(with.accuracy(), 0.0);
    EXPECT_LE(with.accuracy(), 1.0);
    EXPECT_EQ(with.footprintPages, base.footprintPages);

    // P4: determinism.
    VectorStream s3(refs);
    SimResult again = simulate(config, spec, s3);
    EXPECT_EQ(again.pbHits, with.pbHits);
    EXPECT_EQ(again.prefetchesIssued, with.prefetchesIssued);
    EXPECT_EQ(again.stateOps, with.stateOps);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllGeometries, SchemeSweep,
    ::testing::Values(
        SweepParam{"sp", 64, 0, 16},
        SweepParam{"sp", 128, 4, 32},
        SweepParam{"asp(rows=64)", 64, 2, 16},
        SweepParam{"asp(rows=64)", 128, 0, 16},
        SweepParam{"asp(rows=64)", 256, 4, 64},
        SweepParam{"mp(rows=64)", 64, 0, 16},
        SweepParam{"mp(rows=64)", 128, 2, 32},
        SweepParam{"mp(rows=64)", 256, 0, 16},
        SweepParam{"rp", 64, 0, 16},
        SweepParam{"rp", 128, 0, 64},
        SweepParam{"rp", 256, 2, 16},
        SweepParam{"dp(rows=64)", 64, 0, 16},
        SweepParam{"dp(rows=64)", 128, 2, 16},
        SweepParam{"dp(rows=64)", 256, 4, 32}),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        const SweepParam &p = info.param;
        return MechanismSpec::parse(p.mech).shortName() + "_t" +
               std::to_string(p.tlbEntries) + "w" +
               std::to_string(p.tlbAssoc) + "b" +
               std::to_string(p.pbEntries);
    });

/**
 * Reference true-LRU model of one TLB: per set a recency list (front =
 * MRU), plus the way each resident page occupies and the recency
 * clock, so that it also predicts the TLB's snapshot bytes.  A fill
 * takes the set's first free way, else the LRU page's way.
 */
class TlbModel
{
  public:
    TlbModel(std::uint32_t entries, std::uint32_t assoc)
        : _ways(assoc == 0 ? entries : assoc), _sets(entries / _ways),
          _lru(_sets), _slots(entries)
    {
    }

    bool
    access(Vpn vpn, std::uint64_t count)
    {
        auto &lru = _lru[vpn % _sets];
        auto it = std::find(lru.begin(), lru.end(), vpn);
        if (it == lru.end())
            return false;
        lru.splice(lru.begin(), lru, it);
        _lastUse[vpn] = _clock += count;
        return true;
    }

    std::optional<Vpn>
    insert(Vpn vpn)
    {
        std::uint64_t set = vpn % _sets;
        auto &lru = _lru[set];
        std::optional<Vpn> evicted;
        if (lru.size() == _ways) {
            evicted = lru.back();
            invalidate(*evicted);
        }
        std::size_t slot = set * _ways;
        while (_slots[slot])
            ++slot;
        _slots[slot] = vpn;
        lru.push_front(vpn);
        _lastUse[vpn] = ++_clock;
        return evicted;
    }

    bool
    invalidate(Vpn vpn)
    {
        auto &lru = _lru[vpn % _sets];
        auto it = std::find(lru.begin(), lru.end(), vpn);
        if (it == lru.end())
            return false;
        lru.erase(it);
        *std::find(_slots.begin(), _slots.end(), vpn) = std::nullopt;
        _lastUse.erase(vpn);
        return true;
    }

    void
    flush()
    {
        for (auto &lru : _lru)
            lru.clear();
        std::fill(_slots.begin(), _slots.end(), std::nullopt);
        _lastUse.clear();
    }

    std::uint32_t resident() const { return _lastUse.size(); }

    /** The bytes Tlb::snapshotState writes for this state. */
    std::vector<std::uint8_t>
    bytes() const
    {
        SnapshotWriter out;
        out.u64(_clock);
        out.u64(_slots.size());
        for (const std::optional<Vpn> &vpn : _slots) {
            out.boolean(vpn.has_value());
            if (vpn) {
                out.u64(*vpn);
                out.u64(_lastUse.at(*vpn));
            }
        }
        return out.take();
    }

  private:
    std::uint32_t _ways;
    std::uint32_t _sets;
    std::uint64_t _clock = 0;
    std::vector<std::list<Vpn>> _lru;
    std::vector<std::optional<Vpn>> _slots;
    std::map<Vpn, std::uint64_t> _lastUse;
};

std::vector<std::uint8_t>
snapshotBytes(const Tlb &tlb)
{
    SnapshotWriter out;
    tlb.snapshotState(out);
    return out.take();
}

/** P3: cross-check the TLB against a reference true-LRU model. */
class TlbVsReference
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(TlbVsReference, MatchesReferenceLru)
{
    auto [entries, assoc] = GetParam();
    auto tlb = std::make_unique<Tlb>(TlbConfig{entries, assoc});
    TlbModel model(entries, assoc);

    Rng rng(entries * 31 + assoc);
    for (int i = 0; i < 50000; ++i) {
        // Page runs of one to four references, as streams hand out.
        Vpn vpn = rng.nextBelow(entries * 3);
        std::uint64_t count = 1 + rng.nextBelow(4);
        bool model_hit = model.access(vpn, count);
        ASSERT_EQ(tlb->access(vpn, count), model_hit) << "ref " << i;
        if (!model_hit) {
            ASSERT_EQ(tlb->insert(vpn), model.insert(vpn)) << "ref " << i;
        }

        // Invalidations leave free ways between resident ones.
        if (i % 7 == 0) {
            Vpn gone = rng.nextBelow(entries * 3);
            ASSERT_EQ(tlb->invalidate(gone), model.invalidate(gone))
                << "ref " << i;
        }
        if (i % 7919 == 7918) {
            tlb->flush();
            model.flush();
        }
        if (i % 1000 == 0) {
            ASSERT_EQ(tlb->residentCount(), model.resident()) << "ref " << i;
            ASSERT_EQ(snapshotBytes(*tlb), model.bytes()) << "ref " << i;
        }
        // Carry on in a fresh TLB restored from a mid-sequence
        // checkpoint.
        if (i == 25000) {
            std::vector<std::uint8_t> bytes = snapshotBytes(*tlb);
            auto restored = std::make_unique<Tlb>(TlbConfig{entries, assoc});
            SnapshotReader in(bytes);
            restored->restoreState(in);
            ASSERT_TRUE(in.atEnd());
            ASSERT_EQ(snapshotBytes(*restored), bytes);
            tlb = std::move(restored);
        }
    }
    ASSERT_EQ(snapshotBytes(*tlb), model.bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbVsReference,
    ::testing::Values(std::make_pair(4u, 0u), std::make_pair(8u, 2u),
                      std::make_pair(16u, 4u), std::make_pair(64u, 0u),
                      std::make_pair(128u, 2u),
                      std::make_pair(128u, 0u), std::make_pair(256u, 0u),
                      std::make_pair(512u, 32u)),
    [](const auto &info) {
        std::string name = "e";
        name += std::to_string(info.param.first);
        name += "w";
        name += std::to_string(info.param.second);
        return name;
    });

/** DP parameter sweep: predictions bounded and deterministic. */
class DpParams
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t,
                                                 TableAssoc>>
{
};

TEST_P(DpParams, PredictionsBoundedBySlots)
{
    auto [rows, slots, assoc] = GetParam();
    DistancePredictor dp(
        DistancePredictorConfig{TableConfig{rows, assoc}, slots});
    Rng rng(rows * 131 + slots);
    std::vector<std::uint64_t> predictions;
    for (int i = 0; i < 5000; ++i) {
        predictions.clear();
        dp.observe(1000000 + rng.nextBelow(4000), predictions);
        EXPECT_LE(predictions.size(), slots);
    }
}

TEST_P(DpParams, ResetThenReplayIsIdentical)
{
    auto [rows, slots, assoc] = GetParam();
    DistancePredictor dp(
        DistancePredictorConfig{TableConfig{rows, assoc}, slots});
    auto run = [&dp] {
        std::vector<std::size_t> sizes;
        std::vector<std::uint64_t> p;
        std::uint64_t unit = 5000;
        for (int i = 0; i < 500; ++i) {
            unit += (i % 7) + 1;
            p.clear();
            dp.observe(unit, p);
            sizes.push_back(p.size());
        }
        return sizes;
    };
    auto first = run();
    dp.reset();
    auto second = run();
    EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DpParams,
    ::testing::Combine(::testing::Values(32u, 256u, 1024u),
                       ::testing::Values(1u, 2u, 4u, 6u),
                       ::testing::Values(TableAssoc::Direct,
                                         TableAssoc::Full)),
    [](const auto &info) {
        std::string name = "r";
        name += std::to_string(std::get<0>(info.param));
        name += "s";
        name += std::to_string(std::get<1>(info.param));
        name += assocLabel(std::get<2>(info.param));
        return name;
    });

/** Prefetch-buffer sweep: accuracy is monotone-ish in b for SP on a
 *  sequential stream, and capacity is always respected. */
class BufferSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BufferSweep, SequentialSpAccuracyHighForAnyCapacity)
{
    SimConfig config;
    config.tlb = TlbConfig{16, 0};
    config.pbEntries = GetParam();
    MechanismSpec sp = MechanismSpec::parse("sp");
    std::vector<MemRef> refs;
    for (Vpn p = 0; p < 2000; ++p)
        refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, p});
    VectorStream stream(std::move(refs));
    SimResult r = simulate(config, sp, stream);
    EXPECT_GT(r.accuracy(), 0.99);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferSweep,
                         ::testing::Values(1u, 2u, 16u, 32u, 64u));

/** Timing model: cycles are monotone in the miss penalty. */
class PenaltySweep : public ::testing::TestWithParam<Tick>
{
};

TEST_P(PenaltySweep, CyclesGrowWithPenalty)
{
    TimingConfig cheap;
    cheap.missPenalty = GetParam();
    TimingConfig costly;
    costly.missPenalty = GetParam() * 2;
    auto refs = mixedStream(99, 20000);
    VectorStream s1(refs);
    VectorStream s2(refs);
    MechanismSpec none = MechanismSpec::none();
    SimConfig config;
    TimingResult a = simulateTimed(config, cheap, none, s1);
    TimingResult b = simulateTimed(config, costly, none, s2);
    EXPECT_LT(a.cycles, b.cycles);
    EXPECT_EQ(a.functional.misses, b.functional.misses);
}

INSTANTIATE_TEST_SUITE_P(Penalties, PenaltySweep,
                         ::testing::Values(30u, 50u, 100u, 200u));

} // namespace
} // namespace tlbpf
