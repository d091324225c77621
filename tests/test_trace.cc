/**
 * @file
 * Unit tests for the reference-stream substrate: records, vector
 * streams, adaptors and the binary trace file format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <stdexcept>

#include "run_oracle.hh"
#include "trace/adaptors.hh"
#include "trace/ref_stream.hh"
#include "trace/trace_file.hh"
#include "workload/generators.hh"

namespace tlbpf
{
namespace
{

MemRef
ref(Addr vaddr, Addr pc = 0x400000, bool write = false,
    std::uint64_t icount = 0)
{
    return MemRef{vaddr, pc, write, icount};
}

std::unique_ptr<VectorStream>
stream(std::initializer_list<Addr> addrs)
{
    std::vector<MemRef> refs;
    for (Addr a : addrs)
        refs.push_back(ref(a));
    return std::make_unique<VectorStream>(std::move(refs));
}

TEST(MemRef, VpnUsesPageSize)
{
    MemRef r = ref(4096 * 7 + 123);
    EXPECT_EQ(r.vpn(), 7u);
    EXPECT_EQ(r.vpn(8192), 3u);
}

TEST(VectorStream, YieldsAllThenEnds)
{
    auto s = stream({1, 2, 3});
    MemRef r;
    EXPECT_TRUE(s->next(r));
    EXPECT_EQ(r.vaddr, 1u);
    EXPECT_TRUE(s->next(r));
    EXPECT_TRUE(s->next(r));
    EXPECT_FALSE(s->next(r));
    EXPECT_FALSE(s->next(r)); // stays ended
}

TEST(VectorStream, ResetRewinds)
{
    auto s = stream({10, 20});
    collect(*s);
    s->reset();
    auto again = collect(*s);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].vaddr, 10u);
}

TEST(Collect, RespectsLimit)
{
    auto s = stream({1, 2, 3, 4});
    auto v = collect(*s, 2);
    EXPECT_EQ(v.size(), 2u);
}

TEST(DistinctPages, CountsPages)
{
    auto s = stream({0, 100, 4096, 8192, 8200});
    EXPECT_EQ(distinctPages(*s), 3u);
}

TEST(TakeStream, TruncatesAndResets)
{
    auto t = TakeStream(stream({1, 2, 3, 4, 5}), 3);
    EXPECT_EQ(collect(t).size(), 3u);
    t.reset();
    EXPECT_EQ(collect(t).size(), 3u);
}

TEST(TakeStream, ShortInnerEndsEarly)
{
    auto t = TakeStream(stream({1, 2}), 10);
    EXPECT_EQ(collect(t).size(), 2u);
}

TEST(SkipStream, DropsPrefix)
{
    auto s = SkipStream(stream({1, 2, 3, 4}), 2);
    auto v = collect(s);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].vaddr, 3u);
    s.reset();
    EXPECT_EQ(collect(s).size(), 2u);
}

TEST(SkipStream, SkipBeyondEndYieldsNothing)
{
    auto s = SkipStream(stream({1, 2}), 5);
    EXPECT_TRUE(collect(s).empty());
}

TEST(InterleaveStream, RoundRobinWithWeights)
{
    std::vector<std::unique_ptr<RefStream>> inners;
    inners.push_back(stream({1, 2, 3, 4}));
    inners.push_back(stream({100, 200}));
    InterleaveStream s(std::move(inners), {2, 1});
    auto v = collect(s);
    ASSERT_EQ(v.size(), 6u);
    EXPECT_EQ(v[0].vaddr, 1u);
    EXPECT_EQ(v[1].vaddr, 2u);
    EXPECT_EQ(v[2].vaddr, 100u);
    EXPECT_EQ(v[3].vaddr, 3u);
    EXPECT_EQ(v[4].vaddr, 4u);
    EXPECT_EQ(v[5].vaddr, 200u);
}

TEST(InterleaveStream, DrainsLongerStreamAfterShortEnds)
{
    std::vector<std::unique_ptr<RefStream>> inners;
    inners.push_back(stream({1}));
    inners.push_back(stream({100, 200, 300}));
    InterleaveStream s(std::move(inners), {1, 1});
    auto v = collect(s);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v.back().vaddr, 300u);
}

TEST(InterleaveStream, ResetReplaysIdentically)
{
    std::vector<std::unique_ptr<RefStream>> inners;
    inners.push_back(stream({1, 2, 3}));
    inners.push_back(stream({4, 5}));
    InterleaveStream s(std::move(inners), {1, 2});
    auto first = collect(s);
    s.reset();
    auto second = collect(s);
    EXPECT_EQ(first, second);
}

TEST(ConcatStream, PlaysInOrder)
{
    std::vector<std::unique_ptr<RefStream>> inners;
    inners.push_back(stream({1, 2}));
    inners.push_back(stream({3}));
    ConcatStream s(std::move(inners));
    auto v = collect(s);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2].vaddr, 3u);
    s.reset();
    EXPECT_EQ(collect(s).size(), 3u);
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _path = ::testing::TempDir() + "trace_test.tpft";
    }

    void TearDown() override { std::remove(_path.c_str()); }

    std::string _path;
};

TEST_F(TraceFileTest, RoundTripPreservesRecords)
{
    std::vector<MemRef> refs = {
        ref(4096, 0x1000, false, 0),
        ref(8192, 0x1004, true, 3),
        ref(100, 0x999, false, 10),          // backward jump
        ref(1ull << 44, 0x1000, true, 1000), // large forward jump
    };
    {
        TraceWriter writer(_path);
        for (const MemRef &r : refs)
            writer.write(r);
        writer.close();
        EXPECT_EQ(writer.written(), refs.size());
    }
    TraceReader reader(_path);
    EXPECT_EQ(reader.count(), refs.size());
    auto out = collect(reader);
    EXPECT_EQ(out, refs);
}

TEST_F(TraceFileTest, ResetReplays)
{
    {
        TraceWriter writer(_path);
        writer.write(ref(1));
        writer.write(ref(2));
    }
    TraceReader reader(_path);
    auto a = collect(reader);
    reader.reset();
    auto b = collect(reader);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 2u);
}

TEST_F(TraceFileTest, DumpTraceCopiesWholeStream)
{
    auto s = stream({5, 6, 7});
    EXPECT_EQ(dumpTrace(*s, _path), 3u);
    TraceReader reader(_path);
    EXPECT_EQ(collect(reader).size(), 3u);
}

TEST_F(TraceFileTest, ProbeReportsProblemsWithoutExiting)
{
    EXPECT_NE(probeTraceFile("/nonexistent/trace.tpft"), "");
    {
        std::FILE *f = std::fopen(_path.c_str(), "wb");
        std::fputs("NOT A TRACE FILE AT ALL BUT LONG ENOUGH....", f);
        std::fclose(f);
    }
    EXPECT_NE(probeTraceFile(_path), "");
    {
        TraceWriter writer(_path);
        writer.write(ref(1));
    }
    EXPECT_EQ(probeTraceFile(_path), "");
}

/**
 * The committed sample trace (tests/data/sample.tpf) that CI uses for
 * trace-backed WorkloadSpecs: it must decode, and re-encoding its
 * records must reproduce the committed bytes exactly (the writer
 * round-trip guard for the on-disk format).
 */
class SampleTraceTest : public ::testing::Test
{
  protected:
    static std::string samplePath()
    {
        return std::string(TLBPF_TEST_DATA_DIR) + "/sample.tpf";
    }

    static std::string
    fileBytes(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_NE(f, nullptr) << path;
        std::string bytes;
        int c;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
        return bytes;
    }
};

TEST_F(SampleTraceTest, DecodesAFewHundredRefs)
{
    ASSERT_EQ(probeTraceFile(samplePath()), "");
    TraceReader reader(samplePath());
    auto refs = collect(reader);
    EXPECT_EQ(refs.size(), reader.count());
    EXPECT_GE(refs.size(), 200u);
    EXPECT_LE(refs.size(), 2000u);
    // icounts are monotone, as the simulators assume.
    for (std::size_t i = 1; i < refs.size(); ++i)
        ASSERT_GE(refs[i].icount, refs[i - 1].icount) << i;
}

TEST_F(SampleTraceTest, WriterRoundTripReproducesCommittedBytes)
{
    TraceReader reader(samplePath());
    auto refs = collect(reader);
    std::string rewritten = ::testing::TempDir() + "sample_rt.tpf";
    {
        TraceWriter writer(rewritten);
        for (const MemRef &r : refs)
            writer.write(r);
    }
    EXPECT_EQ(fileBytes(rewritten), fileBytes(samplePath()));
    std::remove(rewritten.c_str());
}

/**
 * The on-disk header is an explicit little-endian byte layout, not a
 * host-endian struct image: bytes 0-3 magic "TPFT", 4-7 version as a
 * LE u32, 8-15 record count as a LE u64.  This is what makes traces
 * portable across hosts, so it is pinned byte-by-byte.
 */
TEST_F(TraceFileTest, HeaderBytesAreExplicitLittleEndian)
{
    {
        TraceWriter writer(_path);
        for (int i = 0; i < 300; ++i) // count >= 256 exercises byte 9
            writer.write(ref(4096u * (i + 1)));
    }
    std::FILE *f = std::fopen(_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    unsigned char hdr[kTraceHeaderBytes];
    ASSERT_EQ(std::fread(hdr, 1, sizeof(hdr), f), sizeof(hdr));
    std::fclose(f);
    EXPECT_EQ(hdr[0], 'T');
    EXPECT_EQ(hdr[1], 'P');
    EXPECT_EQ(hdr[2], 'F');
    EXPECT_EQ(hdr[3], 'T');
    // Version 1 as a little-endian u32.
    EXPECT_EQ(hdr[4], 1u);
    EXPECT_EQ(hdr[5], 0u);
    EXPECT_EQ(hdr[6], 0u);
    EXPECT_EQ(hdr[7], 0u);
    // Record count 300 = 0x12c as a little-endian u64.
    EXPECT_EQ(hdr[8], 0x2cu);
    EXPECT_EQ(hdr[9], 0x01u);
    for (int i = 10; i < 16; ++i)
        EXPECT_EQ(hdr[i], 0u) << "header byte " << i;
}

/**
 * A dump onto a full disk must die naming the path, not leave a
 * truncated trace behind a valid-looking header.  /dev/full fails
 * every flush, so the error surfaces at close() at the latest.
 */
TEST_F(TraceFileTest, WriteErrorIsFatalAndNamesThePath)
{
    std::FILE *probe = std::fopen("/dev/full", "wb");
    if (!probe)
        GTEST_SKIP() << "/dev/full not available on this host";
    std::fclose(probe);
    EXPECT_EXIT(
        {
            TraceWriter writer("/dev/full");
            for (int i = 0; i < 100000; ++i)
                writer.write(ref(4096u * (i + 1)));
            writer.close();
        },
        ::testing::ExitedWithCode(1), "/dev/full");
}

TEST_F(TraceFileTest, ResetAfterPartialReadRewindsDeltaState)
{
    std::vector<MemRef> refs = {
        ref(1ull << 40, 0x1000, false, 0),
        ref(4096, 0x2000, true, 10),
        ref(1ull << 33, 0x3000, false, 20),
        ref(8192, 0x1000, true, 30),
    };
    {
        TraceWriter writer(_path);
        for (const MemRef &r : refs)
            writer.write(r);
    }
    TraceReader reader(_path);
    // Stop mid-stream: the reader's delta state (_prev) and progress
    // counter now sit at record 2.
    MemRef r;
    ASSERT_TRUE(reader.next(r));
    ASSERT_TRUE(reader.next(r));
    reader.reset();
    // A rewound reader must replay from scratch; stale delta state
    // would corrupt the very first record.
    EXPECT_EQ(collect(reader), refs);
}

TEST_F(TraceFileTest, MalformedVarintThrowsUnderThrowPolicy)
{
    {
        TraceWriter writer(_path);
        writer.write(ref(4096));
    }
    {
        // Append a record whose varint never terminates (11 bytes of
        // 0xff exceeds the 64-bit continuation limit) and patch the
        // header count so the reader expects it.
        std::FILE *f = std::fopen(_path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        std::fputc(0x00, f); // flags byte
        for (int i = 0; i < 12; ++i)
            std::fputc(0xff, f);
        std::fseek(f, 8, SEEK_SET);
        std::fputc(2, f); // LE count low byte: now 2 records
        std::fclose(f);
    }
    TraceReader reader(_path, TraceReader::ErrorPolicy::Throw);
    MemRef r;
    EXPECT_TRUE(reader.next(r));
    EXPECT_THROW(reader.next(r), std::invalid_argument);
}

TEST_F(TraceFileTest, TruncatedRecordThrowsUnderThrowPolicy)
{
    {
        TraceWriter writer(_path);
        writer.write(ref(4096));
        writer.write(ref(1ull << 44)); // multi-byte varint delta
    }
    {
        // Chop the tail of the last record; the header still promises
        // two records.
        std::FILE *f = std::fopen(_path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::string bytes;
        int c;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
        ASSERT_GT(bytes.size(), kTraceHeaderBytes + 4);
        f = std::fopen(_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size() - 2, f);
        std::fclose(f);
    }
    TraceReader reader(_path, TraceReader::ErrorPolicy::Throw);
    MemRef r;
    EXPECT_TRUE(reader.next(r));
    EXPECT_THROW(reader.next(r), std::invalid_argument);
}

/**
 * Fuzz-corpus regressions (tests/data/fuzz_regressions/): hostile
 * .tpf files from the fuzz_trace corpus must keep failing the same
 * way the harness demands — the cheap probe and the throwing reader
 * agree, and a decode attempt raises invalid_argument rather than
 * crashing or returning silent garbage.
 */
TEST(TraceFuzzRegressions, HostileFilesAreRejectedNotDecoded)
{
    for (const char *name :
         {"trace_truncated.tpf", "trace_magic_only.tpf"}) {
        std::string path = std::string(TLBPF_TEST_DATA_DIR) +
                           "/fuzz_regressions/" + name;
        std::string probe = probeTraceFile(path);
        bool rejected = false;
        try {
            TraceReader reader(path,
                               TraceReader::ErrorPolicy::Throw);
            EXPECT_EQ(probe, "")
                << name
                << ": the probe rejected what the reader accepted";
            MemRef r;
            while (reader.next(r)) {
            }
        } catch (const std::invalid_argument &) {
            rejected = true;
        }
        EXPECT_TRUE(rejected) << name << " decoded without an error";
    }
}

TEST_F(TraceFileTest, NextBatchMatchesNextAndInterleaves)
{
    std::vector<MemRef> refs;
    for (int i = 0; i < 500; ++i) {
        // Mixed deltas, directions, flags and icount gaps so every
        // varint width shows up.
        Addr page = (i % 7 == 0) ? (1ull << 35) + i * 4096u
                                 : 4096u * ((i * 37) % 97);
        refs.push_back(ref(page + i, 0x400000 + (i % 3) * 8, i % 2,
                           static_cast<std::uint64_t>(i) * 5));
    }
    {
        TraceWriter writer(_path);
        for (const MemRef &r : refs)
            writer.write(r);
    }
    // Pure batch drain, at several batch sizes.
    for (std::size_t batch : {1u, 3u, 7u, 64u}) {
        TraceReader reader(_path);
        std::vector<MemRef> out;
        std::vector<MemRef> buf(batch);
        std::size_t got;
        while ((got = reader.nextBatch(buf.data(), batch)) > 0) {
            out.insert(out.end(), buf.begin(),
                       buf.begin() + static_cast<std::ptrdiff_t>(got));
            if (got < batch)
                break;
        }
        EXPECT_EQ(out, refs) << "batch size " << batch;
    }
    // next() and nextBatch() interleaved mid-stream are equivalent.
    TraceReader reader(_path);
    std::vector<MemRef> out;
    MemRef one;
    std::vector<MemRef> buf(13);
    for (;;) {
        if (out.size() % 2 == 0) {
            if (!reader.next(one))
                break;
            out.push_back(one);
        } else {
            std::size_t got = reader.nextBatch(buf.data(), buf.size());
            out.insert(out.end(), buf.begin(),
                       buf.begin() + static_cast<std::ptrdiff_t>(got));
            if (got < buf.size())
                break;
        }
    }
    EXPECT_EQ(out, refs);
}

/**
 * References that dwell on a page for a random stretch, at random
 * offsets and PCs: runs of every length, and pages of 2 KiB split
 * them.
 */
std::vector<MemRef>
dwellingRefs(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<MemRef> refs;
    Vpn page = 1 << 20;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.chance(0.2))
            page = (1 << 20) + rng.nextBelow(48);
        refs.push_back(ref(page * kDefaultPageBytes + rng.nextBelow(4096),
                           0x400000 + 4 * rng.nextBelow(8),
                           rng.chance(0.3), 3 * i));
    }
    return refs;
}

/**
 * nextRuns() through Take/Skip/Interleave/Concat compositions of
 * vectors, a trace file and every generator (including the edge
 * cases of their native run paths: block shuffling from an unaligned
 * base, negative, zero and page-sized strides, bursty dwells and a
 * zero-length dwell step) must expand to the nextBatch() drain.
 */
TEST_F(TraceFileTest, RunsMatchNextBatchThroughAdaptors)
{
    {
        TraceWriter writer(_path);
        for (const MemRef &r : dwellingRefs(7, 900))
            writer.write(r);
    }
    auto vec = [](std::uint64_t seed, std::size_t n) {
        return std::make_unique<VectorStream>(dwellingRefs(seed, n));
    };
    auto shuffled = [] {
        StridedScan::Config c;
        c.base = (1ull << 32) + 1000; // not page aligned
        c.strideBytes = 200;
        c.count = 400;
        c.passes = 2;
        c.shuffleBlockPages = 3;
        c.seed = 5;
        return std::make_unique<StridedScan>(c);
    };
    auto backwards = [] {
        StridedScan::Config c;
        c.strideBytes = -4096;
        c.count = 90;
        c.pc = 0x500000;
        return std::make_unique<StridedScan>(c);
    };
    auto changing = [] {
        ChangingStrideScan::Config c;
        c.phases = {{64, 150}, {-128, 70}, {0, 40}, {5000, 30}};
        c.passes = 2;
        return std::make_unique<ChangingStrideScan>(c);
    };
    auto pattern = [] {
        DistancePatternWalk::Config c;
        c.regionPages = 40;
        c.steps = 60;
        c.refsPerStep = 5;
        c.passes = 3;
        c.noise = 0.3;
        return std::make_unique<DistancePatternWalk>(c);
    };
    auto history = [] {
        HistoryLoop::Config c;
        c.footprintPages = 32;
        c.seqLen = 40;
        c.refsPerStep = 9;
        c.passes = 2;
        c.burstiness = 0.4;
        return std::make_unique<HistoryLoop>(c);
    };
    auto alternating = [](std::uint32_t refs_per_step) {
        AlternatingPermutations::Config c;
        c.numPages = 20;
        c.rounds = 4;
        c.refsPerStep = refs_per_step;
        return std::make_unique<AlternatingPermutations>(c);
    };
    auto zipf = [] {
        ZipfMix::Config c;
        c.numPages = 16;
        c.steps = 80;
        c.refsPerStep = 6;
        return std::make_unique<ZipfMix>(c);
    };
    auto list = [](auto... streams) {
        std::vector<std::unique_ptr<RefStream>> out;
        (out.push_back(std::move(streams)), ...);
        return out;
    };

    std::vector<std::pair<std::string,
                          std::function<std::unique_ptr<RefStream>()>>>
        shapes;
    shapes.emplace_back("trace", [&] {
        return std::make_unique<TraceReader>(_path);
    });
    shapes.emplace_back("take(vector)", [&] {
        return std::make_unique<TakeStream>(vec(1, 900), 700);
    });
    shapes.emplace_back("skip(vector)", [&] {
        return std::make_unique<SkipStream>(vec(2, 900), 333);
    });
    shapes.emplace_back("interleave(vector,shuffled,pattern)", [&] {
        return std::make_unique<InterleaveStream>(
            list(vec(3, 500), shuffled(), pattern()),
            std::vector<std::uint32_t>{5, 17, 3});
    });
    shapes.emplace_back("concat(...)", [&] {
        return std::make_unique<ConcatStream>(
            list(std::make_unique<TakeStream>(zipf(), 400),
                 std::make_unique<SkipStream>(history(), 100),
                 changing(), backwards(), alternating(0),
                 alternating(7)));
    });
    shapes.emplace_back("take(skip(interleave(concat,trace)))", [&] {
        return std::make_unique<TakeStream>(
            std::make_unique<SkipStream>(
                std::make_unique<InterleaveStream>(
                    list(std::make_unique<ConcatStream>(
                             list(pattern(), zipf())),
                         std::make_unique<TraceReader>(_path)),
                    std::vector<std::uint32_t>{64, 1}),
                50),
            1500);
    });
    shapes.emplace_back("paced(interleave(...))", [&] {
        return std::make_unique<PaceStream>(
            std::make_unique<InterleaveStream>(
                list(history(), changing(), vec(4, 300)),
                std::vector<std::uint32_t>{2, 9, 4}),
            2.5);
    });

    std::uint64_t seed = 1;
    for (const auto &[what, make] : shapes) {
        std::vector<MemRef> oracle = test::drainRefs(*make());
        ASSERT_FALSE(oracle.empty()) << what;
        for (std::uint64_t page : test::runTestPageSizes()) {
            for (int trial = 0; trial < 3; ++trial) {
                test::expectRunsMatch(*make(), oracle, page, seed++,
                                      trial > 0, what);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_EXIT({ TraceReader reader("/nonexistent/trace.tpft"); },
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST_F(TraceFileTest, BadMagicIsFatal)
{
    {
        std::FILE *f = std::fopen(_path.c_str(), "wb");
        std::fputs("NOT A TRACE FILE AT ALL", f);
        std::fclose(f);
    }
    EXPECT_EXIT({ TraceReader reader(_path); },
                ::testing::ExitedWithCode(1), "bad magic");
}

} // namespace
} // namespace tlbpf
