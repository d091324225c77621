/**
 * @file
 * Shared oracle for RefStream::nextRuns(): a stream's page runs must
 * expand to its nextBatch() page sequence, carry the PC of each run's
 * first reference, respect both budgets, come up short only at end of
 * stream, and interleave with nextBatch() without moving the stream.
 */

#ifndef TLBPF_TESTS_RUN_ORACLE_HH
#define TLBPF_TESTS_RUN_ORACLE_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "trace/ref_stream.hh"
#include "util/random.hh"

namespace tlbpf::test
{

/** The whole nextBatch() drain of @p stream. */
inline std::vector<MemRef>
drainRefs(RefStream &stream)
{
    std::vector<MemRef> out;
    std::vector<MemRef> buf(4096);
    std::size_t got;
    while ((got = stream.nextBatch(buf.data(), buf.size())) > 0) {
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(got));
        if (got < buf.size())
            break;
    }
    return out;
}

/**
 * Drain @p stream (fresh, the same stream @p oracle was drained from)
 * under seeded random (n, max_refs) chunkings of nextRuns() and, when
 * @p interleave, random nextBatch() calls in between, checking every
 * call against @p oracle.
 */
inline void
expectRunsMatch(RefStream &stream, const std::vector<MemRef> &oracle,
                std::uint64_t page_bytes, std::uint64_t seed,
                bool interleave, const std::string &what)
{
    SCOPED_TRACE(testing::Message() << what << " page " << page_bytes
                                    << " seed " << seed
                                    << (interleave ? " interleaved"
                                                   : ""));
    Rng rng(seed);
    std::vector<PageRun> runs(64);
    std::vector<MemRef> refs(40);
    std::size_t pos = 0;
    for (;;) {
        if (interleave && rng.nextBelow(3) == 0) {
            std::size_t want = 1 + rng.nextBelow(refs.size());
            std::size_t got = stream.nextBatch(refs.data(), want);
            ASSERT_LE(pos + got, oracle.size());
            for (std::size_t i = 0; i < got; ++i)
                ASSERT_EQ(refs[i], oracle[pos + i])
                    << "nextBatch after runs, reference " << pos + i;
            pos += got;
            if (got < want)
                break;
            continue;
        }
        std::size_t n = 1 + rng.nextBelow(runs.size());
        std::uint64_t max_refs =
            rng.nextBelow(8) == 0 ? UINT64_MAX : 1 + rng.nextBelow(300);
        std::size_t got =
            stream.nextRuns(runs.data(), n, page_bytes, max_refs);
        ASSERT_LE(got, n);
        std::uint64_t delivered = 0;
        for (std::size_t k = 0; k < got; ++k) {
            const PageRun &run = runs[k];
            ASSERT_GE(run.count, 1u) << "empty run at reference " << pos;
            ASSERT_LE(pos + run.count, oracle.size())
                << "runs overrun the stream at reference " << pos;
            ASSERT_EQ(run.pc, oracle[pos].pc)
                << "run PC is not its first reference's, at " << pos;
            for (std::uint64_t j = 0; j < run.count; ++j)
                ASSERT_EQ(run.vpn, oracle[pos + j].vpn(page_bytes))
                    << "run page differs at reference " << pos + j;
            pos += run.count;
            delivered += run.count;
        }
        ASSERT_LE(delivered, max_refs);
        if (got < n && delivered < max_refs)
            break; // the stream claims its end
    }
    EXPECT_EQ(pos, oracle.size()) << "stream ended early";
    PageRun tail;
    EXPECT_EQ(stream.nextRuns(&tail, 1, page_bytes, UINT64_MAX), 0u)
        << "runs after the end of stream";
}

/** The page sizes every run test covers: 12288 is not a power of 2. */
inline const std::vector<std::uint64_t> &
runTestPageSizes()
{
    static const std::vector<std::uint64_t> sizes{2048, 4096, 8192,
                                                  16384, 12288};
    return sizes;
}

} // namespace tlbpf::test

#endif // TLBPF_TESTS_RUN_ORACLE_HH
