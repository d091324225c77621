/**
 * @file
 * Synthetic reference-behaviour generators.
 *
 * The paper drives its evaluation with traced SPEC CPU2000 /
 * MediaBench / Etch / Pointer-Intensive binaries.  Those traces are not
 * redistributable, so this reproduction synthesises reference streams
 * from the paper's own taxonomy of behaviours (Section 1):
 *
 *  (a) strided first-touch      -> StridedScan (passes = 1)
 *  (b) strided re-touch         -> StridedScan (passes > 1)
 *  (c) stride changes over time -> ChangingStrideScan
 *  (d) irregular but repeating
 *      distance sequences       -> DistancePatternWalk
 *  history-repeating walks      -> HistoryLoop
 *  MP-favouring alternation     -> AlternatingPermutations
 *  (e) no regularity            -> ZipfMix
 *
 * All generators are deterministic given their seed and support
 * reset(), so every experiment replays identically.
 */

#ifndef TLBPF_WORKLOAD_GENERATORS_HH
#define TLBPF_WORKLOAD_GENERATORS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/ref_stream.hh"
#include "util/bits.hh"
#include "util/random.hh"

namespace tlbpf
{

/**
 * Linear scan: passes over [base, base + count*stride) touching every
 * stride-th byte with a single access PC (a tight copy/scan loop).
 */
class StridedScan : public RefStream
{
  public:
    struct Config
    {
        Addr base = 1ull << 32;      ///< starting byte address
        std::int64_t strideBytes = 64; ///< signed per-reference stride
        std::uint64_t count = 1024;  ///< references per pass
        std::uint32_t passes = 1;    ///< times to repeat the scan
        Addr pc = 0x400000;          ///< PC of the access instruction
        /**
         * When non-zero, the scanned pages are visited in a fixed
         * block-shuffled order: blocks of this many pages are walked
         * sequentially inside, but the block order is a fixed
         * pseudo-random permutation (identical every pass).  Models
         * blocked/tiled array traversals: history mechanisms learn the
         * block jumps after one pass, while the jump *distances* are
         * irregular, so stride- and distance-based schemes miss them.
         * Requires a positive stride.
         */
        std::uint32_t shuffleBlockPages = 0;
        std::uint64_t seed = 1; ///< block-permutation seed
    };

    explicit StridedScan(const Config &config);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    /** Unshuffled address of reference _i of the pass. */
    Addr scanAddr() const;
    Addr remap(Addr vaddr) const;
    /** Move past @p count references of the current pass. */
    void advance(std::uint64_t count);

    Config _config;
    /** |strideBytes| and shuffleBlockPages, divided by multiplying. */
    Divisor _stride;
    Divisor _blockPages;
    std::vector<std::uint32_t> _blockPerm;
    std::uint64_t _i = 0;
    std::uint32_t _pass = 0;
};

/**
 * A scan whose stride changes between phases while the PC stays the
 * same (the paper's category (c): the stride itself changes over time
 * for the same data item).
 */
class ChangingStrideScan : public RefStream
{
  public:
    struct Phase
    {
        std::int64_t strideBytes;
        std::uint64_t count;
    };

    struct Config
    {
        Addr base = 1ull << 32;
        std::vector<Phase> phases;
        std::uint32_t passes = 1;
        Addr pc = 0x400000;
    };

    explicit ChangingStrideScan(const Config &config);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    /** Move past @p count references of the current phase. */
    void advance(std::uint64_t count);

    Config _config;
    /** |strideBytes| of each phase, divided by multiplying. */
    std::vector<Divisor> _strides;
    Addr _cursor;
    std::size_t _phase = 0;
    std::uint64_t _inPhase = 0;
    std::uint32_t _pass = 0;
};

/**
 * Page-granular walk following a repeating *distance pattern* over a
 * large region: the stride keeps changing but the changes themselves
 * repeat (the paper's category (d), DP's home turf).  Each step dwells
 * in the page for refsPerStep references so the TLB miss rate is
 * roughly 1/refsPerStep.
 */
class DistancePatternWalk : public RefStream
{
  public:
    struct Config
    {
        Vpn basePage = 1ull << 20;
        std::uint64_t regionPages = 1ull << 22; ///< wrap-around window
        std::vector<std::int64_t> pattern{1, 3, 1, 5}; ///< page deltas
        std::uint64_t steps = 100000; ///< page moves per pass
        std::uint32_t refsPerStep = 4; ///< dwell references per page
        std::uint32_t passes = 1;
        double noise = 0.0; ///< probability of a random delta instead
        std::uint64_t seed = 1;
        Addr pcBase = 0x400000;
    };

    explicit DistancePatternWalk(const Config &config);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    void advancePage();
    /** Move past @p count references of the current dwell step. */
    void advance(std::uint32_t count);

    Config _config;
    Rng _rng;
    Vpn _page;
    std::uint64_t _step = 0;
    std::uint32_t _dwell = 0;
    std::uint32_t _pass = 0;
    std::size_t _patternPos = 0;
};

/**
 * A fixed pseudo-random page sequence replayed many times: history
 * repeats exactly (RP/MP-friendly) while the distances are drawn from a
 * small alphabet whose successor structure is only @c skew consistent
 * (bounding what DP can learn).  ASP sees a single PC with incoherent
 * strides and learns nothing.
 *
 * This models the paper's history-driven applications (gcc, crafty,
 * ammp, mcf, vpr, twolf, lucas, ...).
 */
class HistoryLoop : public RefStream
{
  public:
    struct Config
    {
        Vpn basePage = 1ull << 20;
        std::uint64_t footprintPages = 512; ///< distinct pages (approx)
        std::uint64_t seqLen = 512;         ///< steps per pass
        std::uint32_t alphabetSize = 12;    ///< distinct distances used
        double skew = 0.7; ///< P(distance follows its canonical successor)
        std::uint32_t refsPerStep = 16;
        std::uint32_t passes = 8;
        std::uint64_t seed = 1;
        Addr pcBase = 0x400000;
        /**
         * Probability that a step is part of a burst (dwell of only
         * 1-3 references before the next page, so misses cluster
         * back-to-back).  Non-burst steps dwell longer to keep the
         * average miss rate at ~1/refsPerStep.  Real pointer codes
         * miss in bursts, which is what exposes RP's per-miss memory
         * traffic in the paper's Table 3 cycle experiment.
         */
        double burstiness = 0.0;
    };

    explicit HistoryLoop(const Config &config);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

    /** The generated page sequence (tests). */
    const std::vector<Vpn> &sequence() const { return _sequence; }

  private:
    void buildSequence();
    std::uint32_t stepDwell();
    /** Move past @p count references of the current dwell step. */
    void advance(std::uint32_t count);

    Config _config;
    std::vector<Vpn> _sequence;
    Rng _dwellRng{1};
    std::uint64_t _pos = 0;
    std::uint32_t _dwell = 0;
    std::uint32_t _dwellTarget = 0;
    std::uint32_t _pass = 0;
};

/**
 * Alternating traversals of the same page set under two different
 * permutations — the paper's parser/vortex pattern where each page has
 * two alternating successors, which MP's two slots capture but RP's
 * single stack neighbourhood cannot.
 */
class AlternatingPermutations : public RefStream
{
  public:
    struct Config
    {
        Vpn basePage = 1ull << 20;
        std::uint64_t numPages = 256;
        std::uint32_t rounds = 16; ///< total traversals (S1,S2,S1,...)
        std::uint32_t refsPerStep = 16;
        std::uint64_t seed = 1;
        Addr pcBase = 0x400000;
    };

    explicit AlternatingPermutations(const Config &config);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    /** Move past @p count references of the current dwell step. */
    void advance(std::uint32_t count);

    Config _config;
    std::vector<Vpn> _perm[2];
    std::uint64_t _pos = 0;
    std::uint32_t _dwell = 0;
    std::uint32_t _round = 0;
};

/**
 * Zipf-popularity references over a spatially shuffled page set: no
 * strides, no repeating history (category (e), fma3d-like).
 */
class ZipfMix : public RefStream
{
  public:
    struct Config
    {
        Vpn basePage = 1ull << 20;
        std::uint64_t numPages = 4096;
        double zipfSkew = 0.9;
        std::uint64_t steps = 100000;
        std::uint32_t refsPerStep = 8;
        std::uint64_t seed = 1;
        Addr pcBase = 0x400000;
    };

    explicit ZipfMix(const Config &config);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    /** Move past @p count references of the current dwell step. */
    void advance(std::uint32_t count);

    Config _config;
    Rng _rng;
    ZipfSampler _zipf;
    std::vector<Vpn> _pageMap; ///< rank -> shuffled page
    std::uint64_t _step = 0;
    std::uint32_t _dwell = 0;
    Vpn _page;
};

/**
 * Assigns instruction counts to a composed stream: reference i carries
 * icount = round(i * instr_per_ref).  Applied once, outermost.
 */
class PaceStream : public RefStream
{
  public:
    PaceStream(std::unique_ptr<RefStream> inner, double instr_per_ref);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

    double instrPerRef() const { return _instrPerRef; }

  private:
    std::unique_ptr<RefStream> _inner;
    double _instrPerRef;
    std::uint64_t _emitted = 0;
};

/**
 * Interleave @p streams round-robin with @p chunk references from each
 * stream per turn (distinct arrays walked by distinct loop PCs).
 */
std::unique_ptr<RefStream>
makeMultiStreamScan(std::vector<StridedScan::Config> streams,
                    std::uint32_t chunk = 1);

} // namespace tlbpf

#endif // TLBPF_WORKLOAD_GENERATORS_HH
