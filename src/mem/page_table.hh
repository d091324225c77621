/**
 * @file
 * Demand-populated page table plus the recency-stack links that the RP
 * mechanism stores inside the page table entries (Saulsbury et al.).
 *
 * RP is the only mechanism whose prediction state lives in memory: each
 * PTE carries two extra words (next/prev) threading an LRU stack of
 * pages evicted from the TLB.  The stack operations and their memory
 * cost accounting live in RecencyStack; the prefetcher in
 * prefetch/recency.cc is a thin client.
 */

#ifndef TLBPF_MEM_PAGE_TABLE_HH
#define TLBPF_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/ref_stream.hh"
#include "util/snapshot.hh"

namespace tlbpf
{

/** Physical frame number. */
using Pfn = std::uint64_t;

/** One page table entry: translation plus RP's stack link words. */
struct PageTableEntry
{
    Pfn pfn = 0;
    /** RP recency-stack links; kNoPage when unlinked. */
    Vpn next = UINT64_MAX;
    Vpn prev = UINT64_MAX;
    bool inStack = false;
};

/** Sentinel meaning "no page". */
constexpr Vpn kNoPage = UINT64_MAX;

/**
 * Single-address-space page table.  Translations are allocated on first
 * touch with a deterministic VPN->PFN mapping (identity permuted by a
 * mix function, which is irrelevant to prefetching behaviour but keeps
 * the model honest about translation existence).
 */
class PageTable
{
  public:
    PageTable();

    /** Translate, allocating the PTE on first touch. */
    PageTableEntry &lookup(Vpn vpn);

    /** Translation without allocation; nullptr if never touched. */
    const PageTableEntry *find(Vpn vpn) const;
    PageTableEntry *find(Vpn vpn);

    /** Number of PTEs materialised (the footprint in pages). */
    std::size_t size() const { return _size; }

    /** Pages materialised in this table, @p other, or both. */
    std::size_t unionSize(const PageTable &other) const;

    /**
     * Bytes of extra page-table storage RP's two link words cost,
     * assuming 8-byte words (used by the Table 1 bench).
     */
    std::uint64_t recencyOverheadBytes() const { return size() * 16; }

    void clear();

    /**
     * Serialize every PTE (translation plus RP's stack links) in
     * ascending-VPN order, so the byte string is canonical even
     * though the backing container is unordered.
     */
    void snapshotState(SnapshotWriter &out) const;

    /** Restore state written by snapshotState(). */
    void restoreState(SnapshotReader &in);

  private:
    struct Slot
    {
        Vpn vpn = kNoPage;
        PageTableEntry pte;
    };

    /** log2 of the entries per pool chunk. */
    static constexpr unsigned kChunkBits = 9;
    static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

    /** Pool entry @p idx (< size()). */
    Slot &slot(std::uint32_t idx)
    {
        return _chunks[idx >> kChunkBits][idx & kChunkMask];
    }
    const Slot &slot(std::uint32_t idx) const
    {
        return _chunks[idx >> kChunkBits][idx & kChunkMask];
    }

    /** Map bucket holding @p vpn, or the empty bucket it would use. */
    std::size_t probe(Vpn vpn) const;
    /** Double the bucket array and rehome every pool index. */
    void grow();

    /**
     * Entry pool plus an open-addressing vpn -> pool-index map
     * (Fibonacci hashing, linear probing, load kept under 50%).
     * Translation is on the per-miss path, and RP's stack maintenance
     * does several translations per miss, so a probe is one bucket
     * load and one pool load: a pool index splits into a chunk and an
     * offset by a shift and a mask.  The pool grows a fixed-size
     * chunk at a time and never relocates an entry, so the
     * PageTableEntry references lookup()/find() hand out stay valid
     * for the table's lifetime; RecencyStack holds one across further
     * lookups.  Buckets hold only the 4-byte index: the VPN stays in
     * the pool, which keeps the map a quarter of the size.  clear()
     * keeps the chunks for reuse.
     */
    std::vector<std::unique_ptr<Slot[]>> _chunks;
    std::uint32_t _size = 0;
    std::vector<std::uint32_t> _map;
    /** log2 of the bucket count. */
    unsigned _mapBits;
};

/**
 * The LRU stack of TLB-evicted pages used by Recency Prefetching,
 * threaded through the page table.  Tracks the number of memory word
 * operations performed so the timing model can charge them.
 *
 * Per the paper (Section 3.2): unlinking the missing page costs 2
 * references, pushing the evicted TLB entry costs 2, and fetching the
 * two stack neighbours for prefetching costs 2 more — up to 6 per miss.
 */
class RecencyStack
{
  public:
    explicit RecencyStack(PageTable &pt) : _pt(pt) {}

    /** Widest neighbourhood the 3-entry RP variant may request. */
    static constexpr unsigned kMaxNeighbors = 4;

    /** Result of a miss-time stack update. */
    struct UpdateResult
    {
        /** Stack neighbours of the missed page (prefetch candidates). */
        Vpn neighbors[kMaxNeighbors] = {kNoPage, kNoPage, kNoPage,
                                        kNoPage};
        unsigned numNeighbors = 0;
        /** Pointer-word memory operations performed (excl. prefetch). */
        unsigned pointerOps = 0;
    };

    /**
     * Handle a TLB miss to @p missed while the TLB evicted
     * @p evicted (kNoPage if the TLB had a free slot).
     *
     * Removes @p missed from the stack (recording its neighbours as
     * prefetch candidates) and pushes @p evicted on top.
     *
     * @param reach neighbours to record per side (1 = the paper's
     *              default two-entry RP; 2 enables the wider variant
     *              Saulsbury et al. discuss).  Closest first.
     */
    UpdateResult onMiss(Vpn missed, Vpn evicted, unsigned reach = 1);

    /** Stack top (most recently evicted page), kNoPage if empty. */
    Vpn top() const { return _top; }

    /** Number of pages currently linked in the stack. */
    std::size_t linkedCount() const { return _linked; }

    /** True if @p vpn is currently linked. */
    bool contains(Vpn vpn) const;

    void reset();

    /**
     * Serialize the stack head and link count.  The links themselves
     * live in the page table entries, so a full checkpoint must pair
     * this with PageTable::snapshotState().
     */
    void snapshotState(SnapshotWriter &out) const;

    /** Restore state written by snapshotState(). */
    void restoreState(SnapshotReader &in);

  private:
    void unlink(Vpn vpn, UpdateResult &res);
    void push(Vpn vpn, UpdateResult &res);

    PageTable &_pt;
    Vpn _top = kNoPage;
    std::size_t _linked = 0;
};

} // namespace tlbpf

#endif // TLBPF_MEM_PAGE_TABLE_HH
