/**
 * @file
 * Set-associative / fully-associative data TLB with true-LRU
 * replacement, matching the configurations evaluated in the paper
 * (64/128/256 entries; 2-way, 4-way and fully associative).
 */

#ifndef TLBPF_TLB_TLB_HH
#define TLBPF_TLB_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/ref_stream.hh"
#include "util/snapshot.hh"
#include "util/wide_set_index.hh"

namespace tlbpf
{

/** TLB geometry. */
struct TlbConfig
{
    std::uint32_t entries = 128; ///< total entries
    /** Ways per set; 0 means fully associative. */
    std::uint32_t assoc = 0;

    /** Number of sets implied by the geometry. */
    std::uint32_t
    numSets() const
    {
        return assoc == 0 ? 1 : entries / assoc;
    }

    bool operator==(const TlbConfig &other) const = default;
};

/**
 * The TLB proper.  Tracks only which translations are resident — the
 * translation payload lives in the page table.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Probe for @p vpn on behalf of @p count consecutive references to
     * it (a page run); on a hit the recency clock advances by
     * @p count, exactly as @p count single-reference hits would
     * leave it.  A miss leaves the clock alone.
     * @return true on hit.
     */
    bool access(Vpn vpn, std::uint64_t count = 1);

    /** Probe without touching replacement state. */
    bool contains(Vpn vpn) const;

    /**
     * Install @p vpn, evicting the set's LRU victim if full.
     * @return the evicted VPN, or std::nullopt if a free slot existed.
     *
     * Installing a VPN that is already resident is a caller bug.
     */
    std::optional<Vpn> insert(Vpn vpn);

    /**
     * Drop one entry if resident (back-invalidation from an outer
     * level).
     * @return true if the entry was present.
     */
    bool invalidate(Vpn vpn);

    /** Drop every entry (context-switch flush). */
    void flush();

    const TlbConfig &config() const { return _config; }
    std::uint32_t residentCount() const { return _resident; }

    /** Serialize entries (set order) and the recency clock. */
    void snapshotState(SnapshotWriter &out) const;

    /**
     * Restore state written by snapshotState() into a TLB of the same
     * geometry; throws std::invalid_argument on a mismatch.
     */
    void restoreState(SnapshotReader &in);

  private:
    struct Entry
    {
        Vpn vpn = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t setIndex(Vpn vpn) const;
    /** Slot of the valid entry for @p vpn, or UINT32_MAX. */
    std::uint32_t findSlot(Vpn vpn) const;

    TlbConfig _config;
    std::uint32_t _ways;
    std::vector<Entry> _entries; // sets * ways, row-major by set
    std::uint64_t _clock = 0;
    std::uint32_t _resident = 0;
    /**
     * Lookup index and recency lists for wide sets (the paper's
     * fully-associative default would otherwise scan 128 ways per
     * reference and per miss).  Pure acceleration: _entries stays
     * authoritative, so replacement and the snapshot byte format are
     * unchanged.  Disabled for narrow sets, which are scanned.
     */
    WideSetIndex<Entry, &Entry::vpn> _wide;
    /**
     * Slot of the most recent hit or fill: consecutive references to
     * the same page short-circuit the probe entirely.  The cached
     * entry is by construction at the head of its set's recency list,
     * so only its use clock needs touching.
     */
    std::uint32_t _lastHit = UINT32_MAX;
};

} // namespace tlbpf

#endif // TLBPF_TLB_TLB_HH
