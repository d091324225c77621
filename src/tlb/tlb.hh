/**
 * @file
 * Set-associative / fully-associative data TLB with true-LRU
 * replacement, matching the configurations evaluated in the paper
 * (64/128/256 entries; 2-way, 4-way and fully associative).
 *
 * The entries are an LruSets array (util/lru_sets.hh), which owns
 * the set layout, lookup, replacement and the entry rows' snapshot.
 * The TLB adds its recency clock, which a hit on a page run advances
 * by the run's length, and a last-hit slot that lets a repeated page
 * skip the lookup.
 */

#ifndef TLBPF_TLB_TLB_HH
#define TLBPF_TLB_TLB_HH

#include <cstdint>
#include <optional>

#include "trace/ref_stream.hh"
#include "util/snapshot.hh"
#include "util/lru_sets.hh"

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
    std::uint32_t residentCount() const { return _entries.resident(); }

    /** Serialize the recency clock, then the entries (set order). */
    void snapshotState(SnapshotWriter &out) const;

    /**
     * Restore state written by snapshotState() into a TLB of the same
     * geometry; throws std::invalid_argument on a mismatch.
     */
    void restoreState(SnapshotReader &in);

  private:
    TlbConfig _config;
    LruSets<> _entries;
    std::uint64_t _clock = 0;
    /**
     * Slot of the most recent hit or fill: consecutive references to
     * the same page skip the lookup.  The cached entry is by
     * construction its set's most recently used, so a touch only
     * restamps its use clock.
     */
    std::uint32_t _lastHit = LruSets<>::kNoSlot;
};

} // namespace tlbpf

#endif // TLBPF_TLB_TLB_HH
