/**
 * @file
 * The prefetch buffer shared by every mechanism (paper Section 2).
 *
 * Prefetched translations land here, not in the TLB, so prefetching can
 * never raise the TLB miss rate.  The buffer is probed concurrently
 * with the TLB; on a hit the entry is promoted into the TLB and removed
 * from the buffer.  It is small (default 16 entries) and fully
 * associative with LRU replacement, so an over-aggressive prefetcher
 * evicts its own entries before they are used — the effect the paper
 * observes for ASP at r=1024.
 */

#ifndef TLBPF_TLB_PREFETCH_BUFFER_HH
#define TLBPF_TLB_PREFETCH_BUFFER_HH

#include <cstdint>
#include <vector>

#include "mem/prefetch_channel.hh"
#include "trace/ref_stream.hh"
#include "util/snapshot.hh"

namespace tlbpf
{

/** Fully-associative LRU buffer of prefetched translations. */
class PrefetchBuffer
{
  public:
    explicit PrefetchBuffer(std::uint32_t entries);

    /**
     * Probe for @p vpn and, on a hit, remove the entry (it moves to the
     * TLB).
     *
     * @param[out] ready_at completion time of the prefetch that brought
     *                      the entry in (timing model), 0 if untimed.
     * @return true on hit.
     */
    bool hitAndPromote(Vpn vpn, Tick &ready_at);

    /** Probe without removal (duplicate suppression). */
    bool contains(Vpn vpn) const;

    /**
     * Insert @p vpn, a prefetched translation ready at @p ready_at,
     * unless it is already buffered, in one scan: the duplicate check
     * and the fill of the prefetch issue path.  A full buffer evicts
     * its LRU entry.
     * @return true if inserted, false if @p vpn was present (its
     *         recency and ready time are left alone).
     */
    bool
    insertIfAbsent(Vpn vpn, Tick ready_at = 0)
    {
        for (const Node &node : _nodes)
            if (node.vpn == vpn)
                return false;
        fill(vpn, ready_at);
        return true;
    }

    void flush();

    std::uint32_t capacity() const { return _capacity; }
    std::size_t size() const { return _nodes.size(); }

    /** Lifetime counters for prefetch-efficiency metrics. */
    std::uint64_t inserts() const { return _inserts; }
    std::uint64_t hits() const { return _hits; }
    std::uint64_t evictedUnused() const { return _evictedUnused; }

    /** Serialize contents in LRU order plus the lifetime counters. */
    void snapshotState(SnapshotWriter &out) const;

    /**
     * Restore state written by snapshotState() into a buffer of the
     * same capacity; throws std::invalid_argument on a mismatch.
     */
    void restoreState(SnapshotReader &in);

  private:
    struct Node
    {
        Vpn vpn;
        Tick readyAt;
    };

    /** Insert absent @p vpn at MRU, evicting the LRU entry if full. */
    void
    fill(Vpn vpn, Tick ready_at)
    {
        if (_nodes.size() >= _capacity) {
            _nodes.pop_back();
            ++_evictedUnused;
        }
        _nodes.insert(_nodes.begin(), Node{vpn, ready_at});
        ++_inserts;
    }

    std::uint32_t _capacity;
    /**
     * MRU-first flat array.  The buffer is probed on every reference
     * and mutated on every miss and prefetch, and at the default 16
     * entries the whole thing is four cache lines: linear scans and
     * memmove-style shifts are far cheaper than the list/hash-map pair
     * they replace, which paid an allocation per insert.
     */
    std::vector<Node> _nodes;

    std::uint64_t _inserts = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _evictedUnused = 0;
};

} // namespace tlbpf

#endif // TLBPF_TLB_PREFETCH_BUFFER_HH
