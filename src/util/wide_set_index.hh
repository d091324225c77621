/**
 * @file
 * Lookup and replacement acceleration for wide associative sets,
 * shared by the TLB and the prediction tables.
 *
 * A set-associative structure with true-LRU replacement scans every
 * way of a set on each probe and each victim choice.  The fully
 * associative geometries the paper sweeps (the 128-entry default TLB,
 * the F prediction tables of up to 1024 rows) turn that into a scan
 * of hundreds of rows per reference or per miss.  WideSetIndex
 * replaces both scans with O(1) work:
 *
 *  - an open-addressing key -> slot index (Fibonacci hashing,
 *    linear probing, backward-shift deletion, so lookups need no
 *    tombstones) whose buckets carry the key beside the slot, so
 *    neither a probe step nor a rehome loads the owner's row;
 *  - per-set intrusive recency lists kept in the same order as the
 *    rows' lastUse clocks, so the LRU victim is the list tail.
 *
 * It is pure acceleration.  The owner's rows (key, lastUse, valid)
 * stay authoritative and are all the owner serializes; after a
 * restore the owner calls rebuild(), which derives the index and the
 * lists from the rows.  add() refuses a key the index already holds,
 * which is the owner's double-insert check for free: the probe walks
 * the key's whole chain anyway.  Replacement picks exactly the slot the
 * per-set scan would: free ways in way order, else the unique
 * minimum-clock row.  Sets narrower than kIndexMinWays are cheaper to
 * scan than to hash, so for them the index stays disabled and the
 * owner keeps its scan; the geometry alone decides.
 */

#ifndef TLBPF_UTIL_WIDE_SET_INDEX_HH
#define TLBPF_UTIL_WIDE_SET_INDEX_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"

namespace tlbpf
{

/** Sets narrower than this are cheaper to scan than to hash. */
inline constexpr std::uint32_t kIndexMinWays = 16;

/**
 * Key index and recency lists over an owner's row array.
 *
 * @tparam Row the owner's row type: it must have `bool valid` and
 *             `std::uint64_t lastUse` members.
 * @tparam Key pointer to the row's std::uint64_t key member.
 *
 * Rows are laid out set-major: slot s belongs to set s / ways.  The
 * calls that read rows take them as an argument, so the index holds
 * no pointer into them and the owner stays freely copyable.
 */
template <typename Row, auto Key>
class WideSetIndex
{
  public:
    /** Slot sentinel: "not found", "empty bucket", list ends. */
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /**
     * Index for @p sets sets of @p ways ways; disabled when
     * @p ways < kIndexMinWays.
     */
    WideSetIndex(std::size_t sets, std::uint32_t ways) : _ways(ways)
    {
        if (ways < kIndexMinWays)
            return;
        // A power-of-two capacity at least 4x the row count keeps the
        // load factor under 25%, so linear probes terminate quickly.
        _bits = 6;
        while ((std::size_t{1} << _bits) < sets * ways * 4)
            ++_bits;
        _buckets.assign(std::size_t{1} << _bits, Bucket{});
        _links.assign(sets * ways, Link{});
        _sets.assign(sets, SetLru{});
    }

    /** True when the owner should use this instead of scanning. */
    bool enabled() const { return !_buckets.empty(); }

    /** Slot of the valid row holding @p key, or kNoSlot. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        std::size_t mask = _buckets.size() - 1;
        std::size_t b = hashBucket(key, _bits);
        while (_buckets[b].slot != kNoSlot) {
            if (_buckets[b].key == key)
                return _buckets[b].slot;
            b = (b + 1) & mask;
        }
        return kNoSlot;
    }

    /** Move @p slot to the head of its set's list (after a hit). */
    void
    touch(std::uint32_t slot)
    {
        unlink(slot);
        pushFront(slot);
    }

    /**
     * The slot the LRU scan would fill in the set whose first slot is
     * @p base: its first free way, else its least recently used row.
     */
    std::uint32_t
    victim(const std::vector<Row> &rows, std::size_t base) const
    {
        const SetLru &set = _sets[setOf(base)];
        if (set.resident < _ways) {
            for (std::size_t w = 0; w < _ways; ++w) {
                if (!rows[base + w].valid)
                    return static_cast<std::uint32_t>(base + w);
            }
        }
        // The list tail is the unique minimum-clock row.
        return set.tail;
    }

    /** Valid rows in the set whose first slot is @p base. */
    std::uint32_t
    resident(std::size_t base) const
    {
        return _sets[setOf(base)].resident;
    }

    /**
     * Start tracking @p slot, just filled with @p key and the newest
     * use clock.  Panics if another slot already holds @p key.
     */
    void
    add(std::uint64_t key, std::uint32_t slot)
    {
        std::size_t mask = _buckets.size() - 1;
        std::size_t b = hashBucket(key, _bits);
        while (_buckets[b].slot != kNoSlot) {
            tlbpf_assert(_buckets[b].key != key, "double insert of key ",
                         key);
            b = (b + 1) & mask;
        }
        _buckets[b] = Bucket{key, slot};
        pushFront(slot);
        ++_sets[setOf(slot)].resident;
    }

    /** Stop tracking @p slot, the valid row holding @p key. */
    void
    remove(std::uint64_t key, std::uint32_t slot)
    {
        std::size_t mask = _buckets.size() - 1;
        std::size_t b = hashBucket(key, _bits);
        while (_buckets[b].slot != slot) {
            tlbpf_assert(_buckets[b].slot != kNoSlot,
                         "wide-set index missing slot ", slot,
                         " on remove");
            b = (b + 1) & mask;
        }
        // Backward-shift deletion: walk the probe chain after the
        // hole and rehome any element whose probe path crossed it.
        std::size_t hole = b;
        std::size_t i = (b + 1) & mask;
        while (_buckets[i].slot != kNoSlot) {
            std::size_t home = hashBucket(_buckets[i].key, _bits);
            if (((i - home) & mask) >= ((i - hole) & mask)) {
                _buckets[hole] = _buckets[i];
                hole = i;
            }
            i = (i + 1) & mask;
        }
        _buckets[hole] = Bucket{};
        unlink(slot);
        --_sets[setOf(slot)].resident;
    }

    /** Forget every row (the owner invalidated them all). */
    void
    clear()
    {
        std::fill(_buckets.begin(), _buckets.end(), Bucket{});
        std::fill(_links.begin(), _links.end(), Link{});
        std::fill(_sets.begin(), _sets.end(), SetLru{});
    }

    /**
     * Re-derive the index and lists from @p rows (after a restore).
     * The owner must already have rejected duplicate keys and keys in
     * the wrong set, or lookups would find the wrong row.
     */
    void
    rebuild(const std::vector<Row> &rows)
    {
        clear();
        std::vector<std::uint32_t> order;
        order.reserve(rows.size());
        for (std::uint32_t slot = 0; slot < rows.size(); ++slot) {
            if (rows[slot].valid)
                order.push_back(slot);
        }
        // Adding in ascending clock order leaves each set's most
        // recently used row at the head; the stable sort puts the
        // lowest way at the tail among equal clocks, as the scan's
        // strict comparison would.
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return rows[a].lastUse < rows[b].lastUse;
                         });
        for (std::uint32_t slot : order)
            add(rows[slot].*Key, slot);
    }

  private:
    /** One index bucket: a key and its row slot; empty at kNoSlot. */
    struct Bucket
    {
        std::uint64_t key = 0;
        std::uint32_t slot = kNoSlot;
    };

    /** Intrusive recency-list links of one slot. */
    struct Link
    {
        std::uint32_t prev = kNoSlot; ///< toward the head (newer)
        std::uint32_t next = kNoSlot; ///< toward the tail (older)
    };

    /** Recency list endpoints and fill level of one set. */
    struct SetLru
    {
        std::uint32_t head = kNoSlot; ///< most recently used
        std::uint32_t tail = kNoSlot; ///< LRU victim candidate
        std::uint32_t resident = 0;
    };

    /**
     * Set of @p slot.  Fully-associative geometries, the common wide
     * case, have one set, and skip the division.
     */
    std::size_t
    setOf(std::size_t slot) const
    {
        return _sets.size() == 1 ? 0 : slot / _ways;
    }

    void
    unlink(std::uint32_t slot)
    {
        SetLru &set = _sets[setOf(slot)];
        Link &l = _links[slot];
        if (l.prev != kNoSlot)
            _links[l.prev].next = l.next;
        else
            set.head = l.next;
        if (l.next != kNoSlot)
            _links[l.next].prev = l.prev;
        else
            set.tail = l.prev;
        l = Link{};
    }

    void
    pushFront(std::uint32_t slot)
    {
        SetLru &set = _sets[setOf(slot)];
        Link &l = _links[slot];
        l.prev = kNoSlot;
        l.next = set.head;
        if (set.head != kNoSlot)
            _links[set.head].prev = slot;
        set.head = slot;
        if (set.tail == kNoSlot)
            set.tail = slot;
    }

    std::uint32_t _ways;
    /** log2 of the bucket count. */
    unsigned _bits = 0;
    /** Open-addressing buckets; empty when disabled. */
    std::vector<Bucket> _buckets;
    std::vector<Link> _links;
    std::vector<SetLru> _sets;
};

} // namespace tlbpf

#endif // TLBPF_UTIL_WIDE_SET_INDEX_HH
