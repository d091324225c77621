/**
 * @file
 * The set-associative, true-LRU array under the TLB and the
 * prediction tables.
 *
 * The paper models the TLB (64/128/256 entries; 2-way, 4-way or fully
 * associative) and every prediction table (D/2/4/F) as one structure:
 * tagged rows in sets, the least recently used row of a full set
 * replaced.  LruSets is that structure.  Its owners add only what
 * differs between them: the TLB's clock advances by the references a
 * hit stands for and a prediction table's by one per access, so each
 * owner keeps its clock and hands every touch and fill the new value.
 *
 * Rows {key, lastUse, valid, payload} are laid out set-major, and key
 * k belongs to set k & (sets - 1).  A set narrower than kIndexMinWays
 * is scanned.  A wider one (the paper's fully associative geometries:
 * the 128-entry default TLB, F tables of up to 1024 rows) would make
 * that a scan of hundreds of rows per probe, so it is indexed:
 *
 *  - an open-addressing key -> slot index (Fibonacci hashing, linear
 *    probing, backward-shift deletion, so lookups need no tombstones)
 *    whose buckets carry the key beside the slot, so neither a probe
 *    step nor a rehome loads a row;
 *  - per-set intrusive recency lists kept in the same order as the
 *    rows' lastUse clocks, so the LRU victim is the list tail.
 *
 * The geometry alone decides, and both kinds of set fill the same
 * slot: the set's first free way, else its unique minimum-clock row.
 * The rows stay authoritative.  A snapshot holds only them, and a
 * restore checks them (row count, every key in its own set, no key
 * twice) before it derives the index and the lists from them.
 */

#ifndef TLBPF_UTIL_LRU_SETS_HH
#define TLBPF_UTIL_LRU_SETS_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/snapshot.hh"

namespace tlbpf
{

/** Sets narrower than this are cheaper to scan than to index. */
inline constexpr std::uint32_t kIndexMinWays = 16;

/** Payload of rows that hold nothing but their key (the TLB's). */
struct NoPayload
{
};

/**
 * Set-associative array of tagged rows with true-LRU replacement.
 *
 * @tparam Payload per-row state beside the key (default
 *                 constructible); reset to Payload{} on every fill.
 */
template <typename Payload = NoPayload>
class LruSets
{
  public:
    /** Slot sentinel: "not found", "empty bucket", list ends. */
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    struct Row
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        [[no_unique_address]] Payload payload{};
    };

    /** What insert() did: the slot it filled and the key it evicted. */
    struct Fill
    {
        std::uint32_t slot;
        std::optional<std::uint64_t> evicted;
    };

    /**
     * @p sets sets of @p ways ways.  The owner rejects geometries
     * whose set count is not a power of two.
     */
    LruSets(std::uint32_t sets, std::uint32_t ways)
        : _sets(sets), _ways(ways),
          _rows(static_cast<std::size_t>(sets) * ways)
    {
        if (ways < kIndexMinWays)
            return;
        // A power-of-two capacity at least 4x the row count keeps the
        // load factor under 25%, so linear probes terminate quickly.
        _bits = 6;
        while ((std::size_t{1} << _bits) < _rows.size() * 4)
            ++_bits;
        _buckets.assign(std::size_t{1} << _bits, Bucket{});
        _links.assign(_rows.size(), Link{});
        _lru.assign(sets, SetLru{});
    }

    std::uint32_t ways() const { return _ways; }

    /** The set @p key belongs to. */
    std::size_t setOf(std::uint64_t key) const { return key & (_sets - 1); }

    /** Valid rows in the whole array. */
    std::uint32_t resident() const { return _resident; }

    /** Valid rows in set @p set. */
    std::uint32_t
    setFill(std::size_t set) const
    {
        if (indexed())
            return _lru[set].resident;
        std::uint32_t n = 0;
        for (std::size_t w = 0; w < _ways; ++w)
            n += _rows[set * _ways + w].valid;
        return n;
    }

    const Row &row(std::uint32_t slot) const { return _rows[slot]; }
    Payload &payload(std::uint32_t slot) { return _rows[slot].payload; }

    /** Slot of the valid row holding @p key, or kNoSlot. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        if (indexed()) {
            std::size_t mask = _buckets.size() - 1;
            std::size_t b = hashBucket(key, _bits);
            while (_buckets[b].slot != kNoSlot) {
                if (_buckets[b].key == key)
                    return _buckets[b].slot;
                b = (b + 1) & mask;
            }
            return kNoSlot;
        }
        std::size_t base = setOf(key) * _ways;
        for (std::size_t w = 0; w < _ways; ++w) {
            const Row &row = _rows[base + w];
            if (row.valid && row.key == key)
                return static_cast<std::uint32_t>(base + w);
        }
        return kNoSlot;
    }

    /** Mark the valid row at @p slot used at @p clock (a hit). */
    void
    touch(std::uint32_t slot, std::uint64_t clock)
    {
        _rows[slot].lastUse = clock;
        if (indexed() && _lru[setOfSlot(slot)].head != slot) {
            unlink(slot);
            pushFront(slot);
        }
    }

    /**
     * Fill @p key's set with @p key, used at @p clock: its first free
     * way, else its least recently used row, which is evicted.  Panics
     * if @p key is already resident.
     */
    Fill
    insert(std::uint64_t key, std::uint64_t clock)
    {
        // A resident @p key is caught without a probe of its own: the
        // scan visits every way, and in an indexed set @p key is
        // either the victim or on the chain index() walks.
        std::size_t set = setOf(key);
        std::size_t base = set * _ways;
        std::uint32_t slot = kNoSlot;
        if (indexed()) {
            // The list tail is the unique minimum-clock row.
            slot = _lru[set].resident < _ways ? firstFree(base)
                                              : _lru[set].tail;
        } else {
            std::uint32_t lru = kNoSlot;
            for (std::size_t w = 0; w < _ways; ++w) {
                const Row &row = _rows[base + w];
                if (!row.valid) {
                    if (slot == kNoSlot)
                        slot = static_cast<std::uint32_t>(base + w);
                    continue;
                }
                tlbpf_assert(row.key != key, "double insert of key ", key);
                if (lru == kNoSlot || row.lastUse < _rows[lru].lastUse)
                    lru = static_cast<std::uint32_t>(base + w);
            }
            if (slot == kNoSlot)
                slot = lru;
        }
        Row &row = _rows[slot];
        Fill done{slot, std::nullopt};
        if (row.valid) {
            tlbpf_assert(row.key != key, "double insert of key ", key);
            done.evicted = row.key;
            if (indexed())
                unindex(row.key, slot);
        } else {
            ++_resident;
        }
        row = Row{key, clock, true, Payload{}};
        if (indexed())
            index(key, slot);
        return done;
    }

    /**
     * Drop the row holding @p key, if resident.
     * @return true if it was.
     */
    bool
    remove(std::uint64_t key)
    {
        std::uint32_t slot = find(key);
        if (slot == kNoSlot)
            return false;
        if (indexed())
            unindex(key, slot);
        _rows[slot].valid = false;
        --_resident;
        return true;
    }

    /** Drop every row. */
    void
    clear()
    {
        for (Row &row : _rows)
            row.valid = false;
        _resident = 0;
        clearIndex();
    }

    /**
     * Hold the rows of @p smaller, a no larger array of the same
     * associativity (as many ways per set, or one set each) that
     * never evicted a row.  Its sets split into this array's (set
     * counts are powers of two), so each row fits.  Rows are placed set by set in @p smaller's way order,
     * which is their insertion order: an array that never evicted
     * fills each set's free ways first to last.
     */
    void
    adopt(const LruSets &smaller)
    {
        std::fill(_rows.begin(), _rows.end(), Row{});
        std::vector<std::uint32_t> filled(_sets, 0);
        for (const Row &row : smaller._rows) {
            if (!row.valid)
                continue;
            std::size_t set = setOf(row.key);
            std::uint32_t &way = filled[set];
            tlbpf_assert(way < _ways, "adopted row overflows its set");
            _rows[set * _ways + way++] = row;
        }
        rebuild();
    }

    /**
     * Serialize the row count, then every row in slot order: its
     * valid flag and, if valid, key, lastUse and (through
     * @p write_payload) payload.  The bytes are canonical for a given
     * array state.
     */
    template <typename WritePayload>
    void
    snapshotState(SnapshotWriter &out, WritePayload &&write_payload) const
    {
        out.u64(_rows.size());
        for (const Row &row : _rows) {
            out.boolean(row.valid);
            if (!row.valid)
                continue;
            out.u64(row.key);
            out.u64(row.lastUse);
            write_payload(out, row.payload);
        }
    }

    /**
     * Restore rows written by snapshotState() into an array of the
     * same geometry.  Throws std::invalid_argument (via
     * SnapshotReader::fail, naming the owner @p what) if the row
     * count differs, a key sits in the wrong set or a key is stored
     * twice: a scan would merely hide such rows, but the index would
     * find them.
     */
    template <typename ReadPayload>
    void
    restoreState(SnapshotReader &in, const std::string &what,
                 ReadPayload &&read_payload)
    {
        std::uint64_t count = in.u64();
        if (count != _rows.size())
            SnapshotReader::fail(what + " has " + std::to_string(count) +
                                 " rows, expected " +
                                 std::to_string(_rows.size()));
        std::vector<std::uint64_t> keys;
        keys.reserve(_rows.size());
        for (std::size_t slot = 0; slot < _rows.size(); ++slot) {
            Row &row = _rows[slot];
            row = Row{};
            row.valid = in.boolean();
            if (!row.valid)
                continue;
            row.key = in.u64();
            if (setOf(row.key) != slot / _ways)
                SnapshotReader::fail(what + " checkpoint places key " +
                                     std::to_string(row.key) +
                                     " in the wrong set");
            row.lastUse = in.u64();
            read_payload(in, row.payload);
            keys.push_back(row.key);
        }
        std::sort(keys.begin(), keys.end());
        if (std::adjacent_find(keys.begin(), keys.end()) != keys.end())
            SnapshotReader::fail("duplicate " + what + " key in checkpoint");
        rebuild();
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

    /** Recency list endpoints and fill level of one indexed set. */
    struct SetLru
    {
        std::uint32_t head = kNoSlot; ///< most recently used
        std::uint32_t tail = kNoSlot; ///< LRU victim candidate
        std::uint32_t resident = 0;
    };

    bool indexed() const { return !_buckets.empty(); }

    /**
     * Set of @p slot.  Fully associative geometries, the common
     * indexed case, have one set, and skip the division.
     */
    std::size_t
    setOfSlot(std::size_t slot) const
    {
        return _sets == 1 ? 0 : slot / _ways;
    }

    std::uint32_t
    firstFree(std::size_t base) const
    {
        std::size_t w = 0;
        while (_rows[base + w].valid)
            ++w;
        return static_cast<std::uint32_t>(base + w);
    }

    /** Index @p slot, just filled with @p key at the newest clock. */
    void
    index(std::uint64_t key, std::uint32_t slot)
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
        ++_lru[setOfSlot(slot)].resident;
    }

    /** Stop indexing @p slot, the valid row holding @p key. */
    void
    unindex(std::uint64_t key, std::uint32_t slot)
    {
        std::size_t mask = _buckets.size() - 1;
        std::size_t b = hashBucket(key, _bits);
        while (_buckets[b].slot != slot) {
            tlbpf_assert(_buckets[b].slot != kNoSlot,
                         "LRU index missing slot ", slot, " on remove");
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
        --_lru[setOfSlot(slot)].resident;
    }

    void
    clearIndex()
    {
        std::fill(_buckets.begin(), _buckets.end(), Bucket{});
        std::fill(_links.begin(), _links.end(), Link{});
        std::fill(_lru.begin(), _lru.end(), SetLru{});
    }

    /**
     * Re-derive the resident count, the index and the lists from the
     * rows (after a restore or an adopt).  The rows must hold no
     * duplicate key and no key in the wrong set.
     */
    void
    rebuild()
    {
        _resident = static_cast<std::uint32_t>(
            std::count_if(_rows.begin(), _rows.end(),
                          [](const Row &row) { return row.valid; }));
        if (!indexed())
            return;
        clearIndex();
        std::vector<std::uint32_t> order;
        order.reserve(_resident);
        for (std::uint32_t slot = 0; slot < _rows.size(); ++slot) {
            if (_rows[slot].valid)
                order.push_back(slot);
        }
        // Indexing in ascending clock order leaves each set's most
        // recently used row at the head; the stable sort puts the
        // lowest way at the tail among equal clocks, as the scan's
        // strict comparison would.
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return _rows[a].lastUse < _rows[b].lastUse;
                         });
        for (std::uint32_t slot : order)
            index(_rows[slot].key, slot);
    }

    void
    unlink(std::uint32_t slot)
    {
        SetLru &set = _lru[setOfSlot(slot)];
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
        SetLru &set = _lru[setOfSlot(slot)];
        Link &l = _links[slot];
        l.prev = kNoSlot;
        l.next = set.head;
        if (set.head != kNoSlot)
            _links[set.head].prev = slot;
        set.head = slot;
        if (set.tail == kNoSlot)
            set.tail = slot;
    }

    std::uint32_t _sets;
    std::uint32_t _ways;
    /** sets * ways rows, set-major; authoritative. */
    std::vector<Row> _rows;
    std::uint32_t _resident = 0;
    /** log2 of the bucket count. */
    unsigned _bits = 0;
    /** Open-addressing buckets; empty when sets are scanned. */
    std::vector<Bucket> _buckets;
    std::vector<Link> _links;
    std::vector<SetLru> _lru;
};

} // namespace tlbpf

#endif // TLBPF_UTIL_LRU_SETS_HH
