/**
 * @file
 * Generic on-chip prediction table used by the ASP, MP and DP engines.
 *
 * The table has @c r rows organised as direct-mapped, set-associative
 * (2/4-way) or fully-associative storage with true-LRU replacement
 * within a set, exactly the configurations swept in the paper's
 * Figures 7-9.  Rows are tagged with the full key so aliasing behaves
 * like hardware would.
 *
 * The rows are an LruSets array (util/lru_sets.hh), as the TLB's
 * entries are: it owns the set layout, lookup, replacement, the rows'
 * snapshot and their restore checks, and indexes the wide sets of the
 * F geometries so that a 256-row fully-associative table costs O(1)
 * per access instead of a 256-row scan.  The table adds a clock that
 * advances once per access, hit/miss/eviction counters, and the
 * Payload reset of every allocated row.
 *
 * wouldEvict() and adopt() serve size families (sim/core.hh): tables
 * of one associativity whose row counts differ hold the same rows
 * until the smallest evicts, so a larger one can be derived from it
 * at that point instead of being simulated all along.
 */

#ifndef TLBPF_CORE_PREDICTION_TABLE_HH
#define TLBPF_CORE_PREDICTION_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/lru_sets.hh"
#include "util/snapshot.hh"

namespace tlbpf
{

/** Table indexing policy. */
enum class TableAssoc : std::uint32_t
{
    Direct = 1,
    TwoWay = 2,
    FourWay = 4,
    Full = 0
};

/** Short label used in figure legends: D, 2, 4, F. */
std::string assocLabel(TableAssoc assoc);

/** Parse "D"/"2"/"4"/"F" (fatal on anything else). */
TableAssoc parseAssoc(const std::string &label);

/** Geometry of a prediction table. */
struct TableConfig
{
    std::uint32_t rows = 256;
    TableAssoc assoc = TableAssoc::Direct;

    std::uint32_t
    ways() const
    {
        return assoc == TableAssoc::Full
                   ? rows
                   : static_cast<std::uint32_t>(assoc);
    }

    std::uint32_t numSets() const { return rows / ways(); }
};

/**
 * Tagged prediction table storing one Payload per row.
 *
 * @tparam Payload per-row prediction state (POD-ish, default
 *                 constructible).
 */
template <typename Payload>
class PredictionTable
{
  public:
    explicit PredictionTable(const TableConfig &config)
        : _config(config),
          _rows(config.ways() ? config.numSets() : 0, config.ways())
    {
        if (config.rows == 0)
            tlbpf_fatal("prediction table needs rows");
        if (config.rows % config.ways() != 0) {
            tlbpf_fatal("rows (", config.rows,
                        ") not a multiple of ways (", config.ways(), ")");
        }
        if (!isPowerOfTwo(config.numSets()))
            tlbpf_fatal("prediction table sets must be a power of two");
    }

    /**
     * Look up @p key; returns the payload and refreshes LRU on a hit,
     * nullptr on a miss.
     */
    Payload *
    find(std::uint64_t key)
    {
        std::uint32_t slot = _rows.find(key);
        if (slot == Rows::kNoSlot)
            return nullptr;
        _rows.touch(slot, ++_clock);
        ++_hits;
        return &_rows.payload(slot);
    }

    /** Look up without disturbing LRU or counters. */
    const Payload *
    peek(std::uint64_t key) const
    {
        std::uint32_t slot = _rows.find(key);
        return slot == Rows::kNoSlot ? nullptr : &_rows.row(slot).payload;
    }

    /**
     * Look up @p key, allocating (and default-initialising) the row if
     * absent, evicting the set's LRU victim when full.
     */
    Payload &
    findOrInsert(std::uint64_t key)
    {
        if (Payload *p = find(key))
            return *p;
        ++_misses;
        auto fill = _rows.insert(key, ++_clock);
        _evictions += fill.evicted.has_value();
        return _rows.payload(fill.slot);
    }

    /** True if a row for @p key is resident. */
    bool contains(std::uint64_t key) const { return peek(key) != nullptr; }

    /**
     * Whether findOrInsert() of each of @p keys, in order, would evict
     * a valid row.  A key already resident, or inserted by an earlier
     * key of the list, hits; every other key needs a free way in its
     * set, and earlier keys may have taken the set's last one.
     */
    bool
    wouldEvict(std::span<const std::uint64_t> keys) const
    {
        // Key i allocates a row: it is neither resident nor repeated.
        auto allocates = [&](std::size_t i) {
            return !contains(keys[i]) &&
                   std::find(keys.begin(), keys.begin() + i, keys[i]) ==
                       keys.begin() + i;
        };
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (!allocates(i))
                continue;
            std::size_t set = _rows.setOf(keys[i]);
            std::size_t used = _rows.setFill(set);
            for (std::size_t j = 0; j < i; ++j)
                used += _rows.setOf(keys[j]) == set && allocates(j);
            if (used >= _rows.ways())
                return true;
        }
        return false;
    }

    /**
     * Become the table a run of this geometry would hold had it seen
     * what @p smaller saw: @p smaller has the same associativity, at
     * most as many rows, and has never evicted a row (LruSets::adopt
     * places its rows).  The LRU clock, rows' use clocks and the
     * counters carry over.
     */
    void
    adopt(const PredictionTable &smaller)
    {
        tlbpf_assert(smaller._config.assoc == _config.assoc &&
                         smaller._config.rows <= _config.rows &&
                         smaller._evictions == 0,
                     "adopt needs a smaller table of the same "
                     "associativity that never evicted");
        _rows.adopt(smaller._rows);
        _clock = smaller._clock;
        _hits = smaller._hits;
        _misses = smaller._misses;
        _evictions = smaller._evictions;
    }

    void
    reset()
    {
        _rows.clear();
        _clock = 0;
        _hits = 0;
        _misses = 0;
        _evictions = 0;
    }

    const TableConfig &config() const { return _config; }
    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }

    /** Number of valid rows (for occupancy diagnostics). */
    std::size_t occupancy() const { return _rows.resident(); }

    /**
     * Serialize the table (LRU clock, hit/miss/eviction counters and
     * every valid row) into @p out.  @p write_payload emits one row's
     * Payload; rows are visited in physical order, so the byte string
     * is canonical for a given table state.
     */
    template <typename WritePayload>
    void
    snapshotState(SnapshotWriter &out, WritePayload &&write_payload) const
    {
        out.u64(_clock);
        out.u64(_hits);
        out.u64(_misses);
        out.u64(_evictions);
        _rows.snapshotState(out, write_payload);
    }

    /**
     * Restore state written by snapshotState() into a table of the
     * same geometry; throws std::invalid_argument (via
     * SnapshotReader::fail) on a mismatch or malformed rows.
     */
    template <typename ReadPayload>
    void
    restoreState(SnapshotReader &in, ReadPayload &&read_payload)
    {
        _clock = in.u64();
        _hits = in.u64();
        _misses = in.u64();
        _evictions = in.u64();
        _rows.restoreState(in, "prediction table", read_payload);
    }

    /**
     * snapshotState()/restoreState() for the common case of a SlotLru
     * payload (MP's successor pages, DP's distances): forwards each
     * row to the payload's own serializer, with @p slots as the
     * capacity every allocated row must carry.  Only instantiated by
     * tables whose Payload provides the methods.
     */
    void
    snapshotSlotState(SnapshotWriter &out) const
    {
        snapshotState(out, [](SnapshotWriter &w, const Payload &p) {
            p.snapshotState(w);
        });
    }

    void
    restoreSlotState(SnapshotReader &in, std::size_t slots)
    {
        restoreState(in, [slots](SnapshotReader &r, Payload &p) {
            p.restoreState(r, slots);
        });
    }

  private:
    using Rows = LruSets<Payload>;

    TableConfig _config;
    Rows _rows;
    std::uint64_t _clock = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

/**
 * Fixed-capacity LRU-ordered slot list: the per-row payload used by MP
 * (predicted pages) and DP (predicted distances).  Front = MRU.
 */
template <typename T, std::size_t MaxSlots = 8>
class SlotLru
{
  public:
    explicit SlotLru(std::size_t capacity) : _capacity(capacity)
    {
        tlbpf_assert(capacity >= 1 && capacity <= MaxSlots,
                     "slot capacity out of range");
    }

    SlotLru() : _capacity(2) {}

    /**
     * Record @p value: promote to MRU if present, otherwise insert at
     * MRU evicting the LRU slot when full.
     */
    void
    addOrPromote(const T &value)
    {
        for (std::size_t i = 0; i < _size; ++i) {
            if (_slots[i] == value) {
                // rotate [0, i] right so value lands at front
                for (std::size_t j = i; j > 0; --j)
                    _slots[j] = _slots[j - 1];
                _slots[0] = value;
                return;
            }
        }
        std::size_t limit = std::min(_size + 1, _capacity);
        for (std::size_t j = limit - 1; j > 0; --j)
            _slots[j] = _slots[j - 1];
        _slots[0] = value;
        _size = limit;
    }

    std::size_t size() const { return _size; }
    std::size_t capacity() const { return _capacity; }
    const T &operator[](std::size_t i) const { return _slots[i]; }

    /**
     * Adjust capacity (used right after a row is allocated, since the
     * table default-constructs payloads).  Shrinking drops LRU slots.
     */
    void
    setCapacity(std::size_t capacity)
    {
        tlbpf_assert(capacity >= 1 && capacity <= MaxSlots,
                     "slot capacity out of range");
        _capacity = capacity;
        if (_size > _capacity)
            _size = _capacity;
    }

    void clear() { _size = 0; }

    /** Serialize capacity, occupancy and slots in LRU order. */
    void
    snapshotState(SnapshotWriter &out) const
    {
        out.u64(_capacity);
        out.u64(_size);
        for (std::size_t i = 0; i < _size; ++i)
            out.u64(static_cast<std::uint64_t>(_slots[i]));
    }

    /**
     * Restore state written by snapshotState().  The serialized
     * capacity must equal @p expected_capacity (the owning
     * mechanism's slots parameter) — like every other component,
     * restoring into a different geometry throws rather than silently
     * reshaping the table.
     */
    void
    restoreState(SnapshotReader &in, std::size_t expected_capacity)
    {
        std::uint64_t capacity = in.u64();
        std::uint64_t size = in.u64();
        if (capacity != expected_capacity)
            SnapshotReader::fail(
                "slot list capacity " + std::to_string(capacity) +
                ", expected " + std::to_string(expected_capacity));
        if (capacity < 1 || capacity > MaxSlots || size > capacity)
            SnapshotReader::fail("slot list shape out of range");
        _capacity = static_cast<std::size_t>(capacity);
        _size = static_cast<std::size_t>(size);
        for (std::size_t i = 0; i < MaxSlots; ++i)
            _slots[i] = i < _size ? static_cast<T>(in.u64()) : T{};
    }

  private:
    std::size_t _capacity;
    std::size_t _size = 0;
    T _slots[MaxSlots]{};
};

} // namespace tlbpf

#endif // TLBPF_CORE_PREDICTION_TABLE_HH
