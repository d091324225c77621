/**
 * @file
 * The paper's primary contribution, packaged as a reusable component.
 *
 * DistancePredictor observes a stream of unit numbers (TLB pages here,
 * but equally cache lines or disk blocks — the paper notes DP "can
 * possibly be used in the context of caches, I/O etc.") and predicts
 * the units likely to be needed next.
 *
 * State: the previous unit and the previous distance, plus a prediction
 * table indexed by *distance* whose rows hold the distances that
 * historically followed that distance (LRU-ordered, up to @c s slots).
 *
 * On observing unit u (paper Figure 6):
 *   1. dist = u - prevUnit
 *   2. the row for prevDist learns dist as a follower
 *   3. the row for dist supplies up to s predicted distances d_i;
 *      predictions are u + d_i
 *   4. prevUnit = u, prevDist = dist
 *
 * A sequential scan therefore needs exactly one row (1 -> 1); a Markov
 * predictor would need one row per unit touched.
 */

#ifndef TLBPF_CORE_DISTANCE_PREDICTOR_HH
#define TLBPF_CORE_DISTANCE_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "core/prediction_table.hh"
#include "util/bits.hh"

namespace tlbpf
{

/** Configuration of a distance predictor. */
struct DistancePredictorConfig
{
    TableConfig table{256, TableAssoc::Direct};
    /** Prediction slots per row (the paper's s, typically 2-4). */
    std::uint32_t slots = 2;
};

/** Generic distance-based next-unit predictor. */
class DistancePredictor
{
  public:
    explicit DistancePredictor(const DistancePredictorConfig &config);

    /**
     * Observe the next unit in the stream and append predicted future
     * units to @p predictions (not cleared; at most @c slots added).
     */
    void observe(std::uint64_t unit,
                 std::vector<std::uint64_t> &predictions);

    /** Forget all history (e.g. on context switch). */
    void reset();

    /**
     * Whether the next observe() would evict a table row: it inserts
     * only the previous distance's row, whatever the unit.
     */
    bool
    wouldEvict() const
    {
        std::uint64_t key = zigZagEncode(_prevDist);
        return _hasPrevDist && _table.wouldEvict({&key, 1});
    }

    /**
     * Take over the history and table of @p smaller, a predictor of
     * the same slots and associativity with fewer rows whose table
     * never evicted (PredictionTable::adopt).
     */
    void adopt(const DistancePredictor &smaller);

    /** Serialize the table and the prev-unit/prev-distance history. */
    void snapshotState(SnapshotWriter &out) const;

    /** Restore state written by snapshotState(); throws on mismatch. */
    void restoreState(SnapshotReader &in);

    const DistancePredictorConfig &config() const { return _config; }

    /** Diagnostics. */
    std::uint64_t observations() const { return _observations; }
    std::uint64_t tableHits() const { return _table.hits(); }
    std::uint64_t tableEvictions() const { return _table.evictions(); }
    std::size_t tableOccupancy() const { return _table.occupancy(); }

    /**
     * Estimated on-chip storage in bits: per row a valid bit, a
     * distance tag and s distance slots (32-bit distances).
     */
    std::uint64_t storageBits() const;

  private:
    using Slots = SlotLru<std::int64_t>;

    DistancePredictorConfig _config;
    PredictionTable<Slots> _table;

    std::uint64_t _prevUnit = 0;
    std::int64_t _prevDist = 0;
    bool _hasPrevUnit = false;
    bool _hasPrevDist = false;
    std::uint64_t _observations = 0;
};

} // namespace tlbpf

#endif // TLBPF_CORE_DISTANCE_PREDICTOR_HH
