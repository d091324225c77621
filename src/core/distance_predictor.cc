#include "core/distance_predictor.hh"

#include "util/bits.hh"

namespace tlbpf
{

DistancePredictor::DistancePredictor(
    const DistancePredictorConfig &config)
    : _config(config), _table(config.table)
{
    if (config.slots < 1 || config.slots > 8)
        tlbpf_fatal("distance predictor slots must be in [1, 8]");
}

void
DistancePredictor::observe(std::uint64_t unit,
                           std::vector<std::uint64_t> &predictions)
{
    ++_observations;
    if (!_hasPrevUnit) {
        _prevUnit = unit;
        _hasPrevUnit = true;
        return;
    }

    std::int64_t dist = static_cast<std::int64_t>(unit) -
                        static_cast<std::int64_t>(_prevUnit);

    // Step 4 of Figure 6: the previous distance's row learns the
    // current distance as a follower.  Done before the lookup so a
    // self-following distance (pure sequential) predicts from the
    // second miss onwards.
    if (_hasPrevDist) {
        Slots &slots = _table.findOrInsert(zigZagEncode(_prevDist));
        slots.setCapacity(_config.slots);
        slots.addOrPromote(dist);
    }

    // Steps 2-3: the current distance's row supplies predictions.
    if (Slots *slots = _table.find(zigZagEncode(dist))) {
        std::size_t n = std::min<std::size_t>(slots->size(),
                                              _config.slots);
        for (std::size_t i = 0; i < n; ++i) {
            std::int64_t predicted = (*slots)[i];
            std::int64_t target = static_cast<std::int64_t>(unit) +
                                  predicted;
            if (target >= 0)
                predictions.push_back(
                    static_cast<std::uint64_t>(target));
        }
    }

    _prevUnit = unit;
    _prevDist = dist;
    _hasPrevDist = true;
}

void
DistancePredictor::reset()
{
    _table.reset();
    _prevUnit = 0;
    _prevDist = 0;
    _hasPrevUnit = false;
    _hasPrevDist = false;
    _observations = 0;
}

void
DistancePredictor::adopt(const DistancePredictor &smaller)
{
    tlbpf_assert(smaller._config.slots == _config.slots,
                 "adopt needs a predictor of the same slots");
    _table.adopt(smaller._table);
    _prevUnit = smaller._prevUnit;
    _prevDist = smaller._prevDist;
    _hasPrevUnit = smaller._hasPrevUnit;
    _hasPrevDist = smaller._hasPrevDist;
    _observations = smaller._observations;
}

void
DistancePredictor::snapshotState(SnapshotWriter &out) const
{
    _table.snapshotSlotState(out);
    out.u64(_prevUnit);
    out.i64(_prevDist);
    out.boolean(_hasPrevUnit);
    out.boolean(_hasPrevDist);
    out.u64(_observations);
}

void
DistancePredictor::restoreState(SnapshotReader &in)
{
    _table.restoreSlotState(in, _config.slots);
    _prevUnit = in.u64();
    _prevDist = in.i64();
    _hasPrevUnit = in.boolean();
    _hasPrevDist = in.boolean();
    _observations = in.u64();
}

std::uint64_t
DistancePredictor::storageBits() const
{
    const std::uint64_t tag_bits = 32;
    const std::uint64_t slot_bits = 32ull * _config.slots;
    return static_cast<std::uint64_t>(_config.table.rows) *
           (1 + tag_bits + slot_bits);
}

} // namespace tlbpf
