#include "prefetch/distance.hh"

namespace tlbpf
{

DistancePrefetcher::DistancePrefetcher(const TableConfig &table,
                                       std::uint32_t slots)
    : _predictor(DistancePredictorConfig{table, slots})
{
}

void
DistancePrefetcher::onMiss(const TlbMiss &miss,
                           PrefetchDecision &decision)
{
    _predictor.observe(miss.vpn, decision.targets);
}

void
DistancePrefetcher::reset()
{
    _predictor.reset();
}

bool
DistancePrefetcher::adopt(const Prefetcher &smaller)
{
    auto *dp = dynamic_cast<const DistancePrefetcher *>(&smaller);
    if (!dp)
        return false;
    _predictor.adopt(dp->_predictor);
    return true;
}

bool
DistancePrefetcher::wouldEvict(Vpn, Addr) const
{
    return _predictor.wouldEvict();
}

void
DistancePrefetcher::snapshotState(SnapshotWriter &out) const
{
    _predictor.snapshotState(out);
}

void
DistancePrefetcher::restoreState(SnapshotReader &in)
{
    _predictor.restoreState(in);
}

std::string
DistancePrefetcher::label() const
{
    const auto &table = _predictor.config().table;
    return "DP," + std::to_string(table.rows) + "," +
           assocLabel(table.assoc);
}

HardwareProfile
DistancePrefetcher::hardwareProfile() const
{
    return HardwareProfile{
        "r",
        "Distance Tag, " +
            std::to_string(_predictor.config().slots) +
            " Prediction Distances",
        "On-Chip",
        "Distance",
        0,
        std::to_string(_predictor.config().slots),
    };
}

} // namespace tlbpf
