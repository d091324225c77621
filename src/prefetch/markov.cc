#include "prefetch/markov.hh"

namespace tlbpf
{

MarkovPrefetcher::MarkovPrefetcher(const TableConfig &table,
                                   std::uint32_t slots)
    : _tableConfig(table), _slots(slots), _table(table)
{
    if (slots < 1 || slots > 8)
        tlbpf_fatal("MP slots must be in [1, 8]");
}

void
MarkovPrefetcher::onMiss(const TlbMiss &miss, PrefetchDecision &decision)
{
    // Learn: the previous miss's row gains the current page as a
    // successor.  This may allocate (and possibly evict) a row.
    if (_prevMiss != kNoPage && _prevMiss != miss.vpn) {
        Slots &slots = _table.findOrInsert(_prevMiss);
        slots.setCapacity(_slots);
        slots.addOrPromote(miss.vpn);
    }

    // Predict: the current page's recorded successors.  The paper adds
    // the row for a never-seen page with empty slots so its successors
    // can accumulate; findOrInsert does exactly that.
    Slots &slots = _table.findOrInsert(miss.vpn);
    slots.setCapacity(_slots);
    std::size_t n = std::min<std::size_t>(slots.size(), _slots);
    for (std::size_t i = 0; i < n; ++i)
        decision.targets.push_back(slots[i]);

    _prevMiss = miss.vpn;
}

void
MarkovPrefetcher::reset()
{
    _table.reset();
    _prevMiss = kNoPage;
}

bool
MarkovPrefetcher::adopt(const Prefetcher &smaller)
{
    auto *mp = dynamic_cast<const MarkovPrefetcher *>(&smaller);
    if (!mp)
        return false;
    tlbpf_assert(mp->_slots == _slots,
                 "adopt needs a Markov table of the same slots");
    _table.adopt(mp->_table);
    _prevMiss = mp->_prevMiss;
    return true;
}

bool
MarkovPrefetcher::wouldEvict(Vpn vpn, Addr) const
{
    // onMiss inserts the previous miss's row, then the current one's.
    if (_prevMiss != kNoPage && _prevMiss != vpn) {
        const std::uint64_t keys[] = {_prevMiss, vpn};
        return _table.wouldEvict(keys);
    }
    return _table.wouldEvict({&vpn, 1});
}

void
MarkovPrefetcher::snapshotState(SnapshotWriter &out) const
{
    _table.snapshotSlotState(out);
    out.u64(_prevMiss);
}

void
MarkovPrefetcher::restoreState(SnapshotReader &in)
{
    _table.restoreSlotState(in, _slots);
    _prevMiss = in.u64();
}

std::string
MarkovPrefetcher::label() const
{
    return "MP," + std::to_string(_tableConfig.rows) + "," +
           assocLabel(_tableConfig.assoc);
}

HardwareProfile
MarkovPrefetcher::hardwareProfile() const
{
    return HardwareProfile{
        "r",
        "Page # Tag, " + std::to_string(_slots) + " Prediction Page #s",
        "On-Chip",
        "Page #",
        0,
        std::to_string(_slots),
    };
}

std::vector<Vpn>
MarkovPrefetcher::successorsOf(Vpn vpn) const
{
    std::vector<Vpn> out;
    if (const Slots *slots = _table.peek(vpn))
        for (std::size_t i = 0; i < slots->size(); ++i)
            out.push_back((*slots)[i]);
    return out;
}

} // namespace tlbpf
