#include "prefetch/asp.hh"

namespace tlbpf
{

AspPrefetcher::AspPrefetcher(const TableConfig &table)
    : _table(table)
{
}

void
AspPrefetcher::onMiss(const TlbMiss &miss, PrefetchDecision &decision)
{
    // ASP indexes the RPT by the PC of the missing reference.  Word
    // alignment is stripped so consecutive instructions map to
    // consecutive rows.
    std::uint64_t key = miss.pc >> 2;

    RptRow *row = _table.find(key);
    if (!row) {
        RptRow &fresh = _table.findOrInsert(key);
        fresh.prevPage = miss.vpn;
        fresh.stride = 0;
        fresh.state = RptState::Initial;
        return;
    }

    std::int64_t new_stride = static_cast<std::int64_t>(miss.vpn) -
                              static_cast<std::int64_t>(row->prevPage);
    bool correct = (new_stride == row->stride);

    // Chen & Baer state transitions.
    switch (row->state) {
      case RptState::Initial:
        if (correct) {
            row->state = RptState::Steady;
        } else {
            row->stride = new_stride;
            row->state = RptState::Transient;
        }
        break;
      case RptState::Transient:
        if (correct) {
            row->state = RptState::Steady;
        } else {
            row->stride = new_stride;
            row->state = RptState::NoPred;
        }
        break;
      case RptState::Steady:
        if (!correct)
            row->state = RptState::Initial;
        break;
      case RptState::NoPred:
        if (correct) {
            row->state = RptState::Transient;
        } else {
            row->stride = new_stride;
        }
        break;
    }

    row->prevPage = miss.vpn;

    if (row->state == RptState::Steady && row->stride != 0) {
        std::int64_t target = static_cast<std::int64_t>(miss.vpn) +
                              row->stride;
        if (target >= 0)
            decision.targets.push_back(static_cast<Vpn>(target));
    }
}

void
AspPrefetcher::reset()
{
    _table.reset();
}

bool
AspPrefetcher::adopt(const Prefetcher &smaller)
{
    auto *asp = dynamic_cast<const AspPrefetcher *>(&smaller);
    if (!asp)
        return false;
    _table.adopt(asp->_table);
    return true;
}

bool
AspPrefetcher::wouldEvict(Vpn, Addr pc) const
{
    std::uint64_t key = pc >> 2;
    return _table.wouldEvict({&key, 1});
}

void
AspPrefetcher::snapshotState(SnapshotWriter &out) const
{
    _table.snapshotState(out, [](SnapshotWriter &w, const RptRow &row) {
        w.u64(row.prevPage);
        w.i64(row.stride);
        w.u8(static_cast<std::uint8_t>(row.state));
    });
}

void
AspPrefetcher::restoreState(SnapshotReader &in)
{
    _table.restoreState(in, [](SnapshotReader &r, RptRow &row) {
        row.prevPage = r.u64();
        row.stride = r.i64();
        std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(RptState::NoPred))
            SnapshotReader::fail("RPT state out of range");
        row.state = static_cast<RptState>(state);
    });
}

std::string
AspPrefetcher::label() const
{
    return "ASP," + std::to_string(_table.config().rows) + "," +
           assocLabel(_table.config().assoc);
}

HardwareProfile
AspPrefetcher::hardwareProfile() const
{
    return HardwareProfile{
        "r",
        "PC Tag, Page #, Stride and State",
        "On-Chip",
        "PC",
        0,
        "1",
    };
}

AspPrefetcher::RowView
AspPrefetcher::inspect(Addr pc) const
{
    const RptRow *row = _table.peek(pc >> 2);
    if (!row)
        return RowView{0, 0, RptState::Initial, false};
    return RowView{row->prevPage, row->stride, row->state, true};
}

} // namespace tlbpf
