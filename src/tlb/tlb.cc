#include "tlb/tlb.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace tlbpf
{

namespace
{

constexpr std::uint32_t kNoSlot = LruSets<>::kNoSlot;

} // namespace

Tlb::Tlb(const TlbConfig &config)
    : _config(config),
      _entries(config.numSets(),
               config.assoc == 0 ? config.entries : config.assoc)
{
    if (config.entries == 0)
        tlbpf_fatal("TLB needs at least one entry");
    if (config.assoc != 0) {
        if (config.entries % config.assoc != 0) {
            tlbpf_fatal("TLB entries (", config.entries,
                        ") must be a multiple of associativity (",
                        config.assoc, ")");
        }
        if (!isPowerOfTwo(config.numSets()))
            tlbpf_fatal("number of TLB sets must be a power of two");
    }
}

bool
Tlb::access(Vpn vpn, std::uint64_t count)
{
    // Last-hit fast path: consecutive calls often name one page (fed
    // per reference, or one page's references split over runs).
    std::uint32_t slot = _lastHit;
    if (slot == kNoSlot || !_entries.row(slot).valid ||
        _entries.row(slot).key != vpn) {
        slot = _entries.find(vpn);
        if (slot == kNoSlot)
            return false;
        _lastHit = slot;
    }
    _entries.touch(slot, _clock += count);
    return true;
}

bool
Tlb::contains(Vpn vpn) const
{
    return _entries.find(vpn) != kNoSlot;
}

std::optional<Vpn>
Tlb::insert(Vpn vpn)
{
    auto fill = _entries.insert(vpn, ++_clock);
    _lastHit = fill.slot;
    return fill.evicted;
}

bool
Tlb::invalidate(Vpn vpn)
{
    return _entries.remove(vpn);
}

void
Tlb::snapshotState(SnapshotWriter &out) const
{
    out.u64(_clock);
    _entries.snapshotState(out, [](SnapshotWriter &, NoPayload) {});
}

void
Tlb::restoreState(SnapshotReader &in)
{
    _clock = in.u64();
    _entries.restoreState(in, "TLB", [](SnapshotReader &, NoPayload) {});
    _lastHit = kNoSlot;
}

void
Tlb::flush()
{
    _entries.clear();
    _lastHit = kNoSlot;
}

} // namespace tlbpf
