#include "tlb/tlb.hh"

#include <unordered_set>

#include "util/bits.hh"
#include "util/logging.hh"

namespace tlbpf
{

namespace
{

/**
 * Entry-slot sentinel for "no such entry" and a cold hit cache; the
 * same value as WideSetIndex's.
 */
constexpr std::uint32_t kNoSlot = UINT32_MAX;

} // namespace

Tlb::Tlb(const TlbConfig &config)
    : _config(config),
      _ways(config.assoc == 0 ? config.entries : config.assoc),
      _wide(config.numSets(), _ways)
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
    _entries.resize(static_cast<std::size_t>(_config.numSets()) * _ways);
}

std::size_t
Tlb::setIndex(Vpn vpn) const
{
    return (vpn & (_config.numSets() - 1)) * _ways;
}

std::uint32_t
Tlb::findSlot(Vpn vpn) const
{
    if (_wide.enabled())
        return _wide.find(_entries, vpn);
    std::size_t base = setIndex(vpn);
    for (std::size_t w = 0; w < _ways; ++w) {
        const Entry &e = _entries[base + w];
        if (e.valid && e.vpn == vpn)
            return static_cast<std::uint32_t>(base + w);
    }
    return kNoSlot;
}

bool
Tlb::access(Vpn vpn)
{
    // Last-hit fast path: back-to-back references to the same page
    // are the overwhelmingly common case, and the cached entry is
    // already at the head of its recency list.
    if (_lastHit != kNoSlot) {
        Entry &cached = _entries[_lastHit];
        if (cached.valid && cached.vpn == vpn) {
            cached.lastUse = ++_clock;
            return true;
        }
    }
    std::uint32_t slot = findSlot(vpn);
    if (slot == kNoSlot)
        return false;
    _entries[slot].lastUse = ++_clock;
    if (_wide.enabled())
        _wide.touch(slot);
    _lastHit = slot;
    return true;
}

bool
Tlb::contains(Vpn vpn) const
{
    return findSlot(vpn) != kNoSlot;
}

std::optional<Vpn>
Tlb::insert(Vpn vpn)
{
    tlbpf_assert(!contains(vpn), "double insert of VPN ", vpn);
    std::size_t base = setIndex(vpn);
    std::uint32_t slot = kNoSlot;
    if (_wide.enabled()) {
        slot = _wide.victim(_entries, base);
    } else {
        for (std::size_t w = 0; w < _ways; ++w) {
            const Entry &e = _entries[base + w];
            if (!e.valid) {
                slot = static_cast<std::uint32_t>(base + w);
                break;
            }
            if (slot == kNoSlot || e.lastUse < _entries[slot].lastUse)
                slot = static_cast<std::uint32_t>(base + w);
        }
    }
    Entry &victim = _entries[slot];
    std::optional<Vpn> evicted;
    if (victim.valid) {
        evicted = victim.vpn;
        if (_wide.enabled())
            _wide.remove(_entries, slot);
    } else {
        ++_resident;
    }
    victim.vpn = vpn;
    victim.valid = true;
    victim.lastUse = ++_clock;
    if (_wide.enabled())
        _wide.add(vpn, slot);
    _lastHit = slot;
    return evicted;
}

bool
Tlb::invalidate(Vpn vpn)
{
    std::uint32_t slot = findSlot(vpn);
    if (slot == kNoSlot)
        return false;
    if (_wide.enabled())
        _wide.remove(_entries, slot);
    _entries[slot].valid = false;
    --_resident;
    return true;
}

void
Tlb::snapshotState(SnapshotWriter &out) const
{
    // _resident is not serialized: it is derivable from the valid
    // flags, and recomputing it on restore closes a corruption hole.
    out.u64(_clock);
    out.u64(_entries.size());
    for (const Entry &e : _entries) {
        out.boolean(e.valid);
        if (!e.valid)
            continue;
        out.u64(e.vpn);
        out.u64(e.lastUse);
    }
}

void
Tlb::restoreState(SnapshotReader &in)
{
    _clock = in.u64();
    std::uint64_t count = in.u64();
    if (count != _entries.size())
        SnapshotReader::fail(
            "TLB has " + std::to_string(count) +
            " entry slots, expected " +
            std::to_string(_entries.size()));
    _resident = 0;
    std::unordered_set<Vpn> seen;
    seen.reserve(_entries.size());
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        Entry &e = _entries[i];
        e.valid = in.boolean();
        if (!e.valid) {
            e.vpn = 0;
            e.lastUse = 0;
            continue;
        }
        e.vpn = in.u64();
        e.lastUse = in.u64();
        if (setIndex(e.vpn) != (i / _ways) * _ways)
            SnapshotReader::fail(
                "TLB checkpoint places VPN " + std::to_string(e.vpn) +
                " in the wrong set");
        if (!seen.insert(e.vpn).second)
            SnapshotReader::fail("duplicate TLB entry in checkpoint");
        ++_resident;
    }
    if (_wide.enabled())
        _wide.rebuild(_entries);
    _lastHit = kNoSlot;
}

void
Tlb::flush()
{
    for (Entry &e : _entries)
        e.valid = false;
    _resident = 0;
    _lastHit = kNoSlot;
    if (_wide.enabled())
        _wide.clear();
}

} // namespace tlbpf
