#include "mem/page_table.hh"

#include <algorithm>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace tlbpf
{

namespace
{

/** Map bucket sentinel for "no entry hashed here". */
constexpr std::uint32_t kEmptySlot = UINT32_MAX;

/** Initial bucket count; grown by doubling to keep load under 50%. */
constexpr std::size_t kInitialBuckets = 1024;

} // namespace

PageTable::PageTable()
    : _map(kInitialBuckets, kEmptySlot)
{
}

std::size_t
PageTable::probe(Vpn vpn) const
{
    std::size_t mask = _map.size() - 1;
    std::size_t b = hashKey(vpn) & mask;
    while (_map[b] != kEmptySlot && _pool[_map[b]].vpn != vpn)
        b = (b + 1) & mask;
    return b;
}

void
PageTable::grow()
{
    std::vector<std::uint32_t> bigger(_map.size() * 2, kEmptySlot);
    std::size_t mask = bigger.size() - 1;
    for (std::size_t idx = 0; idx < _pool.size(); ++idx) {
        std::size_t b = hashKey(_pool[idx].vpn) & mask;
        while (bigger[b] != kEmptySlot)
            b = (b + 1) & mask;
        bigger[b] = static_cast<std::uint32_t>(idx);
    }
    _map.swap(bigger);
}

PageTableEntry &
PageTable::lookup(Vpn vpn)
{
    std::size_t b = probe(vpn);
    if (_map[b] != kEmptySlot)
        return _pool[_map[b]].pte;
    if ((_pool.size() + 1) * 2 > _map.size()) {
        grow();
        b = probe(vpn);
    }
    if (_pool.size() >= kEmptySlot)
        tlbpf_fatal("page table footprint exceeds 2^32 - 1 pages");
    _map[b] = static_cast<std::uint32_t>(_pool.size());
    Slot &slot = _pool.emplace_back();
    slot.vpn = vpn;
    // Deterministic pseudo-random frame assignment; the frame value
    // itself never feeds back into prefetching decisions.
    slot.pte.pfn = mix64(vpn) & ((1ull << 40) - 1);
    return slot.pte;
}

const PageTableEntry *
PageTable::find(Vpn vpn) const
{
    std::size_t b = probe(vpn);
    return _map[b] == kEmptySlot ? nullptr : &_pool[_map[b]].pte;
}

PageTableEntry *
PageTable::find(Vpn vpn)
{
    std::size_t b = probe(vpn);
    return _map[b] == kEmptySlot ? nullptr : &_pool[_map[b]].pte;
}

std::size_t
PageTable::unionSize(const PageTable &other) const
{
    std::size_t pages = size();
    for (const Slot &slot : other._pool)
        if (!find(slot.vpn))
            ++pages;
    return pages;
}

void
PageTable::clear()
{
    _pool.clear();
    _map.assign(kInitialBuckets, kEmptySlot);
}

void
PageTable::snapshotState(SnapshotWriter &out) const
{
    std::vector<const Slot *> slots;
    slots.reserve(_pool.size());
    for (const Slot &slot : _pool)
        slots.push_back(&slot);
    std::sort(slots.begin(), slots.end(),
              [](const Slot *a, const Slot *b) {
                  return a->vpn < b->vpn;
              });
    out.u64(slots.size());
    for (const Slot *slot : slots) {
        out.u64(slot->vpn);
        out.u64(slot->pte.pfn);
        out.u64(slot->pte.next);
        out.u64(slot->pte.prev);
        out.boolean(slot->pte.inStack);
    }
}

void
PageTable::restoreState(SnapshotReader &in)
{
    clear();
    std::uint64_t count = in.u64();
    // 33 bytes per serialized PTE: a corrupt count field must fail
    // with the clean checkpoint error, not a length_error/bad_alloc
    // from an oversized allocation.
    if (count > in.remaining() / 33)
        SnapshotReader::fail(
            "page table entry count " + std::to_string(count) +
            " exceeds the checkpoint's remaining bytes");
    for (std::uint64_t i = 0; i < count; ++i) {
        Vpn vpn = in.u64();
        if (find(vpn))
            SnapshotReader::fail("duplicate page table entry in "
                                 "checkpoint");
        PageTableEntry &pte = lookup(vpn);
        pte.pfn = in.u64();
        pte.next = in.u64();
        pte.prev = in.u64();
        pte.inStack = in.boolean();
    }
}

bool
RecencyStack::contains(Vpn vpn) const
{
    const PageTableEntry *pte = _pt.find(vpn);
    return pte && pte->inStack;
}

void
RecencyStack::unlink(Vpn vpn, UpdateResult &res)
{
    PageTableEntry &pte = _pt.lookup(vpn);
    tlbpf_assert(pte.inStack, "unlink of page not in recency stack");

    if (pte.prev != kNoPage) {
        res.neighbors[res.numNeighbors++] = pte.prev;
        _pt.lookup(pte.prev).next = pte.next;
        ++res.pointerOps;
    } else {
        tlbpf_assert(_top == vpn, "stack head corrupted");
        _top = pte.next;
        ++res.pointerOps;
    }
    if (pte.next != kNoPage) {
        res.neighbors[res.numNeighbors++] = pte.next;
        _pt.lookup(pte.next).prev = pte.prev;
        ++res.pointerOps;
    }

    pte.next = kNoPage;
    pte.prev = kNoPage;
    pte.inStack = false;
    --_linked;
}

void
RecencyStack::push(Vpn vpn, UpdateResult &res)
{
    PageTableEntry &pte = _pt.lookup(vpn);
    tlbpf_assert(!pte.inStack,
                 "push of page already in recency stack: ", vpn);

    pte.prev = kNoPage;
    pte.next = _top;
    ++res.pointerOps;
    if (_top != kNoPage) {
        _pt.lookup(_top).prev = vpn;
        ++res.pointerOps;
    }
    _top = vpn;
    pte.inStack = true;
    ++_linked;
}

RecencyStack::UpdateResult
RecencyStack::onMiss(Vpn missed, Vpn evicted, unsigned reach)
{
    tlbpf_assert(reach >= 1 && 2 * reach <= kMaxNeighbors,
                 "unsupported recency reach ", reach);
    UpdateResult res;
    PageTableEntry &pte = _pt.lookup(missed);
    if (pte.inStack && reach > 1) {
        // Record the wider neighbourhood (closest first per side)
        // before unlink() rewires and reports the immediate pair.
        Vpn up = pte.prev;
        Vpn down = pte.next;
        for (unsigned step = 1; step < reach; ++step) {
            if (up != kNoPage)
                up = _pt.lookup(up).prev;
            if (down != kNoPage)
                down = _pt.lookup(down).next;
        }
        unlink(missed, res);
        if (up != kNoPage)
            res.neighbors[res.numNeighbors++] = up;
        if (down != kNoPage)
            res.neighbors[res.numNeighbors++] = down;
    } else if (pte.inStack) {
        unlink(missed, res);
    }
    if (evicted != kNoPage) {
        // A page evicted from the TLB cannot already be linked: it left
        // the stack when it last missed into the TLB.
        push(evicted, res);
    }
    return res;
}

void
RecencyStack::snapshotState(SnapshotWriter &out) const
{
    out.u64(_top);
    out.u64(_linked);
}

void
RecencyStack::restoreState(SnapshotReader &in)
{
    _top = in.u64();
    _linked = static_cast<std::size_t>(in.u64());
}

void
RecencyStack::reset()
{
    // Walk the stack unlinking everything.
    Vpn cur = _top;
    while (cur != kNoPage) {
        PageTableEntry &pte = _pt.lookup(cur);
        Vpn next = pte.next;
        pte.next = kNoPage;
        pte.prev = kNoPage;
        pte.inStack = false;
        cur = next;
    }
    _top = kNoPage;
    _linked = 0;
}

} // namespace tlbpf
