#include "sim/functional_sim.hh"

#include <stdexcept>

#include "util/check.hh"
#include "util/snapshot.hh"

namespace tlbpf
{

FunctionalSimulator::FunctionalSimulator(const SimConfig &config,
                                         const MechanismSpec &spec)
    : _core(config, std::span<const MechanismSpec>(&spec, 1)),
      _mechLabel(spec.label())
{
}

namespace
{

/** Leading bytes of every checkpoint: "TPFS" + format version. */
constexpr std::uint32_t kSnapshotMagic = 0x53465054; // 'T','P','F','S'
constexpr std::uint8_t kSnapshotVersion = 1;

/** Field-wise @p end - @p start; valid because every field is monotone. */
SimResult
counterDelta(const SimResult &end, const SimResult &start)
{
    SimResult delta;
    for (const SimCounter &counter : kSimCounters)
        delta.*counter.member = end.*counter.member - start.*counter.member;
    return delta;
}

} // namespace

bool
FunctionalSimulator::checkpointable() const
{
    const Prefetcher *prefetcher = _core.back(0).prefetcher();
    return !prefetcher || prefetcher->checkpointable();
}

SimState
FunctionalSimulator::snapshot() const
{
    if (!checkpointable())
        throw std::invalid_argument(
            "mechanism '" + _mechLabel +
            "' does not support checkpointing; use replay warm-up");
    const SimConfig &config = _core.config();
    const BackEnd<NoClock> &back = _core.back(0);
    SnapshotWriter out;
    // Rough upper bound on the serialized size: page table entries
    // dominate (33 bytes each), then TLB slots and buffer nodes.
    out.reserve(512 + 40 * _core.pageTable().size() +
                17 * static_cast<std::size_t>(config.tlb.entries) +
                16 * static_cast<std::size_t>(config.pbEntries));
    out.u32(kSnapshotMagic);
    out.u8(kSnapshotVersion);

    // Configuration signature: a checkpoint only restores into a
    // simulator that would have produced it.
    out.u32(config.tlb.entries);
    out.u32(config.tlb.assoc);
    out.u32(config.pbEntries);
    out.u64(config.pageBytes);
    out.boolean(config.trainOnAllRefs);
    out.u64(config.contextSwitchInterval);
    out.str(_mechLabel);

    SimResult counters = result();
    for (const SimCounter &counter : kSimCounters)
        out.u64(counters.*counter.member);
    _core.tlb().snapshotState(out);
    back.buffer().snapshotState(out);
    _core.pageTable().snapshotState(out);
    out.boolean(back.prefetcher() != nullptr);
    if (back.prefetcher())
        back.prefetcher()->snapshotState(out);
    return SimState{out.take()};
}

void
FunctionalSimulator::restore(const SimState &state)
{
    const SimConfig &config = _core.config();
    BackEnd<NoClock> &back = _core.back(0);
    SnapshotReader in(state.bytes);
    if (in.u32() != kSnapshotMagic)
        SnapshotReader::fail("bad magic (not a simulator checkpoint)");
    if (std::uint8_t version = in.u8(); version != kSnapshotVersion)
        SnapshotReader::fail("unsupported checkpoint version " +
                             std::to_string(version));

    if (in.u32() != config.tlb.entries ||
        in.u32() != config.tlb.assoc ||
        in.u32() != config.pbEntries ||
        in.u64() != config.pageBytes ||
        in.boolean() != config.trainOnAllRefs ||
        in.u64() != config.contextSwitchInterval)
        SnapshotReader::fail(
            "simulator configuration does not match the checkpoint");
    if (std::string mech = in.str(); mech != _mechLabel)
        SnapshotReader::fail("checkpoint was taken under mechanism '" +
                             mech + "', this simulator runs '" +
                             _mechLabel + "'");

    // The front-end's counters, then the back-end's: the rest.  The
    // footprint and unused-eviction counts are recomputed from the
    // restored page table and buffer.
    SimResult saved;
    for (const SimCounter &counter : kSimCounters)
        saved.*counter.member = in.u64();
    _core.counters() = SimResult{.refs = saved.refs,
                                 .misses = saved.misses,
                                 .contextSwitches = saved.contextSwitches};
    back.counters() = counterDelta(saved, _core.counters());
    _core.tlb().restoreState(in);
    back.buffer().restoreState(in);
    _core.pageTable().restoreState(in); // before the mechanism: RP links
    bool has_prefetcher = in.boolean();
    if (has_prefetcher != (back.prefetcher() != nullptr))
        SnapshotReader::fail(
            "checkpoint and simulator disagree on mechanism presence");
    if (back.prefetcher())
        back.prefetcher()->restoreState(in);
    if (!in.atEnd())
        SnapshotReader::fail("trailing bytes after checkpoint");
    // The whole checkpoint design rests on restore() being the exact
    // inverse of snapshot(): shard chains and the persistent store
    // both assume a restored simulator re-serializes to the same
    // bytes.  A component whose restoreState() loses state (a rebuilt
    // index that reorders, an LRU clock that resets) would silently
    // skew every downstream window; catch it at the boundary.
    TLBPF_DCHECK_MSG(snapshot().bytes == state.bytes,
                     "restore() is not the inverse of snapshot() for "
                     "mechanism '", _mechLabel, "'");
}

SimResult
simulate(const SimConfig &config, const MechanismSpec &spec,
         RefStream &stream)
{
    FunctionalSimulator sim(config, spec);
    sim.feed(stream, UINT64_MAX);
    return sim.result();
}

std::vector<SimResult>
simulateMany(const SimConfig &config,
             const std::vector<MechanismSpec> &specs, RefStream &stream)
{
    FrontEnd<NoClock> core(config, specs);
    core.feed(stream, UINT64_MAX);
    std::vector<SimResult> results;
    results.reserve(core.size());
    for (std::size_t i = 0; i < core.size(); ++i)
        results.push_back(core.result(i));
    return results;
}

SimResult
simulateWindow(const SimConfig &config, const MechanismSpec &spec,
               RefStream &stream, std::uint64_t skip,
               std::uint64_t take)
{
    FunctionalSimulator sim(config, spec);
    sim.feed(stream, skip);
    SimResult start = sim.result();
    sim.feed(stream, take);
    return counterDelta(sim.result(), start);
}

SimResult
simulateWindowFrom(const SimConfig &config, const MechanismSpec &spec,
                   RefStream &stream, const SimState *warm,
                   std::uint64_t take, SimState *end_state)
{
    FunctionalSimulator sim(config, spec);
    if (warm)
        sim.restore(*warm);
    SimResult start = sim.result();
    std::uint64_t processed = sim.feed(stream, take);
    SimResult delta = counterDelta(sim.result(), start);
    // Window attribution: every reference fed in this window — and
    // none from the restored prefix — lands in the delta, or sharded
    // merges would drift from the unsharded run.
    TLBPF_DCHECK_MSG(delta.refs == processed,
                     "window of ", processed, " refs recorded ",
                     delta.refs, " in its counter delta");
    if (end_state)
        *end_state = sim.snapshot();
    return delta;
}

} // namespace tlbpf
