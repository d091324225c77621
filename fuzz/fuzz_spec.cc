/**
 * @file
 * Fuzz target: the WorkloadSpec / MechanismSpec string grammars.
 *
 * Attack surface: both spec parsers consume strings straight off the
 * service protocol (sweep request arrays) and the CLI.  Beyond
 * crash-freedom the harness checks the round-trip laws the cache
 * keying depends on:
 *
 *   WorkloadSpec:  parse(label(parse(s))) has the same label
 *   MechanismSpec: parse(canonical(parse(s))) has the same canonical
 *                  form, and parse(label(parse(s))) the same too
 *                  (labels never lose information — PR 4's contract)
 *
 * A spec that parses but breaks a round-trip would give one
 * experiment two cache identities (or two experiments one), so the
 * harness aborts on it like any crash.
 *
 * A mechanism that parses must also run: the harness builds it and
 * feeds it a few misses that evict pages from the TLB, so a spec the
 * grammar accepts but the simulator cannot execute (two RP children
 * sharing one recency stack, say) aborts here rather than inside a
 * service.  Specs with large prediction tables skip that step to keep
 * an iteration cheap.
 */

#include "harness.hh"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "mem/page_table.hh"
#include "prefetch/mech_spec.hh"
#include "prefetch/prefetcher.hh"
#include "workload/workload_spec.hh"

namespace
{

[[noreturn]] void
roundTripFailure(const char *what, const std::string &input,
                 const std::string &first, const std::string &second)
{
    std::fprintf(stderr,
                 "%s round-trip violated for input '%s': "
                 "'%s' re-parsed as '%s'\n",
                 what, input.c_str(), first.c_str(), second.c_str());
    std::abort();
}

void
checkWorkload(const std::string &text)
{
    tlbpf::WorkloadSpec spec = tlbpf::WorkloadSpec::parse(text);
    std::string label = spec.label();
    tlbpf::WorkloadSpec again = tlbpf::WorkloadSpec::parse(label);
    if (again.label() != label)
        roundTripFailure("WorkloadSpec label", text, label,
                         again.label());
}

/** True when no (nested) mechanism asks for more than 4096 rows. */
bool
smallTables(const tlbpf::MechanismSpec &spec)
{
    for (const auto &[key, value] : spec.params)
        if (key == "rows" && std::stoull(value) > 4096)
            return false;
    for (const tlbpf::MechanismSpec &child : spec.children)
        if (!smallTables(child))
            return false;
    return true;
}

void
runMechanism(const tlbpf::MechanismSpec &spec)
{
    if (!smallTables(spec))
        return;
    tlbpf::PageTable pt;
    std::unique_ptr<tlbpf::Prefetcher> prefetcher = spec.build(pt);
    if (!prefetcher)
        return; // "none"
    tlbpf::PrefetchDecision decision;
    for (tlbpf::Vpn vpn = 1; vpn <= 4; ++vpn) {
        decision = tlbpf::PrefetchDecision{};
        tlbpf::TlbMiss miss;
        miss.vpn = vpn;
        miss.pc = 0x400000 + 4 * vpn;
        miss.evictedVpn = vpn + 16;
        prefetcher->onMiss(miss, decision);
    }
}

void
checkMechanism(const std::string &text)
{
    tlbpf::MechanismSpec spec = tlbpf::MechanismSpec::parse(text);
    std::string canonical = spec.canonical();
    tlbpf::MechanismSpec again = tlbpf::MechanismSpec::parse(canonical);
    if (again.canonical() != canonical)
        roundTripFailure("MechanismSpec canonical", text, canonical,
                         again.canonical());
    std::string label = spec.label();
    tlbpf::MechanismSpec legend = tlbpf::MechanismSpec::parse(label);
    if (legend.canonical() != canonical)
        roundTripFailure("MechanismSpec label", text, label,
                         legend.canonical());
    runMechanism(spec);
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    std::string text(reinterpret_cast<const char *>(data), size);
    try {
        checkWorkload(text);
    } catch (const std::invalid_argument &) {
        // Rejected spec strings are the expected common case.
    }
    try {
        checkMechanism(text);
    } catch (const std::invalid_argument &) {
    }
    return 0;
}
