/**
 * @file
 * The TLBPF_DCHECK invariant layer: debug-build assertions for the
 * invariants the concurrent subsystems otherwise assume silently.
 *
 * tlbpf_assert (logging.hh) is for invariants cheap enough to keep in
 * every build.  TLBPF_DCHECK is the tier below it: checks that sit on
 * hot paths (the thread pool's job count, the ordered-emission
 * frontier, the lease state machine, snapshot restore) where the cost
 * is only acceptable in builds that exist to find bugs.  The macros
 * compile to nothing unless TLBPF_ENABLE_DCHECKS is defined, which the
 * build system does for Debug builds, every TLBPF_SANITIZE flavor, and
 * fuzz harnesses (see the top-level CMakeLists) — so a sanitizer run
 * checks the logical invariants *and* the memory/race ones in a
 * single pass, and plain Release carries zero overhead.
 *
 * A failed check formats "<expr> (<detail>)" with its file:line and
 * hands it to the installed failure handler.  The default handler
 * prints to stderr and aborts (a core/sanitizer report captures the
 * state, matching tlbpf_panic's discipline).  Tests install a
 * throwing handler via ScopedCheckFailThrow so the guarded error
 * paths are testable deterministically, without death tests — which
 * do not mix with the TSan builds these checks are alive in.
 */

#ifndef TLBPF_UTIL_CHECK_HH
#define TLBPF_UTIL_CHECK_HH

#include <stdexcept>
#include <string>

#include "util/logging.hh"

namespace tlbpf
{

/** True in builds where TLBPF_DCHECK is alive (Debug/sanitized);
 *  tests use it to skip checks that Release compiles out. */
constexpr bool
dchecksEnabled()
{
#if defined(TLBPF_ENABLE_DCHECKS)
    return true;
#else
    return false;
#endif
}

/** What a throwing check-failure handler throws (see below). */
class CheckFailure : public std::logic_error
{
  public:
    explicit CheckFailure(const std::string &what)
        : std::logic_error(what)
    {
    }
};

namespace detail
{

/** Receives every failed TLBPF_DCHECK; must not return normally. */
using CheckFailHandler = void (*)(const char *file, int line,
                                  const std::string &msg);

/**
 * Install @p handler (nullptr restores the abort default); returns
 * the previous handler.  Not thread-safe — install before spawning
 * the threads whose checks you intend to capture.
 */
CheckFailHandler setCheckFailHandler(CheckFailHandler handler);

/** Routes to the installed handler; aborts by default. */
[[noreturn]] void checkFail(const char *file, int line,
                            const std::string &msg);

} // namespace detail

/**
 * RAII test helper: while alive, a failed TLBPF_DCHECK throws
 * CheckFailure instead of aborting.  Only meaningful in builds where
 * dchecksEnabled(); harmless (and useless) elsewhere.
 */
class ScopedCheckFailThrow
{
  public:
    ScopedCheckFailThrow();
    ~ScopedCheckFailThrow();
    ScopedCheckFailThrow(const ScopedCheckFailThrow &) = delete;
    ScopedCheckFailThrow &
    operator=(const ScopedCheckFailThrow &) = delete;

  private:
    detail::CheckFailHandler _previous;
};

} // namespace tlbpf

#if defined(TLBPF_ENABLE_DCHECKS)

/** Debug-build invariant; compiled out of plain Release. */
#define TLBPF_DCHECK(cond)                                            \
    do {                                                              \
        if (!(cond))                                                  \
            ::tlbpf::detail::checkFail(                               \
                __FILE__, __LINE__,                                   \
                "TLBPF_DCHECK failed: " #cond);                       \
    } while (0)

/** TLBPF_DCHECK with an operator<<-formatted detail message. */
#define TLBPF_DCHECK_MSG(cond, ...)                                   \
    do {                                                              \
        if (!(cond))                                                  \
            ::tlbpf::detail::checkFail(                               \
                __FILE__, __LINE__,                                   \
                "TLBPF_DCHECK failed: " #cond " (" +                  \
                    ::tlbpf::detail::format(__VA_ARGS__) + ")");      \
    } while (0)

#else

/* Compiled out: operands are not evaluated, but stay visible to the
 * compiler so a Release build cannot rot a check expression. */
#define TLBPF_DCHECK(cond)                                            \
    do {                                                              \
        if (false && !(cond)) {                                       \
        }                                                             \
    } while (0)

#define TLBPF_DCHECK_MSG(cond, ...)                                   \
    do {                                                              \
        if (false && !(cond)) {                                       \
        }                                                             \
    } while (0)

#endif // TLBPF_ENABLE_DCHECKS

#endif // TLBPF_UTIL_CHECK_HH
