/**
 * @file
 * Dotted-name introspection registry (mallctl-style).
 *
 * Statistics are exported as a tree of dotted names —
 * "stats.arena.0.refills", "stats.tcache.hit" — each mapping to
 * a reader function that computes the value on demand. The registry
 * is built once (by nvalloc/stats.cc for a heap) and then served
 * read-only: lookups are a map find, and the whole tree or any subtree
 * can be enumerated or dumped as JSON.
 *
 * Names must form a proper tree: a name cannot be both a leaf and an
 * interior node ("stats.flush" and "stats.flush.total" cannot both be
 * registered). registerName asserts this in debug builds; json()
 * relies on it.
 */

#ifndef NVALLOC_TELEMETRY_CTL_H
#define NVALLOC_TELEMETRY_CTL_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nvalloc {

enum class CtlStatus
{
    Ok = 0,
    UnknownName,
};

class CtlRegistry
{
  public:
    using Reader = std::function<uint64_t()>;

    /** Register a leaf. Later registrations of the same name win
     *  (callers build the registry single-threaded). */
    void registerName(std::string name, Reader reader);

    /** Look `name` up and read its current value. */
    CtlStatus read(std::string_view name, uint64_t &out) const;

    bool
    contains(std::string_view name) const
    {
        return entries_.find(name) != entries_.end();
    }

    size_t size() const { return entries_.size(); }

    /** All registered names with `prefix` (sorted); empty prefix
     *  yields everything. A prefix matches whole components only:
     *  "stats.flush" matches "stats.flush.total", not
     *  "stats.flushes". */
    std::vector<std::string> names(std::string_view prefix = {}) const;

    /** Visit every (name, current value), sorted by name. */
    void forEach(
        const std::function<void(const std::string &, uint64_t)> &fn)
        const;

    /**
     * Serialize the leaves names(prefix) selects as nested JSON
     * objects, splitting names on dots and keeping full paths:
     * {"stats":{"flush":{"total":123,...},...}}. An empty prefix dumps
     * the whole tree; an unknown one gives {}.
     */
    std::string json(std::string_view prefix = {}) const;

  private:
    using Map = std::map<std::string, Reader, std::less<>>;

    /** Visit the entries names(prefix) selects, sorted by name. */
    template <typename Fn>
    void forEachUnder(std::string_view prefix, Fn &&fn) const;

    Map entries_;
};

} // namespace nvalloc

#endif // NVALLOC_TELEMETRY_CTL_H
