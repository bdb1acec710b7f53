#include "telemetry/ctl.h"

#include <cassert>

#include "common/json.h"

namespace nvalloc {

namespace {

/** Split a dotted name into components (no empty components for
 *  well-formed names; a trailing/leading dot yields an empty one and
 *  is the registrant's bug). */
std::vector<std::string_view>
splitName(std::string_view name)
{
    std::vector<std::string_view> parts;
    size_t start = 0;
    while (true) {
        size_t dot = name.find('.', start);
        if (dot == std::string_view::npos) {
            parts.push_back(name.substr(start));
            return parts;
        }
        parts.push_back(name.substr(start, dot - start));
        start = dot + 1;
    }
}

} // namespace

void
CtlRegistry::registerName(std::string name, Reader reader)
{
#ifndef NDEBUG
    // Tree property: no registered name may be an ancestor or a
    // descendant of another. Entries adjacent in sort order are the
    // only candidates for a prefix relation.
    std::string as_interior = name + ".";
    auto it = entries_.lower_bound(name);
    if (it != entries_.end() && it->first != name)
        assert(it->first.compare(0, as_interior.size(), as_interior) !=
                   0 &&
               "new ctl name is an interior node of an existing leaf");
    if (it != entries_.begin()) {
        auto prev = std::prev(it);
        assert(name.compare(0, prev->first.size() + 1,
                            prev->first + ".") != 0 &&
               "new ctl name descends from an existing leaf");
    }
#endif
    entries_[std::move(name)] = std::move(reader);
}

CtlStatus
CtlRegistry::read(std::string_view name, uint64_t &out) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        return CtlStatus::UnknownName;
    out = it->second();
    return CtlStatus::Ok;
}

template <typename Fn>
void
CtlRegistry::forEachUnder(std::string_view prefix, Fn &&fn) const
{
    for (auto it = entries_.lower_bound(prefix); it != entries_.end();
         ++it) {
        const std::string &name = it->first;
        if (name.compare(0, prefix.size(), prefix) != 0)
            break;
        // Whole-component match: the prefix must be the full name or
        // be followed by a dot.
        if (!prefix.empty() && name.size() > prefix.size() &&
            name[prefix.size()] != '.')
            continue;
        fn(name, it->second);
    }
}

std::vector<std::string>
CtlRegistry::names(std::string_view prefix) const
{
    std::vector<std::string> out;
    forEachUnder(prefix, [&](const std::string &name, const Reader &) {
        out.push_back(name);
    });
    return out;
}

void
CtlRegistry::forEach(
    const std::function<void(const std::string &, uint64_t)> &fn) const
{
    for (const auto &[name, reader] : entries_)
        fn(name, reader());
}

std::string
CtlRegistry::json(std::string_view prefix) const
{
    JsonWriter w;
    w.beginObject();
    std::vector<std::string_view> open; // interior nodes currently open
    forEachUnder(prefix, [&](const std::string &name,
                             const Reader &reader) {
        std::vector<std::string_view> parts = splitName(name);
        size_t interior = parts.size() - 1;
        size_t common = 0;
        while (common < open.size() && common < interior &&
               open[common] == parts[common])
            ++common;
        while (open.size() > common) {
            w.endObject();
            open.pop_back();
        }
        for (size_t i = common; i < interior; ++i) {
            w.key(parts[i]).beginObject();
            open.push_back(parts[i]);
        }
        w.key(parts[interior]).value(reader());
    });
    while (!open.empty()) {
        w.endObject();
        open.pop_back();
    }
    w.endObject();
    return w.take();
}

} // namespace nvalloc
