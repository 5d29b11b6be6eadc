#include "elasticrec/obs/span_name.h"

#include <deque>
#include <mutex>
#include <unordered_map>

namespace erec::obs {

namespace {

/** Process-wide append-only name table. A deque keeps references to
 *  interned strings stable across growth, so spanName() can hand out
 *  long-lived references. */
struct NameTable
{
    std::mutex mu;
    std::deque<std::string> names; // index 0 = "<invalid>" sentinel
    std::unordered_map<std::string_view, NameId> ids;

    NameTable() { names.emplace_back("<invalid>"); }
};

NameTable &
table()
{
    static NameTable t;
    return t;
}

} // namespace

NameId
internSpanName(std::string_view name)
{
    NameTable &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    const auto it = t.ids.find(name);
    if (it != t.ids.end())
        return it->second;
    t.names.emplace_back(name);
    // Key the map by a view into the deque-owned string (stable for
    // the process lifetime), not the caller's transient buffer.
    const NameId id = static_cast<NameId>(t.names.size() - 1);
    t.ids.emplace(std::string_view(t.names.back()), id);
    return id;
}

const std::string &
spanName(NameId id)
{
    NameTable &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    if (id >= t.names.size())
        return t.names.front(); // "<invalid>"
    return t.names[id];
}

} // namespace erec::obs
