#pragma once

/**
 * @file
 * Interned span names: the hot-path tracing contract is that span
 * records carry a small integer `NameId`, never a string. Call sites
 * register their names once at startup (file-scope `static const
 * NameId` initializers, or per-deployment interning in a constructor)
 * and pass the id on every record — the `trace-name-literal` lint rule
 * rejects string literals / `std::string` temporaries on trace calls
 * in library code, so the recorder stays alloc-free by construction.
 *
 * Both interning and id->string lookup are mutex-guarded; neither is
 * hot-path material. The hot path only ever *copies* a NameId into a
 * fixed-size record — resolution happens at drain/export time.
 */

#include <cstdint>
#include <string>
#include <string_view>

namespace erec::obs {

/** Index into the process-wide span-name table; 0 is reserved. */
using NameId = std::uint32_t;

/** NameId never returned by internSpanName (unset / unknown). */
inline constexpr NameId kInvalidNameId = 0;

/**
 * Register `name` in the process-wide table and return its id;
 * re-interning an existing name returns the same id. Startup-only:
 * takes a mutex and may allocate.
 */
NameId internSpanName(std::string_view name);

/**
 * The string interned under `id`; ids come only from internSpanName.
 * Returns "<invalid>" for kInvalidNameId or out-of-range ids so
 * exporters never crash on a corrupt record.
 */
const std::string &spanName(NameId id);

} // namespace erec::obs
