// Working-set migration configuration (DESIGN.md §15).
//
// Kept in its own tiny header so the bench reporter can stamp the setting
// into every JSON without pulling in the whole page-ownership layer.
#pragma once

#include <cstdlib>

#include "rko/task/task.hpp"

namespace rko::core {

/// Default pre-copy budget for MachineConfig: the RKO_WORKSET_PUSH
/// environment variable when set (pages per migration, clamped to
/// [0, task::kMaxWorkset]; 0 turns working-set migration off), else
/// task::kMaxWorkset.
inline int workset_push_from_env() {
    const char* env = std::getenv("RKO_WORKSET_PUSH");
    if (env == nullptr || *env == '\0') return static_cast<int>(task::kMaxWorkset);
    const int pages = std::atoi(env);
    if (pages < 0) return 0;
    return pages > static_cast<int>(task::kMaxWorkset)
               ? static_cast<int>(task::kMaxWorkset)
               : pages;
}

} // namespace rko::core
