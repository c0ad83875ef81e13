// ShortcutSource: how the CONGEST workloads obtain shortcuts, and how
// construction charging flows (DESIGN.md §2).
//
// A ShortcutSource answers "give me the shortcut for this partition" and
// "who pays for building it": it returns the shortcut plus whether it was
// freshly constructed.
// Workloads charge the [HIZ16a] construction substitution only for FRESH
// shortcuts (through their PhaseMeter into the RunReport's
// charged_construction_rounds, never into the simulator's measured rounds),
// so a Session cache that serves a previously built shortcut automatically
// yields the "charged once per distinct partition" discipline.
#pragma once

#include <functional>
#include <memory>

#include "core/shortcut.hpp"

namespace mns::congest {

/// A shortcut handed to a workload, with its charging status. fresh == false
/// means the construction was already paid for (cache hit, or a baseline
/// that builds nothing) and must not be charged again.
struct SourcedShortcut {
  std::shared_ptr<const Shortcut> shortcut;
  bool fresh = true;
};

/// The hand-off point between the construction layer (the SolverCore's
/// cache, SolveHandle::make_source) and the CONGEST workloads.
using ShortcutSource =
    std::function<SourcedShortcut(const Graph&, const Partition&)>;

/// Source returning empty shortcuts (the flooding baseline, wrapping the
/// core empty_shortcut). Never fresh: nothing is constructed, so nothing is
/// charged.
[[nodiscard]] inline ShortcutSource empty_shortcut_source() {
  return [](const Graph&, const Partition& parts) {
    return SourcedShortcut{
        std::make_shared<const Shortcut>(empty_shortcut(parts)), false};
  };
}

}  // namespace mns::congest
