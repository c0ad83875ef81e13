// Luby-style maximal independent set as a VertexProgram (DESIGN.md §13).
//
// Each phase every undecided vertex draws a priority — a pure hash of
// (seed, phase, vertex), no RNG state — and exchanges it with its undecided
// neighbors; a vertex whose (priority, id) beats all rivals joins the MIS
// and its neighbors drop out. Two communication rounds per phase (priority
// exchange, winner notification), with departures announcing themselves once
// so survivors stop messaging dead neighbors. Because priorities are
// stateless hashes and all cross-vertex effects merge at the sequential
// barrier, rounds and messages are bit-identical at every thread width and
// across transport ranks — the determinism discipline the parity tests and
// the committed bench baseline pin.
//
// Ported onto this engine from the round-synchronous fast-MIS style of
// SALSA-CLRS (SNIPPETS.md `fast_mis_2`); expected O(log n) phases [Luby 86].
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "congest/workload.hpp"

namespace mns::congest {

/// Runs Luby's algorithm to completion on the meter's network, one
/// "luby-phase" of `meter` per phase; q.seed seeds the per-(phase, vertex)
/// priority hashes, so the same seed gives the same run, message for
/// message.
[[nodiscard]] MisPayload luby_mis(const Mis& q, PhaseMeter& meter);

/// The phase priority of `v` — exposed so tests can pin determinism.
[[nodiscard]] std::int64_t mis_priority(std::uint64_t seed, int phase,
                                        VertexId v);

/// Sequential greedy oracle (ascending vertex id) — the reference a
/// distributed result's size is sanity-checked against.
[[nodiscard]] std::vector<char> greedy_mis(const Graph& g);

/// "" iff `in_mis` is independent (no two members adjacent) and maximal
/// (every non-member has a member neighbor) — i.e. a correct MIS.
[[nodiscard]] std::string verify_maximal_independent_set(
    const Graph& g, const std::vector<char>& in_mis);

}  // namespace mns::congest
