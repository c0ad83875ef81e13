// Canonical JSON rendering of a congest::RunReport — the document mnsctl
// prints, operators script against, and `mnsctl diff` compares
// field-by-field.
//
// Canonical means: fixed field order, fixed number formatting (io/json.hpp),
// and payload arrays compressed into exact FNV-1a digests (hex strings) plus
// their lengths — two reports render identically iff the runs were
// bit-identical in everything the digest covers (rounds, messages, charges,
// phases, aggregations, cache behavior, full payload content). wall_ms is
// the ONE nondeterministic field; diff tools must skip it (mnsctl diff
// --baseline does).
#pragma once

#include <string>

#include "congest/workload.hpp"

namespace mns::io {

/// One-line canonical JSON object for the report.
[[nodiscard]] std::string run_report_to_json(const congest::RunReport& report);

/// True iff the two reports are bit-identical in every deterministic field,
/// including full payload content (wall_ms is ignored). This is the
/// restore-parity predicate of DESIGN.md §8.
[[nodiscard]] bool run_reports_identical(const congest::RunReport& a,
                                         const congest::RunReport& b);

}  // namespace mns::io
