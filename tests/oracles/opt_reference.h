// Reference implementations of the offline OPT routines: the original,
// unoptimized code of each, kept verbatim as test oracles. The shipped
// routines in src/opt/ have one engine each and must reproduce these bit
// for bit (costs and assignments); the PipelineEquivalence tests compare
// them on seeded instances, and the E17 bench (bench_opt_pipeline) times
// exact_opt_repacking against exact_opt_repacking_reference.
//
// Part of the cdbp_oracles library: linked into the tests and the benches,
// never installed.
#pragma once

#include <optional>
#include <vector>

#include "core/instance.h"
#include "opt/exact.h"
#include "opt/exact_repacking.h"
#include "opt/local_search.h"
#include "opt/offline_ffd.h"

namespace cdbp::oracles {

/// OPT_NR by the original branch and bound: the historical greedy seed,
/// O(|members|^2) capacity probes, cost pruning only. Same contract as
/// opt::exact_opt_nonrepacking (nullopt past max_items or node_limit).
[[nodiscard]] std::optional<opt::ExactResult> exact_opt_nonrepacking_reference(
    const Instance& instance, const opt::ExactOptions& options = {});

/// FFD by duration with per-probe StepFunction copies,
/// O(n^2 * max-bin-size). Same order and result as opt::offline_ffd_by_length.
[[nodiscard]] opt::OfflineResult offline_ffd_by_length_reference(
    const Instance& instance);

/// opt::improve_packing with spans and probes recomputed from fresh
/// StepFunctions around every candidate move.
[[nodiscard]] opt::LocalSearchResult improve_packing_reference(
    const Instance& instance, const std::vector<int>& seed_assignment,
    const opt::LocalSearchOptions& options = {});

/// offline_ffd_by_length_reference seed, then improve_packing_reference.
[[nodiscard]] opt::LocalSearchResult local_search_opt_nr_reference(
    const Instance& instance, const opt::LocalSearchOptions& options = {});

/// OPT_R by the original sequential event sweep (exact-double std::map
/// memo, solve-on-first-use). Ignores options.threads and options.cache.
[[nodiscard]] std::optional<opt::ExactRepackingResult>
exact_opt_repacking_reference(const Instance& instance,
                              const opt::ExactRepackingOptions& options = {});

}  // namespace cdbp::oracles
