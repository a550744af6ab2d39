/**
 * @file
 * Depth-first branch-and-bound over serial-SGS decisions.
 *
 * Each node of the search extends a partial schedule by picking an
 * eligible task and one of its modes and placing it at the earliest
 * feasible start. For regular objectives like makespan this schedule
 * space contains an optimal schedule (the classic active-schedule
 * argument for serial schedule generation), so exhausting the tree
 * proves optimality. Pruning uses the incumbent upper bound against
 * per-node bounds from the propagation engine. A leaf replaces the
 * incumbent only when it is strictly better.
 *
 * One node-expansion kernel (search.cc's Worker: propagation engine,
 * start table, node arena, eligible set, decision path and the one
 * dfs) runs under two drivers:
 *
 *  - Serial (SearchLimits::threads <= 1): one kernel with a private
 *    incumbent, walking the tree from the root. Node limits are
 *    exact and the walk is deterministic.
 *  - Opportunistic (threads >= 2): the same tree decomposed into
 *    *subproblems* — decision prefixes from the root — searched by a
 *    crew of workers:
 *     - Frontier splitting: nodes above SearchLimits::splitDepth are
 *       expanded into child subproblems pushed onto the owning
 *       worker's deque instead of being recursed into; deeper nodes
 *       also spill their children whenever other workers are
 *       starving, so one hard subtree cannot serialize the crew.
 *     - Chase–Lev-style deques: the owner pushes and pops at the
 *       bottom, thieves steal half from the top — the shallowest,
 *       largest subtrees. A node's children are pushed in reverse,
 *       so the owner pops them in branch order, as the serial walk
 *       visits them.
 *     - Shared incumbent: the best makespan is a CAS-updated atomic
 *       every worker prunes against; the schedule itself is
 *       published under a mutex by whichever worker wins the CAS.
 *     - Bound aggregation: every queued or in-flight subproblem keeps
 *       its certified lower bound registered in a global aggregator,
 *       so the targetGap stop can use min(incumbent, min over
 *       remaining subtrees) as a sound global lower bound instead of
 *       only the weaker external bound.
 *
 * Both return the same optimal makespans and the same
 * exhausted/foundSolution statuses; only node counts differ (pruning
 * happens in a different order). See tests/cp/test_parallel_search.cc
 * for the differential guarantee.
 */

#ifndef HILP_CP_SEARCH_HH
#define HILP_CP_SEARCH_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "model.hh"
#include "propagate.hh"

namespace hilp {
namespace cp {

/** Resource limits and stopping conditions for the search. */
struct SearchLimits
{
    /** Maximum number of branch nodes explored. */
    int64_t maxNodes = 500000;
    /** Wall-clock budget in seconds. */
    double maxSeconds = 5.0;
    /**
     * Absolute monotonic cut-off for the search, on top of (and
     * independent of) maxSeconds. Unlike maxSeconds, which is
     * per-solve, the deadline is shared by every solve of one outer
     * evaluation (all resolution refinements and escalations), so a
     * single slow point cannot overrun its wall-clock budget by
     * re-solving. time_point::max() (the default) disables it.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /**
     * Stop as soon as (UB - lowerBound) / UB <= targetGap. The
     * paper's near-optimality threshold is 0.1; use 0 to search for
     * a proven optimum.
     */
    double targetGap = 0.0;
    /**
     * Certified external lower bound on the optimum (from the bounds
     * engine); used for the targetGap stop and for pruning.
     */
    Time lowerBound = 0;
    /**
     * Worker threads for the branch-and-bound tree walk. 1 (the
     * default) runs the serial driver, a deterministic depth-first
     * walk; larger values run the opportunistic driver (see the file
     * comment), which explores a different node set but returns the
     * same optimal makespans and the same exhausted/foundSolution
     * statuses.
     */
    int threads = 1;
    /**
     * Tree depth down to which the parallel search splits nodes into
     * stealable subproblems instead of recursing. 0 picks a default;
     * ignored by the serial path.
     */
    int splitDepth = 0;
    /**
     * Ignored; set only by perfbench, removed with `packedLayout` in
     * the next benchmark-maintenance change.
     */
    bool energeticReasoning = false;
    bool useNogoods = false;
    size_t nogoodCapacity = 1 << 16;
    bool packedLayout = true;
};

/** Outcome of the branch-and-bound search. */
struct SearchResult
{
    /** True when a complete schedule was found (or warm-started). */
    bool foundSolution = false;
    /**
     * True when the tree was exhausted: the incumbent is optimal, or
     * no solution exists within the horizon if none was found.
     */
    bool exhausted = false;
    ScheduleVec best;
    Time bestMakespan = 0;
    int64_t nodes = 0;
    int64_t backtracks = 0;
    int64_t solutions = 0;
    /** Worker threads that actually ran the search. */
    int threadsUsed = 1;
    /** Parallel search: successful steal operations. */
    int64_t steals = 0;
    /** Parallel search: subproblems published for stealing. */
    int64_t subproblems = 0;
    /**
     * Profile sweeps (Profile::earliestStart calls) the per-node
     * start tables ran; see start_table.hh. Deterministic for a
     * serial search, unlike any timing.
     */
    int64_t startSweeps = 0;
    /** Start-table entries filled without a sweep. */
    int64_t startsReused = 0;
    /**
     * Heap bytes the search scratch grew by *during* the tree walk
     * (arenas, profile slabs). Near zero in
     * steady state: all scratch is committed up front or during the
     * first few nodes of warm-up.
     */
    int64_t scratchBytes = 0;
    /** Peak live bytes across the search's arenas (all workers). */
    int64_t arenaHighWater = 0;
    /** Arena rewinds performed (≈ node count). */
    int64_t arenaRewinds = 0;
    /**
     * Per-propagator telemetry, aggregated (by rule name) across
     * every worker's propagation engine.
     */
    std::vector<PropagatorStats> propagators;
};

/**
 * Run branch-and-bound on the model. When warm_start is non-null it
 * must be a feasible schedule; it seeds the incumbent so the search
 * only explores strictly better schedules.
 */
SearchResult branchAndBound(const Model &model,
                            const ScheduleVec *warm_start,
                            const SearchLimits &limits);

} // namespace cp
} // namespace hilp

#endif // HILP_CP_SEARCH_HH
