/**
 * @file
 * Lower bounds on the optimal makespan.
 *
 * The paper's definition of a near-optimal schedule relies on the
 * solver's optimality bound: "the best possible execution time that
 * can exist within the part of the solution space that the solver has
 * not proved to be infeasible" (Section I). This module produces that
 * bound. It combines combinatorial arguments (critical path,
 * disjunctive group load, resource energy) with a linear-programming
 * relaxation solved by the lp library.
 */

#ifndef HILP_CP_BOUNDS_HH
#define HILP_CP_BOUNDS_HH

#include <cstdint>
#include <vector>

#include "model.hh"

namespace hilp {
namespace cp {

/**
 * Earliest-start (head) and remaining-work (tail) values per task
 * computed over the precedence graph with minimum mode durations.
 * head[t] + tail[t] is a per-task lower bound on the makespan of any
 * schedule containing t.
 */
struct CriticalPathData
{
    std::vector<Time> head; //!< Earliest possible start of each task.
    std::vector<Time> tail; //!< Min duration of t plus longest
                            //!< downstream chain.
};

/** Compute heads and tails using minimum mode durations. */
CriticalPathData criticalPathData(const Model &model);

/**
 * The individual lower bounds; best() is the solver's optimality
 * bound.
 */
struct LowerBounds
{
    Time criticalPath = 0;   //!< Longest precedence chain.
    Time groupLoad = 0;      //!< Max load of tasks pinned to one group.
    Time resourceEnergy = 0; //!< Max ceil(min energy / capacity).
    Time lpRelaxation = 0;   //!< Rounded-up LP relaxation value (0
                             //!< when the LP was skipped or failed).
    int64_t lpPivots = 0;    //!< Simplex pivots the LP took.

    /** The tightest of the bounds above. */
    Time best() const;

    /**
     * Drop the LP bound when a known schedule of the given makespan
     * refutes it. That schedule is a feasible LP point with M equal
     * to its makespan, so a correctly solved LP never exceeds it; a
     * larger value is a numerical failure of the simplex and no
     * bound at all. Returns true when the LP bound was dropped.
     */
    bool dropRefutedLp(Time makespan);
};

/**
 * Compute all makespan lower bounds for the model. When use_lp is
 * false the LP relaxation is skipped (useful inside tight search
 * loops). The LP relaxation includes mode-choice convexity,
 * precedence-path timing, per-group load, and per-resource energy
 * constraints; it dominates the combinatorial bounds in most cases
 * but costs a simplex solve.
 */
LowerBounds computeLowerBounds(const Model &model, bool use_lp = true);

} // namespace cp
} // namespace hilp

#endif // HILP_CP_BOUNDS_HH
