/**
 * @file
 * Stage replay for the traced run: every instance a workload solved is
 * rebuilt at its final time step (buildProblem, the Gables rewrite,
 * discretize) and run through Solver::solve's public stages one call
 * at a time, each inside a span, followed by Solver::solve itself on
 * the same model.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

/** Counts the replay makes beside its spans. */
struct ReplayCounts
{
    int instances = 0;
    int64_t bnbNodes = 0;
    int64_t improving = 0;   //!< Incumbent improvements in B&B.
    int nodeCapped = 0;      //!< B&B calls stopped by the node budget.
    int exhausted = 0;       //!< B&B calls that exhausted the tree.
    int lpTightest = 0;      //!< Models where only the LP gives the bound.
    int greedyCertified = 0; //!< Greedy already within the target gap.
};

/**
 * Replay the distinct ok instances of a traced pass (evaluations with
 * a known final step); spans go into `spans`.
 */
ReplayCounts replayStages(const Setup &setup,
                          const std::vector<Evaluation> &evals,
                          SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
