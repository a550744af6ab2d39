/**
 * @file
 * The branch-and-bound's per-node earliest-start table.
 *
 * Every search node branches over each eligible task t and each of
 * its modes M, placed at the earliest start >= est(t) at which M fits
 * the node's occupancy profile. A child's profile is its parent's
 * plus exactly one placement P = (M0, [s, e)), and adding usage can
 * only remove feasible starts. So the child's start for (t, M) is
 * never below the parent's start S, and it is S again unless M's
 * window at S collides with P:
 *
 *  - S < 0 (no feasible start, or pruned), a zero-duration M or P,
 *    or [S, S + dur) disjoint from [s, e): keep S.
 *  - Overlap on the same disjunctive group: every window from S up
 *    to e hits [s, e), so the start is earliestStart(M, e).
 *  - Any other overlap: keep S when M still fits there on the
 *    resources it shares with M0 (Profile::stillFits), otherwise
 *    sweep again with earliestStart(M, S) - never from est.
 *
 * A task that becomes eligible with P (a successor or start-lag
 * successor of P's task) gets a fresh sweep from its est. An
 * eligible task's est never changes: all of its predecessors are
 * placed.
 *
 * A mode whose completion plus its task's remaining tail reaches the
 * incumbent is stored as kPruned and never swept again: starts only
 * rise down the tree and the incumbent only falls, so it stays
 * pruned in every descendant.
 *
 * Every other entry is exactly the value Profile::earliestStart(M,
 * est) returns on the node's profile, so the search explores the
 * tree it would explore by sweeping every start at every node.
 */

#ifndef HILP_CP_START_TABLE_HH
#define HILP_CP_START_TABLE_HH

#include <cstdint>
#include <vector>

#include "bounds.hh"
#include "model.hh"
#include "profile.hh"
#include "support/arena.hh"

namespace hilp {
namespace cp {

class StartTable
{
  public:
    /** Start entry of a mode pruned against the incumbent. */
    static constexpr Time kPruned = -2;

    /** One feasible (mode, start) branch choice for a task. */
    struct Option
    {
        int mode;
        Time start;
        Time complete;
    };

    StartTable(const Model &model, const CriticalPathData &cp,
               const Profile &profile);

    /**
     * Eligible tasks in branching order, longest tail first, ties by
     * index, in `arena` scratch.
     */
    int *branchOrder(support::Arena &arena,
                     const std::vector<int> &eligible) const;

    /**
     * The current node's table in `arena` scratch, indexed by
     * Mode::id; only the modes of `eligible` tasks are set. `parent`
     * is the parent node's table and `placed` the task whose
     * placement made this node; pass nullptr and -1 at the root of a
     * (sub)tree. Entries reaching `ub` are stored as kPruned.
     */
    Time *build(support::Arena &arena, const std::vector<int> &eligible,
                const Time *parent, int placed,
                const std::vector<Assignment> &assign,
                const std::vector<Time> &end, Time ub);

    /**
     * Task t's options that can still beat `ub`, sorted by
     * completion time, written to `out` (one slot per mode); returns
     * their count. Options that cannot are marked kPruned in `starts`.
     */
    size_t options(int t, Time *starts, Time ub, Option *out) const;

    /** What a task adds after its completion in the prune test. */
    Time tailAfter(int t) const
    {
        return cp_.tail[t] - model_.minDuration(t);
    }

    /** Profile sweeps run (Profile::earliestStart calls). */
    int64_t sweeps() const { return sweeps_; }

    /** Entries filled without a sweep: carried over or pruned. */
    int64_t reused() const { return reused_; }

  private:
    /** earliestStart(mode, from), or kPruned when it cannot beat ub. */
    Time sweep(const Mode &mode, Time from, Time tail, Time ub);

    /** Set fresh_ of task t's successors and lag successors. */
    void markSuccessors(int t, uint8_t value);

    const Model &model_;
    const CriticalPathData &cp_;
    const Profile &profile_;
    /** Scratch: tasks made eligible by the placement being derived. */
    std::vector<uint8_t> fresh_;
    int64_t sweeps_ = 0;
    int64_t reused_ = 0;
};

} // namespace cp
} // namespace hilp

#endif // HILP_CP_START_TABLE_HH
