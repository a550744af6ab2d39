#include "search.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "bounds.hh"
#include "nogood.hh"
#include "parallel_search.hh"
#include "profile.hh"
#include "propagate.hh"
#include "start_table.hh"
#include "support/arena.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace hilp {
namespace cp {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * With tracing enabled, one progress instant is emitted per this
 * many search nodes (power of two) so the timeline shows how deep
 * into the tree the search is without an event per node.
 */
constexpr int64_t kNodeTraceSample = 8192;

/**
 * All mutable search state lives here. The search owns the branching
 * decisions (eligible set, assignment, branch order); everything
 * about bounds and feasibility is delegated to the propagation
 * engine, which runs its propagators to fixpoint per node and
 * unwinds placements exactly through its trail.
 */
class Searcher
{
  public:
    Searcher(const Model &model, const ScheduleVec *warm_start,
             const SearchLimits &limits)
        : model_(model),
          limits_(limits),
          engine_(model),
          cp_(criticalPathData(model)),
          table_(model, cp_, engine_.profile()),
          startTime_(Clock::now())
    {
        engine_.add(makeTimetablePropagator(model));
        engine_.add(makeDisjunctivePropagator(model));
        engine_.add(makePrecedencePropagator(model));
        if (limits.energeticReasoning)
            engine_.add(makeEnergeticPropagator(model));

        const int n = model.numTasks();
        assign_.assign(n, Assignment{});
        end_.assign(n, 0);
        est_.assign(n, 0);
        remainingPreds_.assign(n, 0);
        for (int t = 0; t < n; ++t) {
            remainingPreds_[t] =
                static_cast<int>(model.predecessors(t).size()) +
                static_cast<int>(model.lagPredecessors(t).size());
        }
        eligiblePos_.assign(n, -1);
        for (int t = 0; t < n; ++t)
            if (remainingPreds_[t] == 0)
                addEligible(t);

        if (limits.useNogoods)
            nogoods_.reset(new NogoodStore(limits.nogoodCapacity));

        ub_ = model.horizon() + 1;
        if (warm_start) {
            result_.foundSolution = true;
            result_.best = *warm_start;
            result_.bestMakespan = warm_start->makespan(model);
            ub_ = result_.bestMakespan;
        }
    }

    SearchResult
    run()
    {
        trace::Span span("cp.search",
                         trace::Arg::intArg("tasks", model_.numTasks()));
        // Heap growth across the tree walk is the search's true
        // scratch-allocation cost: everything committed up front
        // (slabs, arena warm-up) is excluded, so a steady state of
        // zero reports as zero.
        int64_t scratch_before = scratchHeapBytes();
        if (gapReached())
            stop_ = true;
        else
            dfs(0, nullptr, -1);
        result_.exhausted = !stop_ && !limitHit_;
        result_.startSweeps = table_.sweeps();
        result_.startsReused = table_.reused();
        result_.propagators = engine_.stats();
        result_.scratchBytes = scratchHeapBytes() - scratch_before;
        result_.arenaHighWater = static_cast<int64_t>(
            nodeArena_.highWater() +
            engine_.stateArena().highWater());
        result_.arenaRewinds = nodeArena_.rewinds() +
                               engine_.stateArena().rewinds();
        span.arg(trace::Arg::intArg("nodes", result_.nodes));
        span.arg(trace::Arg::intArg("backtracks", result_.backtracks));
        flushMetrics();
        return result_;
    }

  private:
    void
    addEligible(int t)
    {
        eligiblePos_[t] = static_cast<int>(eligible_.size());
        eligible_.push_back(t);
    }

    /**
     * O(1) swap-remove from the eligible set. The set's internal
     * order is irrelevant: every node copies and re-sorts it into
     * branch_tasks, so the branch order stays deterministic.
     */
    void
    removeEligible(int t)
    {
        int pos = eligiblePos_[t];
        hilp_assert(pos >= 0 && eligible_[pos] == t);
        int last = eligible_.back();
        eligible_[pos] = last;
        eligiblePos_[last] = pos;
        eligible_.pop_back();
        eligiblePos_[t] = -1;
    }

    /** True when the incumbent already satisfies the target gap. */
    bool
    gapReached() const
    {
        if (!result_.foundSolution || limits_.targetGap <= 0.0)
            return false;
        if (result_.bestMakespan <= 0)
            return true;
        double gap =
            static_cast<double>(result_.bestMakespan - limits_.lowerBound) /
            static_cast<double>(result_.bestMakespan);
        return gap <= limits_.targetGap;
    }

    /** Periodically poll the wall-clock and node budgets. */
    bool
    limitsExceeded()
    {
        if (result_.nodes >= limits_.maxNodes) {
            limitHit_ = true;
            return true;
        }
        if ((result_.nodes & 1023) == 0) {
            Clock::time_point now = Clock::now();
            double elapsed = std::chrono::duration<double>(
                now - startTime_).count();
            if (elapsed >= limits_.maxSeconds ||
                now >= limits_.deadline) {
                limitHit_ = true;
                return true;
            }
        }
        return false;
    }

    /**
     * Flush per-search totals into the process-wide metrics registry.
     * Done once per run (not per node) so metrics collection costs
     * nothing measurable on the search hot path.
     */
    void
    flushMetrics()
    {
        metrics::counter("cp.search.nodes").add(result_.nodes);
        metrics::counter("cp.search.backtracks").add(result_.backtracks);
        metrics::counter("cp.search.solutions").add(result_.solutions);
        metrics::counter("cp.search.start_sweeps")
            .add(result_.startSweeps);
        metrics::counter("cp.search.start_reused")
            .add(result_.startsReused);
        int64_t invocations = 0;
        int64_t prunings = 0;
        for (const PropagatorStats &stats : result_.propagators) {
            invocations += stats.invocations;
            prunings += stats.prunings;
        }
        metrics::counter("cp.propagations").add(invocations);
        metrics::counter("cp.prunings").add(prunings);
        if (nogoods_) {
            metrics::counter("cp.nogood.hits").add(result_.nogoodHits);
            metrics::counter("cp.nogood.recorded")
                .add(result_.nogoodsRecorded);
        }
        metrics::gauge("hilp.arena.bytes").set(static_cast<double>(
            nodeArena_.heapBytes() +
            engine_.stateArena().heapBytes()));
        metrics::gauge("hilp.arena.highwater").set(
            static_cast<double>(result_.arenaHighWater));
        metrics::counter("hilp.arena.rewinds")
            .add(result_.arenaRewinds);
    }

    /**
     * Heap bytes currently committed to search scratch: the node and
     * engine-state arenas and the profile's occupancy storage.
     */
    int64_t
    scratchHeapBytes() const
    {
        return static_cast<int64_t>(nodeArena_.heapBytes() +
                                    engine_.stateArena().heapBytes() +
                                    engine_.profile().heapBytes());
    }

    void
    recordIncumbent(Time makespan)
    {
        result_.foundSolution = true;
        result_.best.tasks = assign_;
        result_.bestMakespan = makespan;
        ub_ = makespan;
        ++result_.solutions;
        if (trace::enabled()) {
            double gap = makespan > 0
                ? static_cast<double>(makespan - limits_.lowerBound) /
                  static_cast<double>(makespan)
                : 0.0;
            trace::instant("cp.incumbent",
                           trace::Arg::intArg("makespan", makespan),
                           trace::Arg::numArg("gap", gap));
        }
        if (gapReached())
            stop_ = true;
    }

    /**
     * One node. `parent_starts` is the parent node's earliest-start
     * table and `placed` the task the parent just placed (nullptr and
     * -1 at the root); see start_table.hh.
     */
    void
    dfs(Time makespan, const Time *parent_starts, int placed)
    {
        ++result_.nodes;
        if ((result_.nodes & (kNodeTraceSample - 1)) == 0)
            TRACE_INSTANT("cp.nodes",
                          trace::Arg::intArg("nodes", result_.nodes));
        if (stop_ || limitsExceeded())
            return;
        const int n = model_.numTasks();
        if (scheduled_ == n) {
            recordIncumbent(makespan);
            return;
        }
        // A recorded no-good proves every completion of this
        // placement set is >= its bound; prune when that cannot beat
        // the incumbent.
        if (nogoods_ && scheduled_ > 0) {
            Time known = nogoods_->lookup(hash_);
            if (known != NogoodStore::kNoBound && known >= ub_) {
                ++result_.nogoodHits;
                return;
            }
        }
        PropagationContext ctx{model_, cp_, assign_, end_,
                               makespan, limits_.lowerBound, ub_,
                               est_};
        Time node_bound = engine_.fixpoint(ctx);
        if (node_bound >= ub_) {
            // The propagators certified this bound against any
            // completion of the placements, so it can be recorded.
            if (nogoods_ && scheduled_ > 0) {
                nogoods_->record(hash_, node_bound, scheduled_);
                ++result_.nogoodsRecorded;
            }
            return;
        }

        // Branch over all eligible tasks, longest tail first. The
        // branch order, the start table and the per-task option lists
        // live in arena scratch released wholesale when the node
        // unwinds, so no node allocates in steady state.
        const size_t num_branch = eligible_.size();
        support::Arena::Scope scope(&nodeArena_);
        int *branch_tasks = table_.branchOrder(nodeArena_, eligible_);
        Time *starts = table_.build(nodeArena_, eligible_, parent_starts,
                                    placed, assign_, end_, ub_);
        for (size_t bi = 0; bi < num_branch; ++bi) {
            int t = branch_tasks[bi];
            const Task &task = model_.task(t);
            Option *options =
                nodeArena_.allocArray<Option>(task.modes.size());
            size_t num_options = table_.options(t, starts, ub_, options);
            Time tail_after = table_.tailAfter(t);

            for (size_t oi = 0; oi < num_options; ++oi) {
                const Option &opt = options[oi];
                const Mode &mode = task.modes[opt.mode];
                // Apply: the engine updates the profile, every
                // propagator's incremental state, and the trail.
                engine_.place(t, mode, opt.start);
                assign_[t] = {opt.mode, opt.start};
                end_[t] = opt.complete;
                hash_ ^= nogoodCode(t, opt.mode, opt.start);
                ++scheduled_;
                size_t eligible_size = eligible_.size();
                removeEligible(t);
                for (int s : model_.successors(t))
                    if (--remainingPreds_[s] == 0)
                        addEligible(s);

                dfs(std::max(makespan, opt.complete), starts, t);

                // Undo.
                for (int s : model_.successors(t))
                    if (remainingPreds_[s]++ == 0)
                        removeEligible(s);
                addEligible(t);
                hilp_assert(eligible_.size() == eligible_size);
                --scheduled_;
                hash_ ^= nogoodCode(t, opt.mode, opt.start);
                assign_[t] = Assignment{};
                end_[t] = 0;
                engine_.undo();

                if (stop_ || limitHit_)
                    return;
                // Re-check the prune: the incumbent may have improved.
                if (opt.complete + tail_after >= ub_)
                    break; // Options are completion-sorted.
            }
        }
        // Fully explored (budget stops return early above): every
        // completion of this placement set was enumerated or pruned
        // against an incumbent >= the current one, and the incumbent
        // only decreases, so "completions >= ub_" holds forever.
        if (nogoods_ && scheduled_ > 0) {
            nogoods_->record(hash_, ub_, scheduled_);
            ++result_.nogoodsRecorded;
        }
        ++result_.backtracks;
    }

    using Option = StartTable::Option;

    const Model &model_;
    const SearchLimits &limits_;
    PropagationEngine engine_;
    CriticalPathData cp_;
    StartTable table_;
    Clock::time_point startTime_;

    /**
     * Per-node scratch: every dfs() call opens a Scope and the whole
     * node's scratch releases as one pointer rewind, including on the
     * early-exit paths.
     */
    support::Arena nodeArena_;

    std::vector<Assignment> assign_;
    std::vector<Time> end_;
    /** Earliest-start scratch shared with the propagators. */
    std::vector<Time> est_;
    std::vector<int> remainingPreds_;
    std::vector<int> eligible_;
    /** Position of each task inside eligible_, or -1 when absent. */
    std::vector<int> eligiblePos_;
    int scheduled_ = 0;

    /** Zobrist key of the current placement set (see nogood.hh). */
    uint64_t hash_ = 0;
    std::unique_ptr<NogoodStore> nogoods_;

    Time ub_ = 0;
    bool stop_ = false;
    bool limitHit_ = false;
    SearchResult result_;
};

} // anonymous namespace

SearchResult
branchAndBound(const Model &model, const ScheduleVec *warm_start,
               const SearchLimits &limits)
{
    // threads <= 1 keeps the historical serial searcher, bit for
    // bit: identical node counts, identical incumbent sequence.
    if (limits.threads <= 1) {
        Searcher searcher(model, warm_start, limits);
        return searcher.run();
    }
    return parallelBranchAndBound(model, warm_start, limits);
}

} // namespace cp
} // namespace hilp
